"""Self-verification suites: every algebraic identity the package rests on,
runnable with a fixed PRNG seed and reported deterministically.

A report is byte-identical across runs with the same seed: the elapsed
time is carried on the report object for display but excluded from the
canonical text and JSON bodies.

The gauge suite contains four checks that fail by design: the quoted
curvature/covariance identities hold only for commuting coefficients, and
the checks run them in the noncommutative algebra and report the
obstruction rather than weakening the claim.  Their failure entries carry
an explanatory note.  Consequently ``verify gauge`` (and ``verify all``)
exit nonzero; every other suite passes.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .action import (
    PairingConfig,
    biharmonic_reference,
    conjugate_form,
    field_equation_report,
    lagrangian_report,
    lorenz_reduce,
    reference_field_equation,
    scalar_product,
)
from .coeffs import CoeffExpr, JetSymbol
from .forms import Form, components, ddx, dx, coefficient_form
from .gauge import (
    abelian_connection,
    covariant_cyclic_combination,
    covariant_differential,
    conjugate_table_by_u,
    curvature,
    curvature_components,
    cyclic_symmetrize,
    cyclic_symmetrize_raw,
    field_strength,
    gauge_transform,
    generic_connection,
    matter_field,
    pure_gauge_connection,
    reference_curvature_table,
    tables_equal,
    true_curvature_table,
)
from .grassmann import GrassElement, theta_only_count
from .matrices import ETA, GradedMatrix, eta_differential, graded_commutator
from .render import render_matrix
from .scalar import J, J2, ONE, Scalar, ZERO, _reduced, jpow, scalar


@dataclass(frozen=True)
class VerifyFailure:
    input: str
    expected: str
    got: str
    note: str = ""


@dataclass
class VerifyReport:
    suite: str
    cases: int
    seed: int
    failures: tuple[VerifyFailure, ...]
    elapsed: float = 0.0

    @property
    def exit_code(self) -> int:
        return 0 if not self.failures else 1

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"seed: {self.seed}",
            f"cases: {self.cases}",
            f"failures: {len(self.failures)}",
        ]
        for f in self.failures:
            lines.append(f"- input: {f.input}")
            lines.append(f"  expected: {f.expected}")
            lines.append(f"  got: {f.got}")
            if f.note:
                lines.append(f"  note: {f.note}")
        lines.append("result: " + ("ok" if not self.failures else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "failures": [
                {
                    "input": f.input,
                    "expected": f.expected,
                    "got": f.got,
                    "note": f.note,
                }
                for f in self.failures
            ],
            "result": "ok" if not self.failures else "FAIL",
        }
        return json.dumps(payload, sort_keys=True, indent=2)


class _Collector:
    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[VerifyFailure] = []

    def check(self, input_text: str, expected: str, got: str, note: str = "") -> None:
        self.cases += 1
        if expected != got:
            self.failures.append(VerifyFailure(input_text, expected, got, note))

    def check_zero(self, input_text: str, value, note: str = "") -> None:
        self.cases += 1
        if not value.is_zero():
            self.failures.append(VerifyFailure(input_text, "0", str(value), note))

    def check_true(self, input_text: str, ok: bool, got: str = "false",
                   note: str = "") -> None:
        self.cases += 1
        if not ok:
            self.failures.append(VerifyFailure(input_text, "true", got, note))


# -- random generators ------------------------------------------------------------


def _rand_scalar(rng: random.Random, span: int = 6) -> Scalar:
    """a/da + (b/db) j, each numerator in -span..span and denominator in 1..4."""
    a, da = rng.randint(-span, span), rng.randint(1, 4)
    b, db = rng.randint(-span, span), rng.randint(1, 4)
    return _reduced(a * db, b * da, da * db)


def _rand_form(rng: random.Random, n: int, max_degree: int = 2) -> Form:
    shapes: list[tuple[str, ...]] = [(), ("dx",), ("ddx",), ("dx", "dx")]
    shapes = [s for s in shapes if sum(1 if t == "dx" else 2 for t in s) <= max_degree]
    items = []
    for _ in range(rng.randint(1, 3)):
        word: list = []
        for kind in rng.choice(shapes):
            word += _rand_word_run(rng)
            word.append((kind, rng.randint(1, n)))
        word += _rand_word_run(rng)
        items.append((_rand_scalar(rng, 3), tuple(word)))
    return Form(n, items)


_RUN_LETTERS = (JetSymbol("f"), JetSymbol("g"))


def _rand_word_run(rng: random.Random) -> tuple[JetSymbol, ...]:
    return tuple(rng.choice(_RUN_LETTERS) for _ in range(rng.randint(0, 1)))


def _rand_grass(rng: random.Random, N: int) -> GrassElement:
    items = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, 3)
        word = tuple(
            (rng.choice(("th", "bth")), rng.randint(1, N)) for _ in range(length)
        )
        items.append((_rand_scalar(rng, 3), word))
    return GrassElement(N, items)


def _rand_matrix(rng: random.Random) -> GradedMatrix:
    return GradedMatrix([[_rand_scalar(rng, 3) for _ in range(3)] for _ in range(3)])


def _rand_homogeneous_matrix(rng: random.Random, grade: int) -> GradedMatrix:
    return GradedMatrix.homogeneous(grade, [_rand_scalar(rng, 3) for _ in range(3)])


# -- suites ------------------------------------------------------------------------


def _suite_scalar(rng: random.Random, cases: int, col: _Collector) -> None:
    col.check("j * j * j", "1", str(J * J * J))
    col.check("j + j^2 + 1", "0", str(J + J2 + ONE))
    col.check("conj(j)", "j^2", str(J.conjugate()))
    for t in range(cases):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        col.check_zero(f"assoc#{t}: (a b) c - a (b c)", (a * b) * c - a * (b * c))
        col.check_zero(
            f"distrib#{t}: a (b + c) - a b - a c", a * (b + c) - a * b - a * c
        )
        col.check_zero(
            f"conj-mult#{t}: conj(a b) - conj(a) conj(b)",
            (a * b).conjugate() - a.conjugate() * b.conjugate(),
        )
        col.check_zero(
            f"norm#{t}: a conj(a) - norm(a)",
            a * a.conjugate() - scalar(a.norm()),
        )
        if not a.is_zero():
            col.check_zero(f"inverse#{t}: a a^-1 - 1", a * a.inverse() - ONE)
        za, zb = complex(*a.embed_complex()), complex(*b.embed_complex())
        zab = complex(*(a * b).embed_complex())
        col.check_true(
            f"embed#{t}: |embed(a)embed(b) - embed(ab)| < 1e-12",
            abs(za * zb - zab) < 1e-12,
            got=f"{abs(za * zb - zab):.3e}",
        )


def _suite_grassmann(rng: random.Random, cases: int, col: _Collector) -> None:
    N = 3
    for num, want in ((1, 2), (2, 8), (3, 20), (4, 40)):
        count = str(theta_only_count(num))
        col.check(f"theta-basis count N={num}", str(want), count)
        col.check(f"enumerated == formula N={num}",
                  str(num + num**2 + (num**3 - num) // 3), count)
    for i in range(1, N + 1):
        cube = GrassElement.word(N, (("th", i),) * 3)
        col.check_zero(f"th[{i}]^3", cube)
        cube_b = GrassElement.word(N, (("bth", i),) * 3)
        col.check_zero(f"bth[{i}]^3", cube_b)
    for a, b, c in product(range(1, N + 1), repeat=3):
        mixed = GrassElement.word(N, (("th", a), ("th", b), ("bth", c)))
        col.check_zero(f"th[{a}] th[{b}] bth[{c}]", mixed)
    for t in range(cases):
        x, y, z = (_rand_grass(rng, N) for _ in range(3))
        col.check_zero(f"assoc#{t}", (x * y) * z - x * (y * z))
        word4 = tuple((rng.choice(("th", "bth")), rng.randint(1, N)) for _ in range(4))
        col.check_zero(f"length-4 word#{t}", GrassElement.word(N, word4))


def _suite_matrix(rng: random.Random, cases: int, col: _Collector) -> None:
    col.check("grade(eta)", "1", str(ETA.grade_of()))
    col.check("grade(eta eta)", "2", str((ETA * ETA).grade_of()))
    col.check("eta^3", render_matrix(GradedMatrix.identity()),
              render_matrix(ETA * ETA * ETA))
    for t in range(cases):
        B = _rand_matrix(rng)
        d3 = eta_differential(eta_differential(eta_differential(B)))
        col.check_zero(f"d^3 B == 0 #{t}", d3)
        gb, gc = rng.randint(0, 2), rng.randint(0, 2)
        Bh = _rand_homogeneous_matrix(rng, gb)
        Ch = _rand_homogeneous_matrix(rng, gc)
        lhs = eta_differential(Bh * Ch)
        rhs = eta_differential(Bh) * Ch + (Bh * eta_differential(Ch)).scale(jpow(gb))
        col.check_zero(f"Leibniz d(BC) #{t} grades ({gb},{gc})", lhs - rhs)
    # graded bracket fails the Jacobi identity: recorded counterexample
    B = GradedMatrix.homogeneous(1, (ONE, ZERO, ZERO))
    C = GradedMatrix.homogeneous(1, (ZERO, ONE, ZERO))
    D = GradedMatrix.homogeneous(0, (ZERO, ZERO, ONE))
    jac = (
        graded_commutator(graded_commutator(B, C), D)
        + graded_commutator(graded_commutator(C, D), B)
        + graded_commutator(graded_commutator(D, B), C)
    )
    expected = GradedMatrix.homogeneous(2, (ONE - J, ZERO, ZERO))
    col.check("Jacobi counterexample value", render_matrix(expected),
              render_matrix(jac))


def _worked_example_checks(col: _Collector) -> None:
    n = 3
    indices = range(1, n + 1)
    f = coefficient_form(CoeffExpr.from_symbol(JetSymbol("f")), n)
    rhs = Form(n, [(ONE, (JetSymbol("f", derivs=(i, k)), ("dx", k), ("dx", i)))
                   for k, i in product(indices, repeat=2)]
              + [(ONE, (JetSymbol("f", derivs=(i,)), ("ddx", i))) for i in indices])
    col.check_zero("d^2 f - ((f_,k,i) dx[k] dx[i] + (f_,i) ddx[i])",
                   f.d().d() - rhs)

    w = Form(n, [(ONE, (JetSymbol("x", 1), ("dx", 2)))])
    rhs_pair = Form(n, [(ONE, (("ddx", 1), ("dx", 2))), (-ONE, (("ddx", 2), ("dx", 1)))])
    col.check_zero("d^2 (x[1] dx[2]) - (ddx[1] dx[2] - ddx[2] dx[1])",
                   w.d().d() - rhs_pair)

    om = Form(n, [(ONE, (JetSymbol("w", k), ("dx", k))) for k in indices])
    two_sector = [(ONE, (JetSymbol("w", k, (i, m)), ("dx", m), ("dx", i), ("dx", k)))
                  for m, i, k in product(indices, repeat=3)]
    for i, k in product(indices, repeat=2):
        two_sector += [(ONE, (JetSymbol("w", k, (i,)), ("ddx", i), ("dx", k))),
                       (-ONE, (JetSymbol("w", i, (k,)), ("ddx", i), ("dx", k)))]
    rhs_two_sector = Form(n, two_sector)
    col.check_zero(
        "d^2 (w[k] dx[k]) - antisymmetric two-generator shape", om.d().d() - rhs_two_sector
    )


def _suite_forms(rng: random.Random, cases: int, col: _Collector) -> None:
    n = 3
    _worked_example_checks(col)
    # fixed kernel/rotation identities
    col.check_zero("dx[1] dx[1] dx[1]", dx(1, n) * dx(1, n) * dx(1, n))
    col.check_zero("ddx[1] ddx[2]", ddx(1, n) * ddx(2, n))
    rotated = dx(2, n) * dx(3, n) * dx(1, n)
    base = (dx(1, n) * dx(2, n) * dx(3, n)).scale(J2)
    col.check_zero("dx[2] dx[3] dx[1] - j^2 dx[1] dx[2] dx[3]", rotated - base)
    for t in range(cases):
        a = _rand_form(rng, n)
        col.check_zero(f"d^3 #{t}", a.d().d().d())
        b, c = _rand_form(rng, n, 1), _rand_form(rng, n, 1)
        col.check_zero(f"assoc#{t}", (a * b) * c - a * (b * c))
        # graded Leibniz for left factors whose words end in a generator
        tail = rng.choice([("dx", rng.randint(1, n)), ("ddx", rng.randint(1, n))])
        run = _rand_word_run(rng)
        left = Form(n, [(_rand_scalar(rng, 3), run + (tail,))])
        grade = 1 if tail[0] == "dx" else 2
        right = _rand_form(rng, n, 1)
        lhs = (left * right).d()
        rhs = left.d() * right + (left * right.d()).scale(jpow(grade))
        col.check_zero(f"Leibniz (generator-tailed left factor) #{t}", lhs - rhs)


def _suite_gauge(rng: random.Random, cases: int, col: _Collector) -> None:
    n = 2
    conn = generic_connection(n)
    omega = curvature(conn)
    comp = components(omega)
    F = field_strength(conn)
    col.check_true(
        "ddx-sector of curvature == field strength (noncommutative)",
        tables_equal(comp.T21, F),
    )
    S_engine = cyclic_symmetrize(comp.T3)
    S_true = cyclic_symmetrize_raw(true_curvature_table(conn), n, False)
    col.check_true(
        "dx-sector of curvature == cubic mixed-order table (noncommutative)",
        tables_equal(S_engine, S_true),
    )
    S_ref = cyclic_symmetrize_raw(reference_curvature_table(conn), n, False)
    col.check_true(
        "dx-sector == left-ordered quadratic table (noncommutative)",
        tables_equal(S_engine, S_ref),
        note="holds only for commuting coefficients; the noncommutative "
             "difference is a commutator artifact of reordering a j^2-weighted "
             "middle term",
    )
    # commuting coefficients: the two quadratic orderings agree
    cab = abelian_connection(n)
    S_ab = cyclic_symmetrize(curvature_components(cab).T3)
    col.check_true(
        "dx-sector == left-ordered quadratic table (commutative)",
        tables_equal(
            S_ab, cyclic_symmetrize_raw(reference_curvature_table(cab), n, True)
        ),
    )
    # covariant cyclic identity
    S_dcomb = covariant_cyclic_combination(conn)
    col.check_true(
        "symmetrized curvature == cyclic adjoint-derivative combination "
        "(noncommutative)",
        tables_equal(S_engine, cyclic_symmetrize_raw(S_dcomb, n, False)),
        note="holds only for commuting coefficients; cubic terms obstruct "
             "the noncommutative identity",
    )
    col.check_true(
        "symmetrized curvature == cyclic adjoint-derivative combination "
        "(commutative)",
        tables_equal(
            S_ab, cyclic_symmetrize_raw(covariant_cyclic_combination(cab), n, True)
        ),
    )
    # matter identity D^3 Phi == Omega Phi
    phi = matter_field(n, False)
    d3phi = covariant_differential(
        conn, covariant_differential(conn, covariant_differential(conn, phi))
    )
    col.check_zero("D^3 Phi - Omega Phi (noncommutative)", d3phi - omega * phi)
    # pure gauge
    pg = pure_gauge_connection(n, commutative=True)
    col.check_zero("curvature of U^-1 dU (commutative)", curvature(pg))
    pg_nc = pure_gauge_connection(n, commutative=False)
    col.check_zero(
        "curvature of U^-1 dU (noncommutative)",
        curvature(pg_nc),
        note="the two-generator sector vanishes exactly; a cubic dx-sector "
             "obstruction survives for noncommuting U",
    )
    # gauge covariance
    conn_t = gauge_transform(conn)
    comp_t = curvature_components(conn_t)
    col.check_true(
        "field-strength sector transforms as Uinv F U (noncommutative)",
        tables_equal(comp_t.T21, conjugate_table_by_u(comp.T21, False)),
    )
    col.check_true(
        "dx-sector transforms as Uinv (dx-sector) U (noncommutative)",
        tables_equal(
            cyclic_symmetrize(comp_t.T3),
            cyclic_symmetrize_raw(conjugate_table_by_u(S_engine, False), n, False),
        ),
        note="holds only for commuting coefficients; the cubic sector does "
             "not conjugate covariantly",
    )
    # randomized: the cyclic projector is idempotent on numeric tables
    for t in range(cases):
        table = {key: CoeffExpr.from_scalar(_rand_scalar(rng, 3))
                 for key in product(range(1, n + 1), repeat=3)}
        S1 = cyclic_symmetrize_raw(table, n, False)
        S2 = cyclic_symmetrize_raw(S1, n, False)
        col.check_true(f"projector idempotent #{t}", tables_equal(S1, S2))


def _suite_action(rng: random.Random, cases: int, col: _Collector) -> None:
    n = 3
    cfg = PairingConfig()
    base = dx(1, n) * dx(2, n) * dx(3, n)
    col.check("<dx[1]dx[2]dx[3] | same>", "1",
              str(scalar_product(base, base, cfg)))
    rep = lagrangian_report(2)
    col.check("quadratic-shape constants (c1, c2, c3)",
              "(2/3, -1/3, 1)", f"({rep.c1}, {rep.c2}, {rep.c3})")
    col.check_true("quadratic shape reproduces the Lagrangian exactly", rep.exact)
    col.check("derivative-sector coefficient ratio", "-2", str(rep.ratio))
    fer = field_equation_report(2)
    col.check("variation decomposition (alpha, gamma)",
              "(2, -4)", f"({fer.alpha}, {fer.gamma})")
    col.check_true("variation decomposition exact", fer.exact)
    cab = abelian_connection(2)
    for k in (1, 2):
        diff = reference_field_equation(cab, cfg, k) - biharmonic_reference(cab, cfg, k)
        col.check_zero(
            f"reference field equation k={k} minus biharmonic operator, "
            "modulo the divergence constraint",
            lorenz_reduce(diff, 2),
        )
    for t in range(cases):
        w = _rand_degree3(rng, n)
        phi = _rand_degree3(rng, n)
        lhs = scalar_product(w, phi, cfg)
        rhs = scalar_product(phi, w, cfg).conjugate(frozenset())
        col.check_zero(f"hermiticity #{t}", lhs - rhs)
        cb = conjugate_form(w).conjugate_back()
        col.check_zero(f"conjugation involution #{t}", cb - w)
        x = _rand_degree3(rng, n, runs=False)
        v = scalar_product(x, x, PairingConfig(mu=scalar(1)))
        if x.is_zero():
            col.check_zero(f"positivity (zero) #{t}", v)
        else:
            s = v.terms.get((), ZERO)
            col.check_true(
                f"positivity #{t}: <x|x> real and positive",
                v.terms.keys() == {()} and s.is_rational() and s.a > 0,
                got=str(s),
            )


def _rand_degree3(rng: random.Random, n: int, runs: bool = True) -> Form:
    """A degree-3 form; with ``runs`` false its coefficients are scalars."""
    items = []
    for _ in range(rng.randint(1, 3)):
        run = _rand_word_run(rng) if runs else ()
        if rng.random() < 0.5:
            gens = tuple(("dx", rng.randint(1, n)) for _ in range(3))
        else:
            gens = (("ddx", rng.randint(1, n)), ("dx", rng.randint(1, n)))
        items.append((_rand_scalar(rng, 3), run + gens))
    return Form(n, items)


_SUITE_FUNCS: dict[str, Callable[[random.Random, int, _Collector], None]] = {
    "scalar": _suite_scalar,
    "grassmann": _suite_grassmann,
    "matrix": _suite_matrix,
    "forms": _suite_forms,
    "gauge": _suite_gauge,
    "action": _suite_action,
}
SUITES = tuple(_SUITE_FUNCS)


def run_verify(suite: str, seed: int = 0, cases: int = 50) -> VerifyReport:
    """Run one suite (or ``all``); deterministic for a given seed."""
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise ValueError(
            f"unknown suite {suite!r}; choose from all, " + ", ".join(SUITES)
        )
    if cases < 0:
        raise ValueError(f"case count {cases} is negative")
    names = SUITES if suite == "all" else (suite,)
    col = _Collector()
    start = time.perf_counter()
    for name in names:
        offset = zlib.crc32(name.encode("ascii"))
        _SUITE_FUNCS[name](random.Random(seed ^ offset), cases, col)
    elapsed = time.perf_counter() - start
    return VerifyReport(suite, col.cases, seed, tuple(col.failures), elapsed)
