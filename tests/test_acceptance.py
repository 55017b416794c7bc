"""Acceptance suite: one test per criterion, one summary line per criterion.

Three criteria concern gauge identities that hold classically only for
commuting coefficients (the curvature-table decomposition, the cyclic
covariant-derivative identity, and pure-gauge flatness / gauge
covariance).  The calculus is a strict left module, so with noncommuting
coefficients it produces exact noncommutative tables instead.  Those tests
assert the exact tables the calculus promises, the commutative identities
exactly, and the noncommutative identities modulo commutators: each
residual is nonzero and vanishes once its words are abelianized.  The unit
suites (test_gauge.py) pin the residuals themselves.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from z3forms import (
    CoeffExpr,
    EvalContext,
    abelian_connection,
    bar_theta,
    biharmonic_reference,
    covariant_differential,
    curvature,
    curvature_components,
    cyclic_symmetrize,
    enumerate_basis,
    eta_differential,
    evaluate_text,
    field_equation_report,
    field_strength,
    gauge_transform,
    generic_connection,
    graded_commutator,
    lagrangian_report,
    lorenz_reduce,
    matter_field,
    print_canonical,
    pure_gauge_connection,
    reference_field_equation,
    run_verify,
    theta,
    theta_only_count,
)
from z3forms.cli import main
from z3forms.gauge import (
    covariant_cyclic_combination,
    cyclic_symmetrize_raw,
    reference_curvature_table,
    tables_equal,
    true_curvature_table,
)
from z3forms.grassmann import GrassElement
from z3forms.scalar import J, ONE, Scalar, jpow
from z3forms.verify import _rand_form, _rand_homogeneous_matrix, _rand_matrix

from shared import (
    CORPUS,
    WORKED_SECOND_DIFFERENTIALS,
    assert_cyclic_combination_splits,
    unit_matrix,
)


@pytest.mark.criterion(1, "ternary generator basis counts")
def test_criterion_01_basis_counts():
    for N in range(1, 6):
        closed_form = N + N * N + (N**3 - N) // 3
        assert theta_only_count(N) == closed_form
        basis = enumerate_basis(N)
        words = [w for w, _ in basis]
        assert len(set(words)) == len(words)
        theta_only = [
            w for w in words if w and all(kind == "th" for kind, _ in w)
        ]
        assert len(theta_only) == closed_form
    assert theta_only_count(3) == 20


@pytest.mark.criterion(2, "vanishing rules: cubes, length-4 words, mixed triples")
def test_criterion_02_vanishing_rules():
    N = 3
    letters = [theta(i) for i in range(1, N + 1)] + [
        bar_theta(i) for i in range(1, N + 1)
    ]
    for a in range(1, N + 1):
        assert GrassElement.word(N, (theta(a),) * 3).is_zero()
        assert GrassElement.word(N, (bar_theta(a),) * 3).is_zero()
    for combo in itertools.product(letters, repeat=4):
        assert GrassElement.word(N, combo).is_zero()
    for combo in itertools.product(letters, repeat=3):
        if {letter[0] for letter in combo} == {"th", "bth"}:
            assert GrassElement.word(N, combo).is_zero()


@pytest.mark.criterion(3, "matrix model: d^3 = 0, graded product rule, Jacobi witness")
def test_criterion_03_matrix_model():
    rng = random.Random(2026)
    for _ in range(200):
        b = _rand_matrix(rng)
        assert eta_differential(
            eta_differential(eta_differential(b))
        ).is_zero()
    for _ in range(200):
        g = rng.randint(0, 2)
        b = _rand_homogeneous_matrix(rng, g)
        c = _rand_matrix(rng)
        lhs = eta_differential(b * c)
        rhs = eta_differential(b) * c + (b * eta_differential(c)).scale(jpow(g))
        assert (lhs - rhs).is_zero()
    # nested graded commutators do not cycle to zero
    b, c, d = unit_matrix(0, 1), unit_matrix(1, 2), unit_matrix(2, 2)
    total = (
        graded_commutator(graded_commutator(b, c), d)
        + graded_commutator(graded_commutator(c, d), b)
        + graded_commutator(graded_commutator(d, b), c)
    )
    assert total == unit_matrix(0, 2).scale(ONE - J)
    assert not total.is_zero()


@pytest.mark.criterion(4, "d^3 = 0 on random forms; image containments")
def test_criterion_04_third_power_vanishes():
    rng = random.Random(2027)
    count = 0
    for _ in range(500):
        n = rng.choice((2, 3))
        w = _rand_form(rng, n, max_degree=2)
        # d^3 w == 0; d^2(d w) and d(d^2 w) are the same value, so this is
        # also both image containments (im d in ker d^2, im d^2 in ker d)
        assert w.d().d().d().is_zero()
        count += 1
    assert count == 500


@pytest.mark.criterion(5, "worked second-differential expansions")
def test_criterion_05_worked_expansions():
    for x, want in WORKED_SECOND_DIFFERENTIALS.values():
        assert x.d().d() == want


def abelianize(table) -> dict:
    """Re-normalize every entry's words with commuting coefficients."""
    return {key: CoeffExpr([(c, w) for w, c in value.terms.items()], True)
            for key, value in table.items()}


def _difference(a, b, commutative: bool) -> dict:
    zero = CoeffExpr.zero(commutative)
    return {key: a.get(key, zero) - b.get(key, zero) for key in set(a) | set(b)}


def _vanishes_modulo_commutators(a, b) -> bool:
    """a != b exactly, but a == b once the coefficients commute."""
    return not tables_equal(a, b) and tables_equal(abelianize(a), abelianize(b))


@pytest.mark.criterion(6, "curvature sector decomposition (noncommutative)")
def test_criterion_06_curvature_decomposition():
    for n in (2, 3, 4):
        conn = generic_connection(n)
        comp = curvature_components(conn)
        # two-generator sector: the field strength, verbatim
        assert tables_equal(comp.T21, field_strength(conn))
        # three-generator sector: the mixed-order cubic table, exactly
        lhs = cyclic_symmetrize(comp.T3)
        assert tables_equal(
            lhs, cyclic_symmetrize_raw(true_curvature_table(conn), n, False)
        ), f"n={n}: the dx-sector is not the image of the mixed-order table"
        # the left-ordered table: exact for commuting coefficients
        cab = abelian_connection(n)
        comp_ab = curvature_components(cab)
        assert tables_equal(
            cyclic_symmetrize(comp_ab.T3),
            cyclic_symmetrize_raw(reference_curvature_table(cab), n, True),
        ), f"n={n}: the left-ordered table misses the abelian dx-sector"
        # ... and off by a quadratic commutator artifact otherwise
        ref = cyclic_symmetrize_raw(reference_curvature_table(conn), n, False)
        diff = _difference(lhs, ref, False)
        assert _vanishes_modulo_commutators(lhs, ref), (
            f"n={n}: the left-ordered table must differ from the dx-sector "
            "exactly by terms that vanish for commuting coefficients"
        )
        assert {len(w) for v in diff.values() for w in v.terms} == {2}, (
            f"n={n}: the left-ordered artifact is not purely quadratic"
        )


@pytest.mark.criterion(7, "cyclic covariant-derivative identity")
def test_criterion_07_covariant_identity():
    # the numeric real/imaginary split of the combination, to 1e-12
    assert_cyclic_combination_splits(random.Random(2028))
    for n in (2, 3):
        # exact identity for commuting coefficients
        cab = abelian_connection(n)
        comp_ab = curvature_components(cab)
        assert tables_equal(
            cyclic_symmetrize(comp_ab.T3),
            cyclic_symmetrize_raw(covariant_cyclic_combination(cab), n, True),
        ), f"n={n}: the commutative cyclic identity fails"
        # identity modulo commutators for noncommuting coefficients
        conn = generic_connection(n)
        comp = curvature_components(conn)
        S = cyclic_symmetrize(comp.T3)
        comb = cyclic_symmetrize_raw(
            covariant_cyclic_combination(conn), n, False
        )
        assert _vanishes_modulo_commutators(S, comb), (
            f"n={n}: the symmetrized curvature must differ from the cyclic "
            "adjoint-derivative combination exactly by commutator terms"
        )


@pytest.mark.criterion(8, "pure-gauge flatness and gauge covariance")
def test_criterion_08_pure_gauge():
    from z3forms import components
    from z3forms.gauge import conjugate_table_by_u

    # commuting-coefficient flatness, the vanishing two-generator sector,
    # and field-strength-sector covariance
    for n in (2, 3):
        assert curvature(pure_gauge_connection(n, commutative=True)).is_zero()
    pg = pure_gauge_connection(2)
    assert all(v.is_zero() for v in components(curvature(pg)).T21.values())
    conn = generic_connection(2)
    comp = curvature_components(conn)
    comp_t = curvature_components(gauge_transform(conn))
    assert tables_equal(comp_t.T21, conjugate_table_by_u(comp.T21, False))
    # noncommuting U: the curvature of D = d + A. is what D^3 multiplies by,
    # a nonzero pure dx-sector cubic in Uinv U_,a that vanishes abelianized
    for n in (2, 3):
        pg = pure_gauge_connection(n)
        omega = curvature(pg)
        phi = matter_field(n)
        d3 = covariant_differential(
            pg, covariant_differential(pg, covariant_differential(pg, phi))
        )
        assert d3 == omega * phi, f"n={n}: D^3 Phi != Omega Phi (pure gauge)"
        comp_pg = components(omega)
        assert not omega.is_zero()
        assert tables_equal(comp_pg.T21, {}), (
            f"n={n}: the pure-gauge curvature leaks into the ddx-sector"
        )
        for value in comp_pg.T3.values():
            for word in value.terms:
                assert [(s.name, len(s.derivs)) for s in word] == [
                    ("Uinv", 0), ("U", 1)
                ] * 3, f"n={n}: unexpected pure-gauge curvature word {word}"
        assert tables_equal(abelianize(comp_pg.T3), {}), (
            f"n={n}: the pure-gauge curvature survives abelianization"
        )
    # cubic-sector covariance: exact for commuting coefficients ...
    n = 2
    cab = abelian_connection(n)
    comp_ab = curvature_components(cab)
    comp_ab_t = curvature_components(gauge_transform(cab))
    assert tables_equal(
        cyclic_symmetrize(comp_ab_t.T3),
        cyclic_symmetrize_raw(
            conjugate_table_by_u(
                dict(cyclic_symmetrize(comp_ab.T3)), True
            ),
            n,
            True,
        ),
    ), "the cubic sector does not conjugate covariantly for commuting U"
    # ... and modulo commutators otherwise
    lhs = cyclic_symmetrize(comp_t.T3)
    rhs = cyclic_symmetrize_raw(
        conjugate_table_by_u(dict(cyclic_symmetrize(comp.T3)), False),
        n,
        False,
    )
    assert tables_equal(abelianize(lhs), abelianize(rhs)), (
        "the non-covariant part of the cubic sector survives abelianization"
    )


@pytest.mark.criterion(9, "third covariant power acts as multiplication by curvature")
def test_criterion_09_matter_identity():
    for n in (2, 3):
        conn = generic_connection(n)
        phi = matter_field(n)
        d3 = covariant_differential(
            conn,
            covariant_differential(conn, covariant_differential(conn, phi)),
        )
        assert d3 == curvature(conn) * phi


@pytest.mark.criterion(10, "Lagrangian constants and derivative-sector ratio")
def test_criterion_10_lagrangian_constants(acceptance_notes):
    for n in (2, 3):
        rep = lagrangian_report(n)
        assert rep.exact
        assert rep.ratio == Scalar(-2)
        assert not rep.c3.is_zero()
        assert rep.shapes_degenerate
        acceptance_notes(
            f"criterion 10, n={n}: derived constants "
            f"({rep.c1}, {rep.c2}, {rep.c3}*mu) next to the reference "
            f"({rep.reference[0]}, {rep.reference[1]}, {rep.reference[2]}*mu); "
            "overall sector factors differ (2 on the derivative sector, 4 on "
            "the weight sector), the ratio -2 is exact"
        )
        assert (rep.c1, rep.c2) == (
            Scalar(Fraction(2, 3)),
            Scalar(Fraction(-1, 3)),
        )


@pytest.mark.criterion(11, "field-equation reduction and variation shape")
def test_criterion_11_field_equation(acceptance_notes):
    for n in (2, 3):
        conn = abelian_connection(n)
        for k in range(1, n + 1):
            diff = reference_field_equation(conn, k) - biharmonic_reference(conn, k)
            assert lorenz_reduce(diff, n).is_zero()
    for n in (2, 3):
        rep = field_equation_report(n)
        assert rep.exact
        assert (rep.alpha, rep.gamma) == (Scalar(2), Scalar(-4))
        acceptance_notes(
            f"criterion 11, n={n}: variation = {rep.alpha} * Lap(div F) "
            f"+ {rep.gamma} * mu * (div F); reference three-term shape "
            f"constants ({rep.reference[0]}, {rep.reference[1]}, "
            f"{rep.reference[2]}*mu), middle term identically zero for "
            "commuting coefficients; shapes match up to one overall "
            "constant per sector"
        )


@pytest.mark.criterion(12, "CLI round-trip, deterministic reports, exit codes")
def test_criterion_12_cli(capsys):
    ctx = EvalContext(n=4)
    for text in CORPUS:
        first = print_canonical(evaluate_text(text, ctx))
        second = print_canonical(evaluate_text(first, ctx))
        assert first == second
    assert len(CORPUS) >= 50
    a = run_verify("all", seed=9, cases=2)
    b = run_verify("all", seed=9, cases=2)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()
    assert main(["normalize", "-e", "dx[1]"]) == 0
    assert main(["normalize", "-e", "dx[1"]) == 2
    assert main(["verify", "scalar", "--cases", "2"]) == 0
    assert main(["verify", "gauge", "--cases", "2"]) == 1
    assert main(["verify", "bogus"]) == 2
    capsys.readouterr()
