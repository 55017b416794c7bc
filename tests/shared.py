"""Test data, the law kit, and the helpers of the test modules that need
no hypothesis.

The seeded tests draw their values from the generators of
``z3forms.verify`` (``_rand_scalar``, ``_rand_form``, ``_rand_degree3``,
``_rand_matrix`` and ``_rand_homogeneous_matrix``) wherever those draw
the family a test needs; the generators here draw the families that
verify's do not.  This module uses only the standard library and
``z3forms``; the hypothesis strategies live in ``strategies.py``.

The law kit states each law of a graded q-differential algebra once
(Dubois-Violette, *Generalized homologies for d^N = 0 and graded
q-differential algebras*, 1998), as a ``check_*`` function below of an
``Algebra`` record (``MATRIX``, ``FORMS``, ``GRASSMANN``) and values of
it; every law runs once on every model (``strategies.Model``, an
algebra with its strategies) it applies to, in ``test_laws.py`` or in
the named property test its ``RUN_BY_NAME`` table points to, and the
seeded tests of each model call the same checks on verify's generators.
A form's grade here is its degree, and degrees add as integers up to the
top degree 3: past it a product is 0, and so is ``d`` of a degree-3
form.  ``im d^k ⊆ ker d^(N-k)`` needs no check of its own, because
``d^(N-k)(d^k x)`` is ``d^N x``.  Forms satisfy the Leibniz rule for
left factors whose words end in a generator: ``Form.d`` differentiates a
coefficient run as one block, so a bare-coefficient left factor leaves
the exact residual that ``test_forms.py::test_product_rule_seam_residual``
pins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

from z3forms import (
    CoeffExpr,
    Form,
    GradedMatrix,
    GrassElement,
    JetSymbol,
    coefficient_form,
    coordinate,
    covariant_derivative_F,
    ddx,
    dx,
    generic_connection,
)
from z3forms.forms import redistribute_t3
from z3forms.gauge import covariant_cyclic_combination, cyclic_symmetrize_raw
from z3forms.matrices import eta_differential
from z3forms.scalar import J, ONE, ZERO, Scalar
from z3forms.verify import _rand_scalar, _rand_word_run

F, G = JetSymbol("f"), JetSymbol("g")
U, UINV = JetSymbol("U"), JetSymbol("Uinv")
BU, BUINV = JetSymbol("U", barred=True), JetSymbol("Uinv", barred=True)
X1, X2 = JetSymbol("x", 1), JetSymbol("x", 2)


def jet_key(sym: JetSymbol) -> tuple:
    """The canonical letter order, from the public attributes: by name, then
    index (none before 0), then derivative indices, then bar."""
    return (sym.name, -1 if sym.index is None else sym.index, sym.derivs, sym.barred)

#: The expression corpus of the round-trip, golden and acceptance tests.
# Every syntax-tree node kind appears below: numeric literals, phase
# literals, symbols (indexed, with derivative lists, barred), generators,
# ternary generators, the differential (applied and directional), the
# conjugate-side builder, products, signed sums, and matrix literals.
CORPUS = [
    # literals and scalars
    "0",
    "1",
    "-5",
    "2/3",
    "-7/4",
    "j",
    "j^2",
    "1 + j",
    "2 - j",
    "1/2 + 1/2 j",
    "(1 + j) (1 - j)",
    # coefficient symbols and jet words
    "f",
    "~f",
    "A[1]",
    "A[2]_,1,2",
    "~A[1]_,2",
    "f_,1,1",
    "f g",
    "g f",
    "f * g",
    "2 f - 3 g",
    "x[1]",
    "x[2] x[1]",
    "U Uinv",
    "Uinv U f",
    "mu",
    "f mu",
    "mu f g",
    # generators and forms
    "dx[1]",
    "ddx[2]",
    "dx[1] dx[2]",
    "dx[2] dx[3] dx[1]",
    "dx[1] dx[1] dx[1]",
    "ddx[1] dx[2]",
    "dx[1] ddx[2]",
    "ddx[1] ddx[2]",
    "f dx[1]",
    "f dx[1] g dx[2]",
    "f dx[1] g dx[2] dx[3]",
    "dx[1] + dx[2]",
    "dx[1] + ddx[1]",
    "-2/3 dx[1]",
    "j dx[1] dx[2]",
    "(f + g) dx[1]",
    "x[1] dx[2]",
    # ternary generators
    "th[1]",
    "bth[2]",
    "th[1] th[2]",
    "th[2] th[1]",
    "bth[1] th[1]",
    "th[1] th[2] th[3]",
    "th[1] th[1] th[1]",
    # the differential
    "d(f)",
    "d(d(f))",
    "d(d(d(f)))",
    "d(x[1] x[2])",
    "d(f dx[1])",
    "d(d(x[1] dx[2]))",
    "d(U x[1] Uinv)",
    "d(d(U x[1] Uinv dx[2]))",
    "d(A[1] dx[1])",
    "d[1](f)",
    "d[2](f g)",
    "d[1](Uinv)",
    # conjugate side
    "delta(dx[1] dx[2] dx[3])",
    "delta(f dx[1] dx[2] dx[3])",
    "delta(ddx[1] dx[2])",
    "j delta(dx[1] dx[2] dx[3])",
    "delta(dx[1] dx[2] dx[3]) + delta(ddx[2] dx[1])",
    # matrices
    "mat[0, 1, 0; 0, 0, 1; 1, 0, 0]",
    "mat[1, 0, 0; 0, 1, 0; 0, 0, 1]",
    "mat[0, j, 0; 0, 0, 1 - j; 1/2, 0, 0]",
    "d(mat[0, 1, 0; 0, 0, 0; 0, 0, 0])",
    "mat[0, 1, 0; 0, 0, 1; 1, 0, 0] mat[0, 1, 0; 0, 0, 1; 1, 0, 0]",
    # conjugate side: barred jets, antilinear scaling, d of delta, U and
    # Uinv runs, mu, reordered generators, cancellation
    "delta(~f (A[1]_,2) dx[2] dx[1] dx[1])",
    "(1 - j) delta(ddx[2] dx[1]) - delta(f g ddx[1] dx[2])",
    "d(delta(dx[1] dx[2] dx[3]))",
    "delta(U x[1] Uinv dx[1] dx[2] dx[3])",
    "delta(mu f dx[1] dx[2] dx[3]) + delta(ddx[1] dx[1])",
    "delta(f dx[1] ddx[2])",
    "delta(f_,1 dx[3] dx[2] dx[1] + (2 + j) g ddx[3] dx[3])",
    "delta(f dx[1] dx[2] dx[3]) - delta(f dx[1] dx[2] dx[3])",
]


# -- seeded generators --------------------------------------------------------


def rand_scalar(rng: random.Random) -> Scalar:
    """A Q(j) scalar whose components have numerators up to 12 and
    denominators 1..5."""
    return Scalar(Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
                  Fraction(rng.randint(-12, 12), rng.randint(1, 5)))


def rand_generator_tailed(rng: random.Random, n: int) -> Form:
    """A form of 1-2 terms whose words end in a generator."""
    return Form(n, [(_rand_scalar(rng, 3),
                     _rand_word_run(rng) + (("dx" if rng.random() < 0.7 else "ddx",
                                             rng.randint(1, n)),))
                    for _ in range(rng.randint(1, 2))])


def rand_coeff(rng: random.Random, commutative: bool = False) -> CoeffExpr:
    """1-3 terms over jets of f, g and h with up to two derivatives each."""
    names = ["f", "g", "h"]
    return CoeffExpr([(_rand_scalar(rng, 3), tuple(
        JetSymbol(rng.choice(names), derivs=tuple(
            rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
        for _ in range(rng.randint(1, 3)))) for _ in range(rng.randint(1, 3))], commutative)


def unit_matrix(a: int, b: int) -> GradedMatrix:
    rows = [[ZERO] * 3 for _ in range(3)]
    rows[a][b] = ONE
    return GradedMatrix(rows)


# -- the Fraction-pair model of Q(j): (a, b) means a + b*j ----------------------


def ref(x: Scalar) -> tuple[Fraction, Fraction]:
    return (x.a, x.b)


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    a, b, c, d = x[0], x[1], y[0], y[1]
    return (a * c - b * d, a * d + b * c - b * d)


def ref_conjugate(x):
    return (x[0] - x[1], -x[1])


def ref_norm(x):
    a, b = x
    return a * a - a * b + b * b


def ref_inverse(x):
    n = ref_norm(x)
    c = ref_conjugate(x)
    return (c[0] / n, c[1] / n)


# -- worked examples ------------------------------------------------------------------


def _worked_second_differentials(n: int) -> dict[str, tuple[Form, Form]]:
    idx = range(1, n + 1)
    f = coefficient_form(CoeffExpr.from_symbol(F), n)
    d2f = Form(n, [(ONE, (JetSymbol("f", derivs=(i, k)), ("dx", k), ("dx", i)))
                   for k, i in product(idx, repeat=2)]
              + [(ONE, (JetSymbol("f", derivs=(i,)), ("ddx", i))) for i in idx])
    om = Form(n, [(ONE, (JetSymbol("w", k), ("dx", k))) for k in idx])
    d2om = Form(n, [(ONE, (JetSymbol("w", k, (i, m)), ("dx", m), ("dx", i), ("dx", k)))
                    for m, i, k in product(idx, repeat=3)]
                + [(s, (JetSymbol("w", a, (b,)), ("ddx", i), ("dx", k)))
                   for i, k in product(idx, repeat=2) for s, a, b in ((ONE, k, i), (-ONE, i, k))])
    return {
        "f": (f, d2f),
        "x[1] dx[2]": (coordinate(1, n) * dx(2, n), ddx(1, n) * dx(2, n) - ddx(2, n) * dx(1, n)),
        # the generic one-form, with its antisymmetric two-generator block
        "w[k] dx[k]": (om, d2om),
    }


#: Worked second differentials at n = 3: name -> (form, d^2 of it written out).
WORKED_SECOND_DIFFERENTIALS = _worked_second_differentials(3)

JC = complex(-0.5, math.sqrt(3) / 2)  # numeric image of j


class RandomAssignment(dict):
    """Lazily assigns a random complex value to each jet symbol."""

    def __init__(self, rng: random.Random) -> None:
        super().__init__()
        self.rng = rng

    def __missing__(self, sym) -> complex:
        v = complex(self.rng.uniform(-1, 1), self.rng.uniform(-1, 1))
        self[sym] = v
        return v


def numeric_value(expr: CoeffExpr, assignment: RandomAssignment) -> complex:
    total = 0j
    for word, coeff in expr.terms.items():
        val = complex(*coeff.embed_complex())
        for sym in word:
            val *= assignment[sym]
        total += val
    return total


def assert_cyclic_combination_splits(rng: random.Random) -> None:
    """(1/3)(j a + j^2 b) == -(a + b)/6 + i sqrt(3) (a - b)/6 on the
    covariant-derivative tables of the generic connection at n = 2, and the
    cyclic combination takes that value, at random complex values of the
    symbols, to 1e-12."""
    n = 2
    conn = generic_connection(n)
    DF = covariant_derivative_F(conn)
    comb = covariant_cyclic_combination(conn)
    assignment = RandomAssignment(rng)
    zero = CoeffExpr.zero(False)
    for i, k, m in product(range(1, n + 1), repeat=3):
        va = numeric_value(DF[(i, m, k)], assignment)
        vb = numeric_value(DF[(k, m, i)], assignment)
        lhs = (JC * va + JC * JC * vb) / 3
        rhs = -(va + vb) / 6 + 1j * math.sqrt(3) * (va - vb) / 6
        assert abs(lhs - rhs) < 1e-12
        ventry = numeric_value(comb.get((i, k, m), zero), assignment)
        assert abs(ventry - lhs) < 1e-12


# -- two-pass references of the gauge and action layer ---------------------------


def two_pass_symmetrize(T3: Mapping[tuple, CoeffExpr], n: int, commutative: bool) -> dict:
    """Reference: redistribute over full triples, then apply the projector."""
    return cyclic_symmetrize_raw(redistribute_t3(T3), n, commutative)


def assert_same_table(got: Mapping, want: Mapping) -> None:
    assert list(got) == list(want)
    assert got == want


def two_pass_variation(L: CoeffExpr, n: int, base: str = "A") -> dict[int, CoeffExpr]:
    """Reference: for each p, rescan L once per jet of base[p] that occurs."""
    out = {}
    for p in range(1, n + 1):
        alphas = {sym.derivs for word, _ in L for sym in word
                  if sym.name == base and sym.index == p}
        acc = CoeffExpr.zero(True)
        for alpha in alphas:
            target = JetSymbol(base, p, alpha)
            items = [(coeff, word[:pos] + word[pos + 1 :])
                     for word, coeff in L
                     for pos, sym in enumerate(word) if sym == target]
            term = CoeffExpr(items, True)
            for q in alpha:
                term = term.derive(q)
            if len(alpha) % 2 == 1:
                term = term.scale(-ONE)
            acc = acc + term
        out[p] = acc
    return out


# -- the law kit -----------------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    """A graded q-differential algebra as the laws see it.  The product is
    ``*``.  Grades add modulo N, or, when the algebra has a ``top`` grade,
    as integers, and a value past ``top`` is 0.  Without ``d`` only the
    product laws apply; with it, ``witness`` has d^(N-1) != 0."""

    name: str
    grade: Callable
    top: int | None = None
    N: int = 3
    q: Scalar = J
    d: Callable | None = None
    witness: object = None


MATRIX = Algebra("matrix", GradedMatrix.grade_of, d=eta_differential, witness=unit_matrix(0, 1))
FORMS = Algebra("forms", lambda x: x.grade_and_degree()[1], top=3, d=Form.d,
                witness=Form(2, [(ONE, (F,))]))
GRASSMANN = Algebra("grassmann", GrassElement.grade)


def _iterate(step, k: int, x):
    """``step`` applied ``k`` times to ``x``."""
    for _ in range(k):
        x = step(x)
    return x


def _check_grade(algebra: Algebra, value, g: int) -> None:
    """``value`` has grade g, or is 0; past the top grade it is 0."""
    if algebra.top is None:
        g %= algebra.N
    elif g > algebra.top:
        assert value.is_zero(), f"a value of grade {g} > {algebra.top} is not 0"
        return
    assert value.is_zero() or algebra.grade(value) == g


def check_d_raises_grade(algebra: Algebra, x) -> None:
    """d sends a homogeneous x of grade g to grade g + 1, or to 0."""
    _check_grade(algebra, algebra.d(x), algebra.grade(x) + 1)


def check_d_nilpotent(algebra: Algebra, x) -> None:
    """d^N x = 0."""
    assert _iterate(algebra.d, algebra.N, x).is_zero()


def check_d_order_is_N(algebra: Algebra) -> None:
    """d^(N-1) is not 0 on the algebra's witness."""
    assert not _iterate(algebra.d, algebra.N - 1, algebra.witness).is_zero()


def check_grades_add(algebra: Algebra, x, y) -> None:
    """The product of homogeneous x and y has grade |x| + |y|, or is 0."""
    _check_grade(algebra, x * y, algebra.grade(x) + algebra.grade(y))


def check_associative(algebra: Algebra, x, y, z) -> None:
    """(xy)z = x(yz); the product is ``*`` in every algebra."""
    assert (x * y) * z == x * (y * z)


def check_twisted_leibniz(algebra: Algebra, x, y) -> None:
    """d(xy) = d(x) y + q^|x| x d(y) for a homogeneous x."""
    d, phase = algebra.d, _iterate(algebra.q.__mul__, algebra.grade(x), ONE)
    assert d(x * y) == d(x) * y + (x * d(y)).scale(phase)
