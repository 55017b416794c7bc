"""Property tests for the graded 3x3 matrix model.

``GradedMatrix`` stores a matrix as its three grade components.  These
tests check it against a dense reference written here: 3x3 rows of
Scalars with the textbook row-by-column product, and the differential
computed as ``ETA*B - j^g B*ETA`` on every graded part.  They also check
``d^3 = 0`` and the graded Leibniz rule on generated matrices.  Example
generation is derandomized so that every run checks the same cases.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from z3forms.matrices import ETA, GradedMatrix, eta_differential, grade_of  # noqa: E402
from z3forms.scalar import ONE, ZERO, Scalar, jpow  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# Drawing from a fixed pool keeps example generation cheap.  Zero entries
# are drawn often, so that zero and partly zero parts occur.
POOL = [Scalar(Fraction(a, r), Fraction(b, s))
        for a in range(-4, 5) for b in (-3, 0, 1, 2) for r in (1, 2) for s in (1, 3)]
entries = st.one_of(st.just(ZERO), st.sampled_from(POOL))
triples = st.tuples(entries, entries, entries)
dense_rows = st.tuples(triples, triples, triples)
matrices = st.builds(GradedMatrix, dense_rows)
grades = st.integers(0, 2)
homogeneous = st.tuples(grades, triples).map(
    lambda g_entries: (g_entries[0], GradedMatrix.homogeneous(*g_entries)))


# -- dense reference: a matrix is a list of three rows of Scalars ---------------


def dense(m: GradedMatrix) -> list[list[Scalar]]:
    return [list(row) for row in m.rows]


def ref_mul(x, y):
    out = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for k in range(3):
            for l in range(3):
                out[i][k] = out[i][k] + x[i][l] * y[l][k]
    return out


def ref_add(x, y):
    return [[x[i][k] + y[i][k] for k in range(3)] for i in range(3)]


def ref_scale(x, s):
    return [[e * s for e in row] for row in x]


def ref_part(x, g):
    return [[x[i][k] if (k - i) % 3 == g else ZERO for k in range(3)] for i in range(3)]


def ref_grade(x):
    grades = {(k - i) % 3 for i in range(3) for k in range(3) if not x[i][k].is_zero()}
    if not grades:
        return 0
    return grades.pop() if len(grades) == 1 else "mixed"


def ref_d(x):
    eta = dense(ETA)
    out = [[ZERO] * 3 for _ in range(3)]
    for g in range(3):
        part = ref_part(x, g)
        out = ref_add(out, ref_add(ref_mul(eta, part),
                                   ref_scale(ref_mul(part, eta), -jpow(g))))
    return out


def same(m: GradedMatrix, x) -> bool:
    return dense(m) == x


# -- agreement with the dense reference ------------------------------------------


@PROPERTY
@given(matrices, matrices)
def test_product_matches_dense(b, c):
    assert same(b * c, ref_mul(dense(b), dense(c)))


@PROPERTY
@given(matrices, matrices)
def test_sum_and_difference_match_dense(b, c):
    assert same(b + c, ref_add(dense(b), dense(c)))
    assert same(b - c, ref_add(dense(b), ref_scale(dense(c), -ONE)))
    assert same(-b, ref_scale(dense(b), -ONE))
    assert (b - b).is_zero()


@PROPERTY
@given(matrices, entries)
def test_scale_matches_dense(b, s):
    assert same(b.scale(s), ref_scale(dense(b), s))


@PROPERTY
@given(matrices)
def test_differential_matches_dense(b):
    assert same(eta_differential(b), ref_d(dense(b)))


@PROPERTY
@given(matrices)
def test_grade_and_parts_match_dense(b):
    x = dense(b)
    assert grade_of(b) == b.grade_of() == ref_grade(x)
    parts = b.graded_parts()
    want = {g for g in range(3)
            if any(not e.is_zero() for row in ref_part(x, g) for e in row)}
    assert set(parts) == want
    for g, part in parts.items():
        assert same(part, ref_part(x, g))
        assert grade_of(part) == g
    assert b.is_zero() == (not parts)


@PROPERTY
@given(dense_rows)
def test_rows_round_trip(rows):
    m = GradedMatrix(rows)
    assert m.rows == tuple(tuple(r) for r in rows)
    assert GradedMatrix(m.rows) == m
    assert GradedMatrix.from_rows(m.rows) == m
    assert repr(m) == f"GradedMatrix({m.rows!r})"


@PROPERTY
@given(matrices, matrices)
def test_equality_and_hash_agree(b, c):
    assert (b == c) == (b.rows == c.rows)
    if b == c:
        assert hash(b) == hash(c)
    # a matrix rebuilt from differently built zero entries is the same matrix
    rebuilt = GradedMatrix([[Scalar(Fraction(e.a), Fraction(e.b)) for e in row]
                            for row in b.rows])
    assert rebuilt == b and hash(rebuilt) == hash(b)


def test_constructors_match_dense():
    assert dense(GradedMatrix.zero()) == [[ZERO] * 3 for _ in range(3)]
    assert dense(GradedMatrix.identity()) == [
        [ONE if i == k else ZERO for k in range(3)] for i in range(3)
    ]
    assert dense(ETA) == [[ONE if k == (i + 1) % 3 else ZERO for k in range(3)]
                          for i in range(3)]
    assert GradedMatrix.homogeneous(2, (ZERO, ZERO, ZERO)) == GradedMatrix.zero()


# -- the calculus on generated matrices ------------------------------------------


@PROPERTY
@given(matrices)
def test_differential_cubes_to_zero(b):
    assert eta_differential(eta_differential(eta_differential(b))).is_zero()


@PROPERTY
@given(homogeneous, matrices)
def test_graded_leibniz(gb_b, c):
    gb, b = gb_b
    lhs = eta_differential(b * c)
    rhs = eta_differential(b) * c + (b * eta_differential(c)).scale(jpow(gb))
    assert lhs == rhs


@PROPERTY
@given(homogeneous, homogeneous)
def test_grades_add_under_product(gb_b, gc_c):
    (gb, b), (gc, c) = gb_b, gc_c
    p = b * c
    assert p.is_zero() or grade_of(p) == (gb + gc) % 3
