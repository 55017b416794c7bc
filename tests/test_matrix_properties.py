"""Property tests for the graded 3x3 matrix model.

``GradedMatrix`` stores a matrix as its nonzero entries keyed by grade
and row.  These tests check it against a dense reference written here:
3x3 rows of Scalars with the textbook row-by-column product, and the
differential computed as ``ETA*B - j^g B*ETA`` on every graded part.
The laws of the calculus are the kit's checks in ``shared.py``, run by
``test_laws.py``; on matrices, ``d^3 = 0``, the grading and the graded
Leibniz rule run here instead, on generated matrices.
Example generation is derandomized so that every run checks the same
cases.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from strategies import PROPERTY, dense_rows, entries, homogeneous, matrices  # noqa: E402

from shared import MATRIX, check_d_nilpotent, check_grades_add, check_twisted_leibniz  # noqa: E402
from z3forms.matrices import ETA, GradedMatrix, eta_differential  # noqa: E402
from z3forms.scalar import ONE, ZERO, Scalar, jpow  # noqa: E402


# -- dense reference: a matrix is a list of three rows of Scalars ---------------


def dense(m: GradedMatrix) -> list[list[Scalar]]:
    return [list(row) for row in m.rows]


def dense_mul(x, y):
    out = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for k in range(3):
            for l in range(3):
                out[i][k] = out[i][k] + x[i][l] * y[l][k]
    return out


def dense_add(x, y):
    return [[x[i][k] + y[i][k] for k in range(3)] for i in range(3)]


def dense_scale(x, s):
    return [[e * s for e in row] for row in x]


def dense_part(x, g):
    return [[x[i][k] if (k - i) % 3 == g else ZERO for k in range(3)] for i in range(3)]


def dense_grade(x):
    grades = {(k - i) % 3 for i in range(3) for k in range(3) if not x[i][k].is_zero()}
    if not grades:
        return 0
    return grades.pop() if len(grades) == 1 else "mixed"


def dense_d(x):
    eta = dense(ETA)
    out = [[ZERO] * 3 for _ in range(3)]
    for g in range(3):
        part = dense_part(x, g)
        out = dense_add(out, dense_add(dense_mul(eta, part),
                                   dense_scale(dense_mul(part, eta), -jpow(g))))
    return out


def same(m: GradedMatrix, x) -> bool:
    return dense(m) == x


# -- agreement with the dense reference ------------------------------------------


@PROPERTY
@given(matrices, matrices)
def test_product_matches_dense(b, c):
    assert same(b * c, dense_mul(dense(b), dense(c)))


@PROPERTY
@given(matrices, matrices)
def test_sum_and_difference_match_dense(b, c):
    assert same(b + c, dense_add(dense(b), dense(c)))
    assert same(b - c, dense_add(dense(b), dense_scale(dense(c), -ONE)))
    assert same(-b, dense_scale(dense(b), -ONE))
    assert (b - b).is_zero()


@PROPERTY
@given(matrices, entries)
def test_scale_matches_dense(b, s):
    assert same(b.scale(s), dense_scale(dense(b), s))


@PROPERTY
@given(matrices)
def test_differential_matches_dense(b):
    assert same(eta_differential(b), dense_d(dense(b)))


@PROPERTY
@given(matrices)
def test_grade_and_parts_match_dense(b):
    x = dense(b)
    assert b.grade_of() == dense_grade(x)
    parts = b.graded_parts()
    want = {g for g in range(3)
            if any(not e.is_zero() for row in dense_part(x, g) for e in row)}
    assert set(parts) == want
    for g, part in parts.items():
        assert same(part, dense_part(x, g))
        assert part.grade_of() == g
    assert b.is_zero() == (not parts)


@PROPERTY
@given(dense_rows)
def test_rows_round_trip(rows):
    m = GradedMatrix(rows)
    assert m.rows == tuple(tuple(r) for r in rows)
    assert GradedMatrix(m.rows) == m
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


# -- the kit's laws on generated matrices ----------------------------------------


@PROPERTY
@given(matrices)
def test_differential_cubes_to_zero(b):
    check_d_nilpotent(MATRIX, b)


@PROPERTY
@given(homogeneous, matrices)
def test_graded_leibniz(b, c):
    check_twisted_leibniz(MATRIX, b, c)


@PROPERTY
@given(homogeneous, homogeneous)
def test_grades_add_under_product(b, c):
    check_grades_add(MATRIX, b, c)
