"""Property tests for the sparse elimination core of ``z3forms.action``.

``solve_linear``, ``_echelon`` and ``_reduce`` work on sparse vectors:
dicts from arbitrary hashable keys to nonzero Scalars.  These tests check
them on generated systems over Q(j) against a dense reference written
here: Gauss elimination on rows of ``Fraction`` pairs, with the Q(j)
arithmetic of the reference model in ``shared``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from strategies import (  # noqa: E402
    PROPERTY,
    four_scalars,
    outside_span,
    pivot_rules,
    systems,
    vectors,
)

from shared import ref, ref_inverse, ref_mul, ref_sub  # noqa: E402
from z3forms.action import _echelon, _reduce, solve_linear  # noqa: E402
from z3forms.lincomb import accumulate  # noqa: E402
from z3forms.scalar import ZERO, Scalar  # noqa: E402


# -- dense reference ---------------------------------------------------------------


def ref_rank(vecs: list[dict]) -> int:
    """Rank of the vectors by Gauss elimination on dense Fraction-pair rows."""
    keys = list({k for v in vecs for k in v})
    zero = (Fraction(0), Fraction(0))
    rows = [[ref(v[k]) if k in v else zero for k in keys] for v in vecs]
    rank = 0
    for col in range(len(keys)):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col] != zero), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = ref_inverse(rows[rank][col])
        rows[rank] = [ref_mul(e, inv) for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != zero:
                f = rows[r][col]
                rows[r] = [ref_sub(e, ref_mul(f, p)) for e, p in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def combination(coeffs: list[Scalar], vecs: list[dict]) -> dict:
    out: dict = {}
    for c, v in zip(coeffs, vecs):
        for k, e in v.items():
            accumulate(out, k, c * e)
    return out


# -- solve_linear ------------------------------------------------------------------


@PROPERTY
@given(systems, four_scalars)
def test_solve_recovers_planted_solution(columns, coeffs):
    planted = coeffs[:len(columns)]
    assume(ref_rank(columns) == len(columns))
    assert solve_linear(columns, combination(planted, columns)) == planted


@PROPERTY
@given(systems, four_scalars, vectors)
def test_solve_rejects_dependent_columns(columns, coeffs, target):
    dependent = columns + [combination(coeffs, columns)]
    assert ref_rank(dependent) < len(dependent)
    assert solve_linear(dependent, target) is None
    assert solve_linear(dependent, combination(coeffs, columns)) is None


@PROPERTY
@given(outside_span())
def test_solve_rejects_target_outside_span(case):
    columns, target = case
    assert set(target) <= {k for col in columns for k in col}
    rank = ref_rank(columns)
    assume(rank == len(columns) and ref_rank(columns + [target]) > rank)
    assert solve_linear(columns, target) is None


# -- _echelon and _reduce ----------------------------------------------------------


@PROPERTY
@given(systems, vectors, pivot_rules)
def test_reduce_is_zero_exactly_on_the_span(vecs, vec, pivot_of):
    rows = _echelon(vecs, pivot_of)
    assert len(rows) == ref_rank(vecs)
    in_span = ref_rank(vecs + [vec]) == len(rows)
    assert (not _reduce(vec, rows)) == in_span


@PROPERTY
@given(systems, vectors, pivot_rules)
def test_residue_avoids_every_pivot(vecs, vec, pivot_of):
    rows = _echelon(vecs, pivot_of)
    for p, row in rows.items():
        assert row[p] == Scalar(1)
        assert all(q not in row for q in rows if q != p)
    residue = _reduce(vec, rows)
    assert not set(residue) & set(rows)
    assert ZERO not in residue.values()
    # the residue differs from vec by an element of the span
    diff = combination([Scalar(1), Scalar(-1)], [residue, vec])
    assert not diff or ref_rank(vecs + [diff]) == len(rows)
