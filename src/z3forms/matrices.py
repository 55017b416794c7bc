"""Graded algebra of 3x3 matrices over Q(j).

The grade of a matrix is read off its support pattern:

* grade 0: diagonal entries only;
* grade 1: entries only at (1,2), (2,3), (3,1)  (1-based);
* grade 2: entries only at (1,3), (2,1), (3,2).

The three patterns partition the nine cells, so every matrix decomposes
uniquely into graded parts.  A ``GradedMatrix`` is a ``lincomb`` value
that stores exactly that decomposition: ``terms[(g, i)]`` is the nonzero
entry at (i, i+g mod 3) (0-based).  A product of entries of grades a and
b lands in grade a+b: ``(a, i)`` times ``(b, (i+a) mod 3)`` goes to
``(a+b, i)``.  The cyclic step matrix ``eta`` (ones at the grade-1
pattern) satisfies ``eta**3 == identity`` and induces the differential
``d(B) = eta B - j^g B eta`` on a part of grade g.  On the stored
components that is a shift plus a phase, landing in grade g+1:
``d(B)[i] = b[(i+1) mod 3] - j^g * b[i]``.  It is nilpotent of order three:
d(d(d(B))) == 0 for every B.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .lincomb import LinComb, accumulate
from .scalar import ONE, Scalar, ZERO, jpow


class GradedMatrix(LinComb):
    """An immutable 3x3 matrix of Scalars, keyed by (grade, row)."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[Scalar]]) -> None:
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("a graded matrix has exactly 3 rows of 3 entries")
        terms: dict[tuple[int, int], Scalar] = {}
        for g in range(3):
            for i in range(3):
                entry = rows[i][(i + g) % 3]
                if not isinstance(entry, Scalar):
                    raise ValueError("matrix entries must be scalars")
                if not entry.is_zero():
                    terms[(g, i)] = entry
        self.terms = terms

    @staticmethod
    def homogeneous(grade: int, entries: Sequence[Scalar]) -> GradedMatrix:
        """The grade-``grade`` matrix with ``entries[i]`` at (i, i+grade mod 3)."""
        rows = [[ZERO] * 3 for _ in range(3)]
        for i, entry in enumerate(entries):
            rows[i][(i + grade) % 3] = entry
        return GradedMatrix(rows)

    @staticmethod
    def zero() -> GradedMatrix:
        return GradedMatrix.homogeneous(0, (ZERO, ZERO, ZERO))

    @staticmethod
    def identity() -> GradedMatrix:
        return GradedMatrix.homogeneous(0, (ONE, ONE, ONE))

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        rows = [[ZERO] * 3 for _ in range(3)]
        for (g, i), entry in self.terms.items():
            rows[i][(i + g) % 3] = entry
        return tuple(tuple(r) for r in rows)

    def __mul__(self, other: GradedMatrix) -> GradedMatrix:
        self._check(other)
        # Entry (ga, i) meets only the entries of row (i + ga) mod 3 of other.
        by_row: tuple[list, list, list] = ([], [], [])
        for (gb, k), b in other.terms.items():
            by_row[k].append((gb, b))
        acc: dict[tuple[int, int], Scalar] = {}
        for (ga, i), a in self.terms.items():
            for gb, b in by_row[(i + ga) % 3]:
                accumulate(acc, ((ga + gb) % 3, i), a * b)
        return self._like(acc)

    def grade_of(self) -> int | str:
        """Grade by support pattern; the zero matrix reports grade 0."""
        return self._common(itemgetter(0))

    def graded_parts(self) -> dict[int, GradedMatrix]:
        """The unique decomposition into (up to three) homogeneous parts."""
        parts: dict[int, dict[tuple[int, int], Scalar]] = {}
        for key, entry in self.terms.items():
            parts.setdefault(key[0], {})[key] = entry
        return {g: self._like(parts[g]) for g in sorted(parts)}

    def __str__(self) -> str:
        from .render import render_matrix

        return render_matrix(self)

    def __repr__(self) -> str:
        return f"GradedMatrix({self.rows!r})"


ETA = GradedMatrix.homogeneous(1, (ONE, ONE, ONE))

#: ``-j^g`` by grade g: the phase ``eta_differential`` gives a grade-g entry.
_MINUS_PHASE = tuple(-jpow(g) for g in range(3))


def graded_commutator(b: GradedMatrix, c: GradedMatrix) -> GradedMatrix:
    """BC - j^(bc) CB for homogeneous B, C; mixed inputs are rejected."""
    gb, gc = b.grade_of(), c.grade_of()
    if gb == "mixed" or gc == "mixed":
        raise ValueError("graded commutator requires homogeneous matrices")
    return b * c - (c * b).scale(jpow(gb * gc))  # type: ignore[operator]


def eta_differential(b: GradedMatrix) -> GradedMatrix:
    """d(B) = eta B - j^g B eta, extended linearly over graded parts.

    Entry (g, k) of B adds itself at (g+1, k-1) and ``-j^g`` times itself
    at (g+1, k): ``d(B)[i] = b[(i+1) mod 3] - j^g * b[i]``.
    """
    # The shift sends distinct keys to distinct keys, so it needs no sums.
    acc = {((g + 1) % 3, (k - 1) % 3): e for (g, k), e in b.terms.items()}
    for (g, k), entry in b.terms.items():
        accumulate(acc, ((g + 1) % 3, k), entry * _MINUS_PHASE[g])
    return b._like(acc)
