"""Graded algebra of 3x3 matrices over Q(j).

The grade of a matrix is read off its support pattern:

* grade 0: diagonal entries only;
* grade 1: entries only at (1,2), (2,3), (3,1)  (1-based);
* grade 2: entries only at (1,3), (2,1), (3,2).

The three patterns partition the nine cells, so every matrix decomposes
uniquely into graded parts.  A ``GradedMatrix`` stores exactly that
decomposition: ``parts[g][i]`` is the entry at (i, i+g mod 3) (0-based).
A product of parts of grades a and b lands in grade a+b, with
``c[i] = a[i] * b[(i+a) mod 3]``.  The cyclic step matrix ``eta`` (ones at
the grade-1 pattern) satisfies ``eta**3 == identity`` and induces the
differential ``d(B) = eta B - j^g B eta`` on a part of grade g.  On the
stored components that is a shift plus a phase, landing in grade g+1:
``d(B)[i] = b[(i+1) mod 3] - j^g * b[i]``.  It is nilpotent of order three:
d(d(d(B))) == 0 for every B.
"""

from __future__ import annotations

from typing import Sequence

from .scalar import ONE, Scalar, ZERO, jpow, scalar

Part = tuple[Scalar, Scalar, Scalar]

#: The one stored all-zero part; zero parts are recognized by identity.
_ZERO_PART: Part = (ZERO, ZERO, ZERO)


def _part(entries: Part) -> Part:
    """``entries`` as a stored part: the shared zero part when all vanish."""
    a, b, c = entries
    if a.is_zero() and b.is_zero() and c.is_zero():
        return _ZERO_PART
    return entries


class GradedMatrix:
    """An immutable 3x3 matrix of Scalars, stored as three grade components."""

    __slots__ = ("parts",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]) -> None:
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("a graded matrix has exactly 3 rows of 3 entries")
        self.parts: tuple[Part, Part, Part] = tuple(  # type: ignore[assignment]
            _part(tuple(rows[i][(i + g) % 3] for i in range(3)))  # type: ignore[arg-type]
            for g in range(3)
        )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]]) -> GradedMatrix:
        conv = []
        for row in rows:
            conv.append(
                [e if isinstance(e, Scalar) else scalar(e) for e in row]  # type: ignore[arg-type]
            )
        return GradedMatrix(conv)

    @staticmethod
    def homogeneous(grade: int, entries: Sequence[Scalar]) -> GradedMatrix:
        """The grade-``grade`` matrix with ``entries[i]`` at (i, i+grade mod 3)."""
        parts = [_ZERO_PART] * 3
        parts[grade % 3] = _part(tuple(entries))  # type: ignore[arg-type]
        return _make(tuple(parts))  # type: ignore[arg-type]

    @staticmethod
    def zero() -> GradedMatrix:
        return _make((_ZERO_PART, _ZERO_PART, _ZERO_PART))

    @staticmethod
    def identity() -> GradedMatrix:
        return _make(((ONE, ONE, ONE), _ZERO_PART, _ZERO_PART))

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        rows = [[ZERO] * 3 for _ in range(3)]
        for g, part in enumerate(self.parts):
            for i in range(3):
                rows[i][(i + g) % 3] = part[i]
        return tuple(tuple(r) for r in rows)

    def __add__(self, other: GradedMatrix) -> GradedMatrix:
        out = []
        for a, b in zip(self.parts, other.parts):
            if a is _ZERO_PART:
                out.append(b)
            elif b is _ZERO_PART:
                out.append(a)
            else:
                out.append(_part((a[0] + b[0], a[1] + b[1], a[2] + b[2])))
        return _make(tuple(out))  # type: ignore[arg-type]

    def __sub__(self, other: GradedMatrix) -> GradedMatrix:
        return self + -other

    def __neg__(self) -> GradedMatrix:
        return _make(tuple(  # type: ignore[arg-type]
            p if p is _ZERO_PART else (-p[0], -p[1], -p[2]) for p in self.parts
        ))

    def scale(self, s: Scalar) -> GradedMatrix:
        if s.is_zero():
            return GradedMatrix.zero()
        # A nonzero scalar keeps every nonzero part nonzero.
        return _make(tuple(  # type: ignore[arg-type]
            p if p is _ZERO_PART else (p[0] * s, p[1] * s, p[2] * s)
            for p in self.parts
        ))

    def __mul__(self, other: GradedMatrix) -> GradedMatrix:
        acc: list[Part | None] = [None, None, None]
        for ga, a in enumerate(self.parts):
            if a is _ZERO_PART:
                continue
            for gb, b in enumerate(other.parts):
                if b is _ZERO_PART:
                    continue
                g = (ga + gb) % 3
                term = (a[0] * b[ga], a[1] * b[(1 + ga) % 3], a[2] * b[(2 + ga) % 3])
                c = acc[g]
                acc[g] = term if c is None else (
                    c[0] + term[0], c[1] + term[1], c[2] + term[2])
        return _make(tuple(  # type: ignore[arg-type]
            _ZERO_PART if c is None else _part(c) for c in acc
        ))

    def is_zero(self) -> bool:
        return all(p is _ZERO_PART for p in self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def grade_of(self) -> int | str:
        """Grade by support pattern; the zero matrix reports grade 0."""
        grades = [g for g, p in enumerate(self.parts) if p is not _ZERO_PART]
        if not grades:
            return 0
        return grades[0] if len(grades) == 1 else "mixed"

    def graded_parts(self) -> dict[int, GradedMatrix]:
        """The unique decomposition into (up to three) homogeneous parts."""
        return {
            g: GradedMatrix.homogeneous(g, p)
            for g, p in enumerate(self.parts)
            if p is not _ZERO_PART
        }

    def __str__(self) -> str:
        from .render import render_matrix

        return render_matrix(self)

    def __repr__(self) -> str:
        return f"GradedMatrix({self.rows!r})"


_new = object.__new__
_set_parts = GradedMatrix.parts.__set__  # type: ignore[attr-defined]


def _make(parts: tuple[Part, Part, Part]) -> GradedMatrix:
    """A GradedMatrix from parts already in stored form."""
    m = _new(GradedMatrix)
    _set_parts(m, parts)
    return m


ETA = GradedMatrix.homogeneous(1, (ONE, ONE, ONE))


def grade_of(m: GradedMatrix) -> int | str:
    return m.grade_of()


def graded_commutator(b: GradedMatrix, c: GradedMatrix) -> GradedMatrix:
    """BC - j^(bc) CB for homogeneous B, C; mixed inputs are rejected."""
    gb, gc = b.grade_of(), c.grade_of()
    if gb == "mixed" or gc == "mixed":
        raise ValueError("graded commutator requires homogeneous matrices")
    return b * c - (c * b).scale(jpow(gb * gc))  # type: ignore[operator]


def eta_differential(b: GradedMatrix) -> GradedMatrix:
    """d(B) = eta B - j^g B eta, extended linearly over graded parts.

    Part g of B maps to part g+1 of d(B): ``b[(i+1) mod 3] - j^g * b[i]``.
    """
    out = [_ZERO_PART] * 3
    for g, p in enumerate(b.parts):
        if p is _ZERO_PART:
            continue
        phase = jpow(g)
        out[(g + 1) % 3] = _part(
            (p[1] - phase * p[0], p[2] - phase * p[1], p[0] - phase * p[2]))
    return _make(tuple(out))  # type: ignore[arg-type]
