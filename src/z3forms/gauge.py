"""Connections, the covariant differential, and the degree-3 curvature form.

A connection is a family of coefficient expressions ``A_i`` (i = 1..n)
standing for the degree-1, grade-1 form ``A = A_i dx[i]``.  The covariant
differential of a form is ``D(phi) = d(phi) + A * phi`` and the curvature

    Omega = d(d(A)) + d(A*A) + A*d(A) + A*A*A

is the degree-3, grade-0 form with ``D(D(D(phi))) == Omega * phi`` for
every degree-0 matter field phi.

Component conventions: ``curvature_components`` returns the exact tables
of the normalized curvature form.  ``field_strength`` is the quadratic
two-index table ``F_ik = derive(A_k, i) - derive(A_i, k) + A_i A_k - A_k A_i``,
which coincides with the ddx-sector of the curvature identically (any
dimension, commutative or not).  The dx-sector of the curvature equals the
canonical image of the cubic table

    T_ikm = derive(derive(A_m, k), i) + derive(A_k, i) A_m
            - j^2 A_i derive(A_m, k) + A_i A_k A_m

(`true_curvature_table`).  A frequently quoted variant with left-ordered
quadratic terms (`reference_curvature_table`) agrees with it only for
commuting coefficients; the difference is a quadratic commutator artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

from .coeffs import CoeffExpr, JetSymbol
from .forms import (
    ComponentTable,
    Form,
    coefficient_form,
    components,
    dx,
    redistribute_t3,
)
from .lincomb import total
from .scalar import J, J2, ONE, scalar

T3Table = dict[tuple[int, int, int], CoeffExpr]
T21Table = dict[tuple[int, int], CoeffExpr]


@dataclass(frozen=True)
class Connection:
    """Coefficients A_i of a grade-1 connection form A = A_i dx[i]."""

    coefficients: Mapping[int, CoeffExpr]
    n: int
    commutative: bool

    def __post_init__(self) -> None:
        for i in range(1, self.n + 1):
            if i not in self.coefficients:
                raise ValueError(f"missing connection coefficient for index {i}")
            if self.coefficients[i].commutative != self.commutative:
                raise ValueError("connection coefficient mode mismatch")


def generic_connection(n: int, commutative: bool = False) -> Connection:
    """Connection with one free symbol per index."""
    return Connection(
        {
            i: CoeffExpr.from_symbol(JetSymbol("A", i), commutative)
            for i in range(1, n + 1)
        },
        n,
        commutative,
    )


def abelian_connection(n: int) -> Connection:
    """Connection with commuting coefficients."""
    return generic_connection(n, commutative=True)


def pure_gauge_connection(n: int, commutative: bool = False) -> Connection:
    """A_i = Uinv * derive(U, i)."""
    coeffs = {}
    for i in range(1, n + 1):
        word = (JetSymbol("Uinv"), JetSymbol("U", derivs=(i,)))
        coeffs[i] = CoeffExpr([(ONE, word)], commutative)
    return Connection(coeffs, n, commutative)


def connection_form(conn: Connection) -> Form:
    n, commutative = conn.n, conn.commutative
    return total(Form.zero(n, commutative),
                 (coefficient_form(conn.coefficients[i], n) * dx(i, n, commutative)
                  for i in range(1, n + 1)))


def matter_field(n: int, commutative: bool = False) -> Form:
    """The formal degree-0, grade-0 matter field Phi."""
    return coefficient_form(CoeffExpr.from_symbol(JetSymbol("Phi"), commutative), n)


def covariant_differential(conn: Connection, phi: Form) -> Form:
    """D(phi) = d(phi) + A * phi."""
    return phi.d() + connection_form(conn) * phi


def curvature(conn: Connection) -> Form:
    """Omega = d(d(A)) + d(A*A) + A*d(A) + A*A*A, normalized.

    ``d`` is linear, so the first two terms are one ``d(d(A) + A*A)``.
    """
    a = connection_form(conn)
    da, aa = a.d(), a * a
    return total((da + aa).d(), (a * da, aa * a))


def curvature_components(conn: Connection) -> ComponentTable:
    return components(curvature(conn))


def field_strength(conn: Connection) -> T21Table:
    """F_ik = derive(A_k, i) - derive(A_i, k) + A_i A_k - A_k A_i."""
    a = conn.coefficients
    return {(i, k): total(a[k].derive(i), (-a[i].derive(k), a[i] * a[k], -(a[k] * a[i])))
            for i, k in product(range(1, conn.n + 1), repeat=2)}


def true_curvature_table(conn: Connection) -> T3Table:
    """The raw cubic table whose canonical image is the curvature dx-sector."""
    out: T3Table = {}
    a = conn.coefficients
    for i, k, m in product(range(1, conn.n + 1), repeat=3):
        ai, ak, am = a[i], a[k], a[m]
        dkm = am.derive(k)
        out[(i, k, m)] = total(dkm.derive(i), (ak.derive(i) * am,
                                               -(ai * dkm).scale(J2), ai * ak * am))
    return out


def reference_curvature_table(conn: Connection) -> T3Table:
    """The left-ordered quadratic variant of the cubic curvature table.

    Agrees with ``true_curvature_table`` exactly when the coefficients
    commute; differs by commutator terms otherwise.
    """
    out: T3Table = {}
    a = conn.coefficients
    for i, k, m in product(range(1, conn.n + 1), repeat=3):
        ai, ak, am = a[i], a[k], a[m]
        dkm = am.derive(k)
        out[(i, k, m)] = total(dkm.derive(i), (ai * dkm, -(dkm * ai), ai * ak * am))
    return out


def gauge_transform(conn: Connection) -> Connection:
    """A_i -> Uinv A_i U + Uinv derive(U, i) with the built-in pair U / Uinv."""
    u = CoeffExpr.from_symbol(JetSymbol("U"), conn.commutative)
    uinv = CoeffExpr.from_symbol(JetSymbol("Uinv"), conn.commutative)
    coeffs = {}
    for i in range(1, conn.n + 1):
        coeffs[i] = uinv * conn.coefficients[i] * u + uinv * u.derive(i)
    return Connection(coeffs, conn.n, conn.commutative)


def covariant_derivative_F(conn: Connection) -> T3Table:
    """Adjoint covariant derivative of the field strength.

    Entry (i, k, m) holds D_i F_km = derive(F_km, i) + A_i F_km - F_km A_i.
    """
    a, F = conn.coefficients, field_strength(conn)
    return {(i, k, m): total(F[(k, m)].derive(i), (a[i] * F[(k, m)], -(F[(k, m)] * a[i])))
            for i, k, m in product(range(1, conn.n + 1), repeat=3)}


def cyclic_symmetrize_raw(
    table: Mapping[tuple[int, int, int], CoeffExpr], n: int, commutative: bool
) -> T3Table:
    """S[i,k,m] = (1/3)(T[i,k,m] + j^2 T[k,m,i] + j T[m,i,k]) on a full table."""
    third = scalar(Fraction(1, 3))
    out: T3Table = {}
    zero = CoeffExpr.zero(commutative)
    for i, k, m in product(range(1, n + 1), repeat=3):
        rotated = (table.get((k, m, i), zero).scale(J2), table.get((m, i, k), zero).scale(J))
        val = total(table.get((i, k, m), zero), rotated).scale(third)
        if not val.is_zero():
            out[(i, k, m)] = val
    return out


def cyclic_symmetrize(T3: Mapping[tuple[int, int, int], CoeffExpr]) -> T3Table:
    """Symmetrize a table of canonical-representative triples, keys sorted.

    The table is redistributed over all index triples with the rotation
    phases, which preserves the form it represents.  The redistribution
    puts (1/3) j^s X at the s-fold left rotation of each key, so it already
    satisfies S[k,m,i] == j S[i,k,m] and the cyclic projector would return
    it unchanged.  Projecting a raw table is ``cyclic_symmetrize_raw``.
    """
    return dict(sorted(redistribute_t3(T3).items()))


def covariant_cyclic_combination(conn: Connection) -> T3Table:
    """The cyclic covariant-derivative combination of the field strength.

    Entry (i, k, m) holds (1/3) (j D_i F_mk + j^2 D_k F_mi).
    """
    DF = covariant_derivative_F(conn)
    third = scalar(Fraction(1, 3))
    out: T3Table = {}
    for i, k, m in product(range(1, conn.n + 1), repeat=3):
        val = (DF[(i, m, k)].scale(J) + DF[(k, m, i)].scale(J2)).scale(third)
        if not val.is_zero():
            out[(i, k, m)] = val
    return out


def tables_equal(
    a: Mapping[tuple, CoeffExpr], b: Mapping[tuple, CoeffExpr]
) -> bool:
    """Entrywise equality; a missing entry counts as zero."""
    return all((a[key] - b[key]).is_zero() if key in a and key in b
               else a.get(key, b.get(key)).is_zero()  # type: ignore[union-attr]
               for key in set(a) | set(b))


def conjugate_table_by_u(
    table: Mapping[tuple, CoeffExpr], commutative: bool
) -> dict[tuple, CoeffExpr]:
    """Entrywise Uinv * T * U."""
    u = CoeffExpr.from_symbol(JetSymbol("U"), commutative)
    uinv = CoeffExpr.from_symbol(JetSymbol("Uinv"), commutative)
    return {key: uinv * value * u for key, value in table.items()}
