"""Connections and curvature: sector decomposition, covariance, the matter
identity, and the exact noncommutative obstructions the calculus produces.

The quoted curvature table, the cyclic covariant-derivative identity, full
pure-gauge flatness and full gauge covariance hold only for commuting
coefficients.  The tests here pin the actual noncommutative behavior,
including the exact cubic obstruction of the pure-gauge curvature.
"""

from __future__ import annotations

import random
from itertools import product

from z3forms import (
    CoeffExpr,
    Form,
    JetSymbol,
    abelian_connection,
    components,
    covariant_differential,
    curvature,
    curvature_components,
    cyclic_symmetrize,
    field_strength,
    gauge_transform,
    generic_connection,
    matter_field,
    pure_gauge_connection,
)
from z3forms.gauge import (
    connection_form,
    conjugate_table_by_u,
    covariant_cyclic_combination,
    cyclic_symmetrize_raw,
    reference_curvature_table,
    tables_equal,
    true_curvature_table,
)
from z3forms.scalar import Scalar
from z3forms.verify import _rand_scalar

from shared import assert_cyclic_combination_splits, assert_same_table, two_pass_symmetrize


def test_two_generator_sector_is_field_strength():
    for n in (2, 3):
        conn = generic_connection(n)
        comp = curvature_components(conn)
        assert tables_equal(comp.T21, field_strength(conn))


def test_three_generator_sector_matches_mixed_order_table():
    for n in (2, 3):
        conn = generic_connection(n)
        comp = curvature_components(conn)
        lhs = cyclic_symmetrize(comp.T3)
        rhs = cyclic_symmetrize_raw(true_curvature_table(conn), n, False)
        assert tables_equal(lhs, rhs)


def test_left_ordered_table_commutative_only():
    n = 2
    conn = generic_connection(n)
    comp = curvature_components(conn)
    lhs = cyclic_symmetrize(comp.T3)
    ref = cyclic_symmetrize_raw(reference_curvature_table(conn), n, False)
    assert not tables_equal(lhs, ref)
    cab = abelian_connection(n)
    comp_ab = curvature_components(cab)
    assert tables_equal(
        cyclic_symmetrize(comp_ab.T3),
        cyclic_symmetrize_raw(reference_curvature_table(cab), n, True),
    )


def test_curvature_equals_its_defining_combination():
    n = 2
    conn = generic_connection(n)
    a = connection_form(conn)
    combo = a.d().d() + (a * a).d() + a * a.d() + a * a * a
    assert curvature(conn) == combo


def test_cyclic_covariant_combination_commutative_only():
    n = 2
    conn = generic_connection(n)
    comp = curvature_components(conn)
    S = cyclic_symmetrize(comp.T3)
    comb = cyclic_symmetrize_raw(covariant_cyclic_combination(conn), n, False)
    assert not tables_equal(S, comb)
    cab = abelian_connection(n)
    comp_ab = curvature_components(cab)
    assert tables_equal(
        cyclic_symmetrize(comp_ab.T3),
        cyclic_symmetrize_raw(covariant_cyclic_combination(cab), n, True),
    )


def test_cyclic_combination_numeric_split():
    assert_cyclic_combination_splits(random.Random(61))


def test_matter_identity():
    for n in (2,):
        conn = generic_connection(n)
        phi = matter_field(n)
        d3 = covariant_differential(
            conn, covariant_differential(conn, covariant_differential(conn, phi))
        )
        assert d3 == curvature(conn) * phi


def test_matter_identity_pure_gauge():
    n = 2
    conn = pure_gauge_connection(n)
    phi = matter_field(n)
    d3 = covariant_differential(
        conn, covariant_differential(conn, covariant_differential(conn, phi))
    )
    assert d3 == curvature(conn) * phi


def test_pure_gauge_flat_commutative():
    for n in (2, 3):
        conn = pure_gauge_connection(n, commutative=True)
        assert curvature(conn).is_zero()


def test_pure_gauge_noncommutative_obstruction_pinned():
    n = 2
    conn = pure_gauge_connection(n)
    om = curvature(conn)
    comp = components(om)
    # the two-generator sector vanishes identically even noncommutatively
    assert all(v.is_zero() for v in comp.T21.values())
    # the remaining obstruction is an exact cubic; pin it entirely
    uinv = JetSymbol("Uinv")

    def wrd(a: int, b: int, c: int) -> tuple:
        return (uinv, JetSymbol("U", derivs=(a,)),
                uinv, JetSymbol("U", derivs=(b,)),
                uinv, JetSymbol("U", derivs=(c,)))

    t112 = CoeffExpr(
        [(Scalar(1, -1), wrd(1, 1, 2)), (Scalar(-1, 1), wrd(1, 2, 1))]
    )
    t122 = CoeffExpr(
        [(Scalar(2, 1), wrd(2, 1, 2)), (Scalar(-2, -1), wrd(2, 2, 1))]
    )
    assert tables_equal(comp.T3, {(1, 1, 2): t112, (1, 2, 2): t122})
    assert not om.is_zero()


def test_field_strength_sector_covariance():
    n = 2
    conn = generic_connection(n)
    comp = curvature_components(conn)
    transformed = gauge_transform(conn)
    comp_t = curvature_components(transformed)
    assert tables_equal(comp_t.T21, conjugate_table_by_u(comp.T21, False))


def test_three_sector_covariance_commutative_only():
    n = 2
    conn = generic_connection(n)
    comp = curvature_components(conn)
    comp_t = curvature_components(gauge_transform(conn))
    lhs = cyclic_symmetrize(comp_t.T3)
    rhs = cyclic_symmetrize_raw(
        conjugate_table_by_u(dict(cyclic_symmetrize(comp.T3)), False),
        n,
        False,
    )
    assert not tables_equal(lhs, rhs)
    # commuting coefficients: both sectors transform by conjugation
    cab = abelian_connection(n)
    comp_ab = curvature_components(cab)
    comp_ab_t = curvature_components(gauge_transform(cab))
    assert tables_equal(
        comp_ab_t.T21, conjugate_table_by_u(comp_ab.T21, True)
    )
    assert tables_equal(
        cyclic_symmetrize(comp_ab_t.T3),
        cyclic_symmetrize_raw(
            conjugate_table_by_u(
                dict(cyclic_symmetrize(comp_ab.T3)), True
            ),
            n,
            True,
        ),
    )


def test_covariant_differential_shape():
    n = 2
    conn = generic_connection(n)
    phi = matter_field(n)
    got = covariant_differential(conn, phi)
    want = phi.d() + connection_form(conn) * phi
    assert got == want


def test_projector_idempotent_random():
    rng = random.Random(62)
    n = 2
    for _ in range(25):
        table = {key: CoeffExpr.from_scalar(_rand_scalar(rng, 3))
                 for key in product(range(1, n + 1), repeat=3)}
        s1 = cyclic_symmetrize_raw(table, n, False)
        s2 = cyclic_symmetrize_raw(s1, n, False)
        assert tables_equal(s1, s2)


def test_projector_faithful_on_forms():
    # two canonical tables describe the same form exactly when their
    # cyclic projections agree
    rng = random.Random(63)
    n = 2
    for _ in range(25):
        w = Form(n, [(_rand_scalar(rng, 3), tuple(("dx", rng.randint(1, n)) for _ in range(3)))
                     for _ in range(rng.randint(1, 2))])
        spread = cyclic_symmetrize(components(w).T3)
        rebuilt = Form(n, [(s, cw + (("dx", i), ("dx", k), ("dx", m)))
                           for (i, k, m), coeff in spread.items() for cw, s in coeff.terms.items()])
        assert rebuilt == w


def test_symmetrize_matches_two_pass_reference_on_curvature():
    for n in (2, 3, 4):
        for conn in (generic_connection(n), abelian_connection(n), pure_gauge_connection(n)):
            for c in (conn, gauge_transform(conn)):
                T3 = curvature_components(c).T3
                assert_same_table(cyclic_symmetrize(T3),
                                  two_pass_symmetrize(T3, n, c.commutative))
