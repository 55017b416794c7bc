"""Connections and curvature: sector decomposition, covariance, the matter
identity, and the exact noncommutative obstructions the calculus produces.

The quoted curvature table, the cyclic covariant-derivative identity, full
pure-gauge flatness and full gauge covariance hold only for commuting
coefficients.  The tests here pin the actual noncommutative behavior,
including the exact cubic obstruction of the pure-gauge curvature.
"""

from __future__ import annotations

import functools
import random
from itertools import product

import pytest

from z3forms import (
    CoeffExpr,
    ComponentTable,
    Form,
    JetSymbol,
    abelian_connection,
    coefficient_form,
    components,
    covariant_differential,
    curvature,
    curvature_components,
    cyclic_symmetrize,
    field_strength,
    form_from_components,
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


@functools.cache
def gauge_verdicts(n: int, commutative: bool) -> dict[str, bool]:
    """The verdict on each identity that ``verify gauge`` checks through
    symmetrized tables, for the generic connection.  Each is computed on the
    tables and as the equality of the forms they stand for (a transform
    conjugates the form, Uinv * X * U), and the two must agree."""
    conn = generic_connection(n, commutative)
    comp = curvature_components(conn)
    comp_t = curvature_components(gauge_transform(conn))
    S = cyclic_symmetrize(comp.T3)
    u, uinv = (coefficient_form(CoeffExpr.from_symbol(JetSymbol(name), commutative), n)
               for name in ("U", "Uinv"))

    def form_of(T3={}, T21={}):
        return form_from_components(ComponentTable(T3, T21, n, commutative))

    def raw(table):
        return cyclic_symmetrize_raw(table, n, commutative)

    F = field_strength(conn)
    both = {"field strength": (tables_equal(comp.T21, F), form_of(T21=comp.T21) == form_of(T21=F))}
    for name, table in (("cubic table", true_curvature_table(conn)),
                        ("left-ordered table", reference_curvature_table(conn)),
                        ("cyclic combination", covariant_cyclic_combination(conn))):
        both[name] = (tables_equal(S, raw(table)), form_of(comp.T3) == form_of(table))
    both["field strength transform"] = (
        tables_equal(comp_t.T21, conjugate_table_by_u(comp.T21, commutative)),
        form_of(T21=comp_t.T21) == uinv * form_of(T21=comp.T21) * u)
    both["dx-sector transform"] = (
        tables_equal(cyclic_symmetrize(comp_t.T3), raw(conjugate_table_by_u(S, commutative))),
        form_of(comp_t.T3) == uinv * form_of(comp.T3) * u)
    assert all(table == form for table, form in both.values()), both
    return {name: table for name, (table, _) in both.items()}


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_table_verdicts_are_form_equalities(n, commutative):
    gauge_verdicts(n, commutative)


def test_two_generator_sector_is_field_strength():
    assert all(gauge_verdicts(n, False)["field strength"] for n in (2, 3))


def test_three_generator_sector_matches_mixed_order_table():
    assert all(gauge_verdicts(n, False)["cubic table"] for n in (2, 3))


def test_left_ordered_table_commutative_only():
    assert [gauge_verdicts(2, c)["left-ordered table"] for c in (False, True)] == [False, True]


def test_cyclic_covariant_combination_commutative_only():
    assert [gauge_verdicts(2, c)["cyclic combination"] for c in (False, True)] == [False, True]


def test_field_strength_sector_covariance():
    assert gauge_verdicts(2, False)["field strength transform"]


def test_three_sector_covariance_commutative_only():
    assert not gauge_verdicts(2, False)["dx-sector transform"]
    assert gauge_verdicts(2, True)["field strength transform"]
    assert gauge_verdicts(2, True)["dx-sector transform"]


def test_curvature_equals_its_defining_combination():
    n = 2
    conn = generic_connection(n)
    a = connection_form(conn)
    combo = a.d().d() + (a * a).d() + a * a.d() + a * a * a
    assert curvature(conn) == combo


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

