"""Pairing of degree-3 forms, the quadratic Lagrangian, and its variation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from z3forms import (
    CoeffExpr,
    Form,
    JetSymbol,
    PairingConfig,
    abelian_connection,
    biharmonic_reference,
    coefficient_form,
    conjugate_form,
    ddx,
    dx,
    euler_lagrange_abelian,
    field_equation_report,
    field_strength,
    generic_connection,
    lagrangian_density,
    lagrangian_report,
    lorenz_reduce,
    reference_field_equation,
    scalar_product,
    variational_derivative,
)
from z3forms.action import MU, divergence_of_strength, solve_linear, _laplacian
from z3forms.expr import print_canonical
from z3forms.scalar import J, ONE, ZERO, scalar
from z3forms.verify import _rand_degree3

from shared import two_pass_variation


# -- the pairing ---------------------------------------------------------------


def test_pairing_normalizations():
    n = 3
    cfg = PairingConfig()
    triple = dx(1, n) * dx(2, n) * dx(3, n)
    assert scalar_product(triple, triple, cfg) == CoeffExpr.unit()
    two = ddx(1, n) * dx(2, n)
    # formal weight: the two-generator sector carries the constant symbol
    assert scalar_product(two, two, cfg) == CoeffExpr.from_symbol(MU)
    # a fixed numeric weight replaces the symbol
    assert scalar_product(two, two, PairingConfig(mu=scalar(1))) == CoeffExpr.unit()
    # the two sectors are orthogonal
    assert scalar_product(triple, two, cfg).is_zero()
    assert scalar_product(two, triple, cfg).is_zero()


def test_pairing_rejects_zero_weight():
    with pytest.raises(ValueError):
        PairingConfig(mu=ZERO)


def test_pairing_hermitian_random():
    rng = random.Random(71)
    cfg = PairingConfig()
    n = 3
    for _ in range(60):
        w = _rand_degree3(rng, n)
        phi = _rand_degree3(rng, n)
        lhs = scalar_product(w, phi, cfg)
        rhs = scalar_product(phi, w, cfg).conjugate(frozenset())
        assert (lhs - rhs).is_zero()


def test_pairing_positive_on_scalar_forms():
    rng = random.Random(72)
    cfg = PairingConfig(mu=scalar(1))
    n = 3
    for _ in range(60):
        x = _rand_degree3(rng, n, runs=False)
        v = scalar_product(x, x, cfg)
        if x.is_zero():
            assert v.is_zero()
            continue
        s = v.terms.get((), ZERO)
        assert v.terms.keys() == {()} and s.is_rational() and s.a > 0


def test_conjugation_involution_random():
    rng = random.Random(73)
    n = 3
    for _ in range(60):
        w = _rand_degree3(rng, n)
        assert conjugate_form(w).conjugate_back() == w


def test_conjugation_is_antilinear():
    n = 3
    w = dx(1, n) * dx(2, n) * dx(3, n)
    lhs = conjugate_form(w.scale(J))
    rhs = conjugate_form(w).scale(J.conjugate())
    assert lhs == rhs


def test_conjugate_form_requires_degree_three():
    n = 3
    with pytest.raises(ValueError):
        conjugate_form(dx(1, n))
    with pytest.raises(ValueError):
        conjugate_form(dx(1, n) * dx(2, n))


def test_real_names_skip_barring():
    # A conjugate value stores its preimage's words, so no symbol of an
    # unbarred jet is barred on the way there and back.
    n = 2
    a = Form(n, [(ONE, (JetSymbol("A", 1), ("dx", 1), ("dx", 2), ("dx", 1)))])
    cf = conjugate_form(a)
    back = cf.conjugate_back()
    assert back == a


def test_real_names_are_part_of_a_conjugate_value():
    n = 3
    gens = dx(1, n) * dx(2, n) * dx(3, n)

    def f(name: str, barred: bool = False) -> Form:
        sym = JetSymbol(name, barred=barred)
        return coefficient_form(CoeffExpr.from_symbol(sym), n) * gens

    plain_a = conjugate_form(f("A"))
    barred_a = conjugate_form(f("A", barred=True))
    assert str(plain_a) == "delta(A dx[1] dx[2] dx[3])"
    assert str(barred_a) == "delta(~A dx[1] dx[2] dx[3])"
    assert plain_a != barred_a
    assert plain_a == conjugate_form(f("A"))
    assert hash(plain_a) == hash(conjugate_form(f("A")))
    both = barred_a + conjugate_form(f("B"))
    assert both.conjugate_back() == f("A", barred=True) + f("B")


# -- the Lagrangian ------------------------------------------------------------


def test_lagrangian_requires_commuting_connection():
    with pytest.raises(ValueError):
        lagrangian_density(generic_connection(2), PairingConfig())


def test_lagrangian_constants_and_ratio():
    for n in (2, 3):
        rep = lagrangian_report(n)
        assert rep.exact
        assert rep.shapes_degenerate
        assert (rep.c1, rep.c2, rep.c3) == (
            scalar(Fraction(2, 3)),
            scalar(Fraction(-1, 3)),
            scalar(1),
        )
        assert rep.ratio == scalar(-2)
        assert not rep.c3.is_zero()
        assert rep.reference == (Fraction(4, 3), Fraction(-2, 3), Fraction(4))


def test_lagrangian_derivative_shapes_are_dependent():
    # the cross contraction equals half the square contraction identically,
    # so the two quadratic shapes span a line, not a plane
    for n in (2, 3):
        conn = abelian_connection(n)
        F = field_strength(conn)
        B = CoeffExpr.zero(True)
        X = CoeffExpr.zero(True)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                for m in range(1, n + 1):
                    dif = F[(m, k)].derive(i)
                    dkf = F[(m, i)].derive(k)
                    B = B + dif * dif
                    X = X + dif * dkf
        assert (X - B.scale(scalar(Fraction(1, 2)))).is_zero()


def test_lagrangian_mu_sector_is_strength_square():
    n = 2
    conn = abelian_connection(n)
    from z3forms.action import lagrangian_sectors

    _, l21 = lagrangian_sectors(conn)
    F = field_strength(conn)
    sf = CoeffExpr.zero(True)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            sf = sf + F[(i, k)] * F[(i, k)]
    assert (l21 - sf).is_zero()


# -- the variation -------------------------------------------------------------


def test_variational_derivative_of_the_lagrangian_matches_reference():
    cfg = PairingConfig()
    for n in (2, 3):
        L = lagrangian_density(abelian_connection(n), cfg)
        assert variational_derivative(L, n) == two_pass_variation(L, n)


def test_variation_decomposition():
    for n in (2, 3):
        rep = field_equation_report(n)
        assert rep.exact
        assert (rep.alpha, rep.gamma) == (scalar(2), scalar(-4))
        assert rep.reference == (Fraction(1), Fraction(-1), Fraction(3, 4))


def test_variation_equals_its_decomposition():
    n = 2
    cfg = PairingConfig()
    conn = abelian_connection(n)
    el = euler_lagrange_abelian(conn, cfg)
    G = divergence_of_strength(conn)
    mu = cfg.mu_expr(True)
    for p in range(1, n + 1):
        want = _laplacian(G[p], n).scale(scalar(2)) + (mu * G[p]).scale(scalar(-4))
        assert (el[p] - want).is_zero()


def test_reference_equation_reduces_to_biharmonic():
    cfg = PairingConfig()
    for n in (2, 3):
        conn = abelian_connection(n)
        for k in range(1, n + 1):
            diff = reference_field_equation(conn, cfg, k) - biharmonic_reference(
                conn, cfg, k
            )
            assert lorenz_reduce(diff, n).is_zero()
            # neither side is in the constraint ideal by itself
            assert not lorenz_reduce(biharmonic_reference(conn, cfg, k), n).is_zero()


def test_variation_reduces_to_double_laplacian():
    n = 2
    cfg = PairingConfig()
    conn = abelian_connection(n)
    el = euler_lagrange_abelian(conn, cfg)
    mu = cfg.mu_expr(True)
    for p in range(1, n + 1):
        ap = conn.coefficients[p]
        lap = _laplacian(ap, n)
        want = _laplacian(lap, n).scale(scalar(2)) + (mu * lap).scale(scalar(-4))
        assert lorenz_reduce(el[p] - want, n).is_zero()


def test_lorenz_reduce_kills_constraint_jets():
    n = 2
    conn = abelian_connection(n)
    div = CoeffExpr.zero(True)
    for i in range(1, n + 1):
        div = div + conn.coefficients[i].derive(i)
    assert lorenz_reduce(div, n).is_zero()
    assert lorenz_reduce(div.derive(1).derive(2), n).is_zero()
    # mixing in a constant prefix still reduces
    mu = PairingConfig().mu_expr(True)
    assert lorenz_reduce(mu * div.derive(1), n).is_zero()
    # non-constraint jets pass through unchanged
    a1 = conn.coefficients[1]
    assert (lorenz_reduce(a1, n) - a1).is_zero()


def test_solve_linear_exact_and_inconsistent():
    f = CoeffExpr.from_symbol(JetSymbol("f"), True)
    g = CoeffExpr.from_symbol(JetSymbol("g"), True)
    target = f.scale(scalar(2)) + g.scale(scalar(Fraction(-1, 3)))
    sol = solve_linear([f.terms, g.terms], target.terms)
    assert sol == [scalar(2), scalar(Fraction(-1, 3))]
    h = CoeffExpr.from_symbol(JetSymbol("h"), True)
    assert solve_linear([f.terms, g.terms], h.terms) is None


#: print_canonical(lorenz_reduce(biharmonic_reference(abelian_connection(n), cfg, k), n))
BIHARMONIC_RESIDUES = {
    (2, 1): "(A[1]_,1,1,1,1) + 2 * (A[1]_,1,1,2,2) + (A[1]_,2,2,2,2)"
            " + 3/4 * (A[1]_,1,1) mu + 3/4 * (A[1]_,2,2) mu",
    (2, 2): "-2 * (A[1]_,1,1,1,2) - (A[1]_,1,2,2,2) + (A[2]_,1,1,1,1)"
            " - 3/4 * (A[1]_,1,2) mu + 3/4 * (A[2]_,1,1) mu",
    (3, 1): "(A[1]_,1,1,1,1) + 2 * (A[1]_,1,1,2,2) + 2 * (A[1]_,1,1,3,3)"
            " + (A[1]_,2,2,2,2) + 2 * (A[1]_,2,2,3,3) + (A[1]_,3,3,3,3)"
            " + 3/4 * (A[1]_,1,1) mu + 3/4 * (A[1]_,2,2) mu + 3/4 * (A[1]_,3,3) mu",
    (3, 2): "(A[2]_,1,1,1,1) + 2 * (A[2]_,1,1,2,2) + 2 * (A[2]_,1,1,3,3)"
            " + (A[2]_,2,2,2,2) + 2 * (A[2]_,2,2,3,3) + (A[2]_,3,3,3,3)"
            " + 3/4 * (A[2]_,1,1) mu + 3/4 * (A[2]_,2,2) mu + 3/4 * (A[2]_,3,3) mu",
    (3, 3): "-2 * (A[1]_,1,1,1,3) - 2 * (A[1]_,1,2,2,3) - (A[1]_,1,3,3,3)"
            " - 2 * (A[2]_,1,1,2,3) - 2 * (A[2]_,2,2,2,3) - (A[2]_,2,3,3,3)"
            " + (A[3]_,1,1,1,1) + 2 * (A[3]_,1,1,2,2) + (A[3]_,2,2,2,2)"
            " - 3/4 * (A[1]_,1,3) mu - 3/4 * (A[2]_,2,3) mu"
            " + 3/4 * (A[3]_,1,1) mu + 3/4 * (A[3]_,2,2) mu",
}


def test_lorenz_reduce_residue_of_nonzero_inputs():
    # The residue of an input outside the span depends on the pivot order
    # (the jet with the largest sort key is eliminated); these pin it.
    def a(i, *derivs):
        return CoeffExpr.from_symbol(JetSymbol("A", i, derivs), True)

    assert lorenz_reduce(a(2, 2), 2) == -a(1, 1)
    assert lorenz_reduce(a(1, 1), 2) == a(1, 1)
    assert lorenz_reduce(a(1, 1, 2), 2) == a(1, 1, 2)
    cfg = PairingConfig()
    for (n, k), text in BIHARMONIC_RESIDUES.items():
        residue = lorenz_reduce(biharmonic_reference(abelian_connection(n), cfg, k), n)
        assert print_canonical(residue) == text
