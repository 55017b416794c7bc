"""Pairing of degree-3 forms, the quadratic Lagrangian, and its variation."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_form_properties import PROPERTY, forms, n_and_mode

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
from z3forms.action import MU, divergence_of_strength, solve_linear, _echelon, _laplacian, _reduce
from z3forms.coeffs import CONSTANT_NAMES
from z3forms.expr import print_canonical
from z3forms.lincomb import accumulate
from z3forms.scalar import J, ONE, Scalar, ZERO, scalar


def rand_scalar(rng: random.Random) -> Scalar:
    return Scalar(rng.randint(-3, 3), rng.randint(-3, 3))


def rand_degree3(rng: random.Random, n: int, with_runs: bool = True) -> Form:
    names = ("f", "g")
    out = Form.zero(n)
    for _ in range(rng.randint(1, 3)):
        if with_runs:
            run = tuple(
                JetSymbol(rng.choice(names))
                for _ in range(rng.randint(0, 1))
            )
        else:
            run = ()
        if rng.random() < 0.5:
            gens: tuple = tuple(("dx", rng.randint(1, n)) for _ in range(3))
        else:
            gens = (("ddx", rng.randint(1, n)), ("dx", rng.randint(1, n)))
        out = out + Form(n, [(rand_scalar(rng), run + gens)])
    return out


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
        w = rand_degree3(rng, n)
        phi = rand_degree3(rng, n)
        lhs = scalar_product(w, phi, cfg)
        rhs = scalar_product(phi, w, cfg).conjugate(frozenset())
        assert (lhs - rhs).is_zero()


@PROPERTY
@given(n_and_mode.flatmap(lambda nm: st.tuples(
    forms(*nm, degrees=(3,)), forms(*nm, degrees=(3,)))))
def test_pairing_hermitian_generated(pair):
    w, phi = pair
    for cfg in (PairingConfig(), PairingConfig(mu=scalar(2))):
        lhs = scalar_product(w, phi, cfg)
        assert lhs == scalar_product(phi, w, cfg).conjugate(frozenset())


def test_pairing_positive_on_scalar_forms():
    rng = random.Random(72)
    cfg = PairingConfig(mu=scalar(1))
    n = 3
    for _ in range(60):
        x = rand_degree3(rng, n, with_runs=False)
        v = scalar_product(x, x, cfg)
        if x.is_zero():
            assert v.is_zero()
            continue
        s = dict(v.terms).get((), ZERO)
        re, im = s.embed_complex()
        assert abs(im) < 1e-15
        assert re > 0


def test_conjugation_involution_random():
    rng = random.Random(73)
    n = 3
    for _ in range(60):
        w = rand_degree3(rng, n)
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


#: Letters of generated Lagrangians: jets of A up to order 3 with indices
#: inside and outside 1..n (n <= 3 below), an unindexed and a barred A,
#: another base name, a coordinate and the constant mu.
VARIATION_LETTERS = st.sampled_from(
    [JetSymbol("A", i, d) for i in (0, 1, 2, 3, 4)
     for d in ((), (1,), (2,), (1, 2), (2, 2), (1, 1, 3))]
    + [JetSymbol("A"), JetSymbol("A", 1, (1,), barred=True), JetSymbol("B", 1, (1,)),
       JetSymbol("x", 1), MU])
VARIATION_INPUTS = st.lists(
    st.tuples(st.integers(-3, 3).map(scalar), st.lists(VARIATION_LETTERS, max_size=3)),
    max_size=6).map(lambda items: CoeffExpr(items, True))


@PROPERTY
@given(VARIATION_INPUTS, st.integers(1, 3))
def test_variational_derivative_matches_two_pass_reference(L, n):
    assert variational_derivative(L, n) == two_pass_variation(L, n)


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
        ap = conn.a(p)
        lap = _laplacian(ap, n)
        want = _laplacian(lap, n).scale(scalar(2)) + (mu * lap).scale(scalar(-4))
        assert lorenz_reduce(el[p] - want, n).is_zero()


def test_lorenz_reduce_kills_constraint_jets():
    n = 2
    conn = abelian_connection(n)
    div = CoeffExpr.zero(True)
    for i in range(1, n + 1):
        div = div + conn.a(i).derive(i)
    assert lorenz_reduce(div, n).is_zero()
    assert lorenz_reduce(div.derive(1).derive(2), n).is_zero()
    # mixing in a constant prefix still reduces
    mu = PairingConfig().mu_expr(True)
    assert lorenz_reduce(mu * div.derive(1), n).is_zero()
    # non-constraint jets pass through unchanged
    a1 = conn.a(1)
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


def echelon_lorenz_reduce(x: CoeffExpr, n: int, base: str = "A") -> CoeffExpr:
    """Reference: eliminate against an echelon that ``_echelon`` builds from
    the constraint generators, each pivoting on its jet of largest sort key."""
    max_order = 0
    split: dict = {}
    for word, coeff in x:
        consts = tuple(s for s in word if s.name in CONSTANT_NAMES)
        rest = tuple(s for s in word if s.name not in CONSTANT_NAMES)
        max_order = max(max_order, len(rest[0].derivs))
        accumulate(split.setdefault(consts, {}), rest, coeff)
    if max_order == 0:
        return x
    generators = (
        {(JetSymbol(base, i, beta + (i,)),): ONE for i in range(1, n + 1)}
        for size in range(max_order)
        for beta in combinations_with_replacement(range(1, n + 1), size)
    )
    rows = _echelon(generators, lambda vec: max(vec, key=lambda w: w[0].sort_key()))
    out: dict = {}
    for consts, group in split.items():
        for w, c in _reduce(group, rows).items():
            accumulate(out, tuple(sorted(consts + w, key=JetSymbol.sort_key)), c)
    return CoeffExpr(out, True)


@st.composite
def lorenz_inputs(draw):
    """An expression linear in the jets of A, of order 0..4, with or without mu."""
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 4))
    jets = st.builds(lambda i, derivs: JetSymbol("A", i, derivs), st.integers(1, n),
                     st.lists(st.integers(1, n), max_size=order))
    prefix = st.sampled_from([(), (MU,)])
    items = draw(st.lists(st.tuples(st.integers(-3, 3).map(scalar),
                                    st.builds(lambda p, a: p + (a,), prefix, jets)),
                          max_size=6))
    return CoeffExpr(items, True), n


@PROPERTY
@given(lorenz_inputs())
def test_lorenz_reduce_matches_echelon_reference(case):
    x, n = case
    got, want = lorenz_reduce(x, n), echelon_lorenz_reduce(x, n)
    assert list(got.terms.items()) == list(want.terms.items())
