"""Coefficient algebra: jet words, derivations, inverses, conjugation."""

from __future__ import annotations

import random

import pytest

from z3forms import CoeffExpr, JetSymbol
from z3forms.coeffs import normalize_word
from z3forms.scalar import J
from z3forms.verify import _rand_scalar

from shared import jet_key, rand_coeff


def sym_expr(name: str, commutative: bool = False, **kw) -> CoeffExpr:
    return CoeffExpr.from_symbol(JetSymbol(name, **kw), commutative)


def test_jet_symbol_sorted_derivs():
    assert JetSymbol("f", derivs=(3, 1, 2)).derivs == (1, 2, 3)
    assert str(JetSymbol("A", 2, (1, 1))) == "A[2]_,1,1"
    assert str(JetSymbol("f").bar_toggled()) == "~f"


def test_partial_derivatives_commute():
    f = sym_expr("f")
    assert f.derive(1).derive(2) == f.derive(2).derive(1)
    w = sym_expr("f") * sym_expr("g")
    assert w.derive(3).derive(1) == w.derive(1).derive(3)


def test_derivation_product_rule():
    rng = random.Random(21)
    for commutative in (False, True):
        for _ in range(60):
            a = rand_coeff(rng, commutative)
            b = rand_coeff(rng, commutative)
            lhs = (a * b).derive(1)
            rhs = a.derive(1) * b + a * b.derive(1)
            assert (lhs - rhs).is_zero()


def test_coordinate_delta_derivative():
    x1 = sym_expr("x", index=1)
    assert x1.derive(1) == CoeffExpr.unit()
    assert x1.derive(2).is_zero()
    # coordinates in products: (x1 * f)' by the product rule
    f = sym_expr("f")
    got = (x1 * f).derive(1)
    want = f + x1 * f.derive(1)
    assert (got - want).is_zero()
    with pytest.raises(ValueError):
        JetSymbol("x", 1, (2,))


def test_inverse_pair_cancellation():
    u = sym_expr("U")
    uinv = sym_expr("Uinv")
    assert u * uinv == CoeffExpr.unit()
    assert uinv * u == CoeffExpr.unit()
    # noncommutative: only adjacent bare pairs cancel
    f = sym_expr("f")
    assert (u * f * uinv) != f
    # commutative: countwise cancellation finds the separated pair
    uc, fc, uinvc = (sym_expr(n, True) for n in ("U", "f", "Uinv"))
    assert uc * fc * uinvc == fc


def test_inverse_derivative_rewrite():
    u = sym_expr("U")
    uinv = sym_expr("Uinv")
    # derive(U * Uinv) == derive(1) == 0 exercises the eager rewrite
    assert (u * uinv).derive(1).is_zero()
    got = uinv.derive(2)
    want = -(uinv * u.derive(2) * uinv)
    assert (got - want).is_zero()
    with pytest.raises(ValueError):
        JetSymbol("Uinv", derivs=(1,))


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        sym_expr("f", commutative=True) * sym_expr("g", commutative=False)
    with pytest.raises(ValueError):
        sym_expr("f", commutative=True) + sym_expr("g", commutative=False)


def test_conjugation_antiautomorphism():
    rng = random.Random(22)
    for _ in range(80):
        a = rand_coeff(rng)
        b = rand_coeff(rng)
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        assert (lhs - rhs).is_zero()
        assert (a.conjugate().conjugate() - a).is_zero()


def test_conjugation_respects_real_names():
    f = sym_expr("f")
    real = frozenset({"f"})
    assert f.conjugate(real) == f
    barred = f.conjugate()
    assert barred == CoeffExpr.from_symbol(JetSymbol("f").bar_toggled())
    # scalar coefficients conjugate alongside
    jf = f.scale(J)
    assert jf.conjugate(real) == f.scale(J.conjugate())
    # coordinates are always real
    x1 = sym_expr("x", index=1)
    assert x1.conjugate() == x1
    assert JetSymbol("x", 1, barred=True) == JetSymbol("x", 1)
    assert JetSymbol("x", barred=True).barred  # an unindexed x is no coordinate


def test_constant_weight_behavior():
    mu = sym_expr("mu")
    assert mu.derive(1).is_zero()
    assert mu.conjugate() == mu
    with pytest.raises(ValueError):
        JetSymbol("mu", derivs=(1,))
    with pytest.raises(ValueError):
        JetSymbol("mu", barred=True)
    # central: canonical position is the word front in either order
    f = sym_expr("f")
    assert f * mu == mu * f
    g = sym_expr("g")
    assert (f * mu * g) == (mu * f * g)


def test_derive_is_linear():
    rng = random.Random(23)
    for _ in range(40):
        a, b = rand_coeff(rng), rand_coeff(rng)
        s = _rand_scalar(rng, 3)
        lhs = (a.scale(s) + b).derive(2)
        rhs = a.derive(2).scale(s) + b.derive(2)
        assert (lhs - rhs).is_zero()


def test_commutative_words_sorted():
    f, g = sym_expr("f", True), sym_expr("g", True)
    assert f * g == g * f
    fng, gnf = sym_expr("f") * sym_expr("g"), sym_expr("g") * sym_expr("f")
    assert fng != gnf


# -- the canonical letter order ----------------------------------------------------

#: The letters the coefficient and form strategies draw, plus the indices
#: where the stored "no index" -1 meets 0 and where 2 meets 10.
KEYED = [JetSymbol("f"), JetSymbol("g"), JetSymbol("g", 1), JetSymbol("f", derivs=(1,)),
         JetSymbol("A"), JetSymbol("A", 1), JetSymbol("A", 2, (1, 2)),
         JetSymbol("f", barred=True), JetSymbol("A", 1, barred=True),
         JetSymbol("x", 1), JetSymbol("x", 2), JetSymbol("U"), JetSymbol("Uinv"),
         JetSymbol("U", barred=True), JetSymbol("Uinv", barred=True),
         JetSymbol("U", derivs=(2,)), JetSymbol("mu"),
         JetSymbol("A", 0), JetSymbol("A", 10), JetSymbol("f", 0)]


def test_tuple_order_is_the_reference_order():
    for a in KEYED:
        for b in KEYED:
            assert (a < b) == (jet_key(a) < jet_key(b))
            assert (a == b) == (jet_key(a) == jet_key(b))
    assert sorted(KEYED) == sorted(KEYED, key=jet_key)


def test_commutative_normalize_word_sorts_by_reference_key():
    rng = random.Random(19)
    # Without both letters of a pair, nothing cancels, so the normal form
    # is the sorted word.
    letters = [s for s in KEYED if s.name != "Uinv"]
    for _ in range(200):
        word = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        rng.shuffle(word)
        assert normalize_word(word, True) == tuple(sorted(word, key=jet_key))
