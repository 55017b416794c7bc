"""Exact arithmetic in Q(j): field axioms, conjugation, norm, embedding."""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest

from z3forms import J, J2, ONE, Scalar, ZERO, jpow, scalar
from z3forms.scalar import _make
from z3forms.verify import _rand_scalar

from shared import rand_scalar


def test_cube_root_relations():
    assert J * J == Scalar(-1, -1)
    assert J * J * J == ONE
    assert ONE + J + J2 == ZERO
    assert J2 == -ONE - J


def test_every_computed_one_is_the_shared_one():
    assert _make(1, 0, 1) is ONE
    assert J * J2 is ONE
    assert pickle.loads(pickle.dumps(ONE)) is ONE
    assert Scalar(1) == ONE and Scalar(1) is not ONE


def test_jpow_period():
    assert [jpow(s) for s in range(-3, 7)] == [
        ONE, J, J2, ONE, J, J2, ONE, J, J2, ONE,
    ]


def test_field_axioms_random():
    rng = random.Random(101)
    for _ in range(300):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO


def test_inverse_and_division():
    rng = random.Random(102)
    for _ in range(200):
        x = rand_scalar(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == ONE
        y = rand_scalar(rng)
        assert (y / x) * x == y
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugation_is_ring_involution():
    rng = random.Random(103)
    assert J.conjugate() == J2
    assert J2.conjugate() == J
    assert scalar(7).conjugate() == scalar(7)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x


def test_norm_is_multiplicative_and_nonnegative():
    rng = random.Random(104)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        assert x.norm() == (x * x.conjugate()).a
        assert (x * x.conjugate()).b == 0
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.norm() >= 0
        assert (x.norm() == 0) == x.is_zero()


def test_numeric_embedding():
    re, im = J.embed_complex()
    assert abs(re + 0.5) < 1e-15
    assert abs(im - math.sqrt(3) / 2) < 1e-15
    rng = random.Random(105)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        zx = complex(*x.embed_complex())
        zy = complex(*y.embed_complex())
        zp = complex(*(x * y).embed_complex())
        zs = complex(*(x + y).embed_complex())
        assert abs(zx * zy - zp) < 1e-9
        assert abs(zx + zy - zs) < 1e-12
        zc = complex(*x.conjugate().embed_complex())
        assert abs(zc - zx.conjugate()) < 1e-12


def test_exact_fraction_components():
    x = scalar(Fraction(1, 3), Fraction(2, 5))
    y = scalar(Fraction(-4, 7), Fraction(1, 2))
    prod = x * y
    # (a + b j)(c + d j) with j^2 = -1 - j, fully exact.
    a, b, c, d = Fraction(1, 3), Fraction(2, 5), Fraction(-4, 7), Fraction(1, 2)
    assert prod == Scalar(a * c - b * d, a * d + b * c - b * d)


@pytest.mark.parametrize("value, text", [
    (ZERO, "0"), (J, "j"), (-J, "-j"), (J2, "j^2"), (scalar(0, 2), "2*j"),
    (scalar(Fraction(-1, 3)), "-1/3"), (scalar(Fraction(1, 2), 3), "1/2 + 3*j"),
    (scalar(Fraction(1, 2), -3), "1/2 - 3*j"), (scalar(-2, -1), "-2 - j"),
    (scalar(-1, -2), "-1 - 2*j"),
])
def test_scalar_text(value, text):
    assert str(value) == text


def test_verify_draws_scalars_as_the_fraction_pair_does():
    # verify._rand_scalar against the two-Fraction construction: the same
    # values, and the generator ends in the same state.
    for seed in range(20):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for span in (3, 6) * 1000:
            want = Scalar(Fraction(ref_rng.randint(-span, span), ref_rng.randint(1, 4)),
                          Fraction(ref_rng.randint(-span, span), ref_rng.randint(1, 4)))
            assert _rand_scalar(rng, span) == want
        assert rng.getstate() == ref_rng.getstate()
