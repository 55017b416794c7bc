"""Property tests for the Q(j) kernel.

The kernel stores ``(p + q*j) / r`` as three integers.  These tests check
it against the field axioms, against conjugation as an involutive
automorphism, and term by term against a reference model in ``shared``: a
pair of ``Fraction`` components with the textbook formulas for
``a + b*j`` and ``j**2 = -1 - j``.  Example generation is derandomized so
that every run checks the same cases.
"""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from strategies import PROPERTY, nonzero, scalars  # noqa: E402

from shared import ref, ref_add, ref_conjugate, ref_inverse, ref_mul, ref_norm, ref_sub  # noqa: E402
from z3forms.scalar import J, J2, ONE, ZERO, Scalar, scalar  # noqa: E402


# -- field axioms ----------------------------------------------------------------


@PROPERTY
@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x * ZERO == ZERO
    assert x + (-x) == ZERO
    assert x - y == x + (-y)


@PROPERTY
@given(nonzero, scalars)
def test_inverse(x, y):
    assert x * x.inverse() == ONE
    assert x.inverse().inverse() == x
    assert (y / x) * x == y


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@PROPERTY
@given(scalars, scalars)
def test_conjugation_is_an_involutive_automorphism(x, y):
    assert x.conjugate().conjugate() == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (-x).conjugate() == -x.conjugate()
    assert scalar(x.a).conjugate() == scalar(x.a)
    assert (x * x.conjugate()).is_rational()
    assert x * x.conjugate() == scalar(x.norm())


def test_conjugation_swaps_the_cube_roots():
    assert J.conjugate() == J2
    assert J2.conjugate() == J
    assert ONE.conjugate() == ONE


# -- agreement with the reference model --------------------------------------------


@PROPERTY
@given(scalars, scalars)
def test_operations_agree_with_the_fraction_model(x, y):
    rx, ry = ref(x), ref(y)
    assert ref(x + y) == ref_add(rx, ry)
    assert ref(x - y) == ref_sub(rx, ry)
    assert ref(x * y) == ref_mul(rx, ry)
    assert ref(-x) == (-rx[0], -rx[1])
    assert ref(x.conjugate()) == ref_conjugate(rx)
    assert x.norm() == ref_norm(rx)
    if not x.is_zero():
        assert ref(x.inverse()) == ref_inverse(rx)


@PROPERTY
@given(scalars)
def test_embedding_agrees_with_the_fraction_model(x):
    a, b = ref(x)
    want = (float(a) - float(b) / 2.0, float(b) * math.sqrt(3.0) / 2.0)
    assert x.embed_complex() == want


# -- canonical form ------------------------------------------------------------------


@PROPERTY
@given(scalars, scalars)
def test_canonical_form(x, y):
    for v in (x, y, x + y, x - y, x * y, -x, x.conjugate()):
        assert v._r > 0
        assert math.gcd(v._p, v._q, v._r) == 1
        assert type(v.a) is Fraction and type(v.b) is Fraction
        same = Scalar(v.a, v.b)
        assert same == v and hash(same) == hash(v)
    s = (x + y) - y
    assert s == x and hash(s) == hash(x)


@PROPERTY
@given(scalars)
def test_repr_pickle_and_copy_round_trip(x):
    assert eval(repr(x), {"Scalar": Scalar, "Fraction": Fraction}) == x
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x


@PROPERTY
@given(scalars)
def test_product_with_one_is_the_other_operand(x):
    fresh = Scalar(1)  # a one that is not the shared ONE
    for v in (x * ONE, ONE * x, x * fresh, fresh * x):
        assert v == x and hash(v) == hash(x) and repr(v) == repr(x)


def test_equal_values_from_unreduced_inputs():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert hash(Scalar(Fraction(2, 4))) == hash(Scalar(Fraction(1, 2)))
    assert Scalar(Fraction(6, 4), Fraction(-3, 6)) == Scalar(Fraction(3, 2), Fraction(-1, 2))
    assert Scalar(0, 0) == ZERO and scalar(Fraction(0, 7)) == ZERO
    assert Scalar(a=1, b=1) == ONE + J


def test_equality_is_between_scalars_only():
    assert ONE.__eq__(1) is NotImplemented
    assert ONE != 1
    assert ZERO != 0


def test_assignment_raises_attribute_error():
    x = Scalar(1, 2)
    for name in ("a", "b", "_p", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 3)
    with pytest.raises(AttributeError):
        del x.a
    assert x == Scalar(1, 2)
