"""Exact arithmetic in the field Q(j), the rationals extended by a primitive
cube root of unity.

Elements are stored in the power basis {1, j} as ``(p + q*j) / r`` with
integers ``p``, ``q`` and a common denominator ``r``; the reduction
``j**2 == -1 - j`` is applied on every product, so no ``j**2`` component is
ever stored.  The stored triple is canonical: ``r > 0`` and
``gcd(p, q, r) == 1`` (zero is ``(0, 0, 1)``), so equality and hashing
compare the integers directly.  Each ring operation works on integers and
takes at most one gcd.  The rational components ``a = p/r`` and
``b = q/r`` are available as ``Fraction`` properties.  Conjugation is the
Q-linear involution fixing the rationals and sending ``j`` to ``j**2``.
Every ring operation whose result is one returns the shared ``ONE``, and
a product with ``ONE`` returns the other operand unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]


class Scalar:
    """An exact element ``a + b*j`` of Q(j) with ``j**2 = -1 - j``."""

    __slots__ = ("_p", "_q", "_r")
    __match_args__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        if type(a) is int and type(b) is int:
            p, q, r = a, b, 1
        else:
            a, b = Fraction(a), Fraction(b)
            da, db = a.denominator, b.denominator
            # Over the lcm of two reduced denominators, gcd(p, q, r) is 1.
            r = da // gcd(da, db) * db
            p, q = a.numerator * (r // da), b.numerator * (r // db)
        _set_p(self, p)
        _set_q(self, q)
        _set_r(self, r)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Scalar is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Scalar is immutable")

    def __reduce__(self):
        return (_make, (self._p, self._q, self._r))

    # -- rational components ---------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._r)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        r, s = self._r, other._r
        if r == s:
            p, q = self._p + other._p, self._q + other._q
            if r == 1:
                return _make(p, q, 1)
        else:
            p, q, r = self._p * s + other._p * r, self._q * s + other._q * r, r * s
        return _reduced(p, q, r)

    def __sub__(self, other: Scalar) -> Scalar:
        r, s = self._r, other._r
        if r == s:
            p, q = self._p - other._p, self._q - other._q
            if r == 1:
                return _make(p, q, 1)
        else:
            p, q, r = self._p * s - other._p * r, self._q * s - other._q * r, r * s
        return _reduced(p, q, r)

    def __neg__(self) -> Scalar:
        return _make(-self._p, -self._q, self._r)

    def __mul__(self, other: Scalar) -> Scalar:
        # Most products in the core have the shared ONE as an operand.
        if self is ONE:
            return other
        if other is ONE:
            return self
        a, b, c, d = self._p, self._q, other._p, other._q
        bd = b * d
        # (a + b j)(c + d j) = ac + (ad + bc) j + bd j^2, with j^2 = -1 - j.
        p, q, r = a * c - bd, a * d + b * c - bd, self._r * other._r
        if r == 1:
            return _make(p, q, 1)
        return _reduced(p, q, r)

    def conjugate(self) -> Scalar:
        """The involution j -> j^2, i.e. a + b*j -> (a - b) - b*j."""
        return _make(self._p - self._q, -self._q, self._r)

    def norm(self) -> Fraction:
        """Multiplicative norm x * conjugate(x) = a^2 - a*b + b^2 (rational, >= 0)."""
        p, q, r = self._p, self._q, self._r
        return Fraction(p * p - p * q + q * q, r * r)

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Scalar")
        p, q, r = self._p, self._q, self._r
        # conjugate / norm = (r(p - q) - r q j) / (p^2 - p q + q^2).
        return _reduced(r * (p - q), -r * q, p * p - p * q + q * q)

    def __truediv__(self, other: Scalar) -> Scalar:
        return self * other.inverse()

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._r == other._r

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._r))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def is_rational(self) -> bool:
        return self._q == 0

    # -- numeric embedding ----------------------------------------------------

    def embed_complex(self) -> tuple[float, float]:
        """Floating (real, imaginary) pair under j = (-1 + i*sqrt(3)) / 2."""
        a, b = self._p / self._r, self._q / self._r
        return (a - b / 2.0, b * math.sqrt(3.0) / 2.0)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        a, b = self.a, self.b
        if (a, b) == (-1, -1):
            return "j^2"
        parts = [str(a)] if a != 0 else []
        if b != 0:
            parts.append("j" if b == 1 else "-j" if b == -1 else f"{b}*j")
        return _join_terms(parts)

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"


# The slot descriptors write the fields past the immutable ``__setattr__``.
_set_p = Scalar._p.__set__
_set_q = Scalar._q.__set__
_set_r = Scalar._r.__set__
_new = object.__new__


def _make(p: int, q: int, r: int) -> Scalar:
    """A Scalar from a triple already in canonical form; a one is ``ONE``."""
    if p == 1 and q == 0 and r == 1:
        return ONE
    s = _new(Scalar)
    _set_p(s, p)
    _set_q(s, q)
    _set_r(s, r)
    return s


def _reduced(p: int, q: int, r: int) -> Scalar:
    """A Scalar from a triple with ``r > 0``, divided by its gcd."""
    g = gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    return _make(p, q, r)


def _join_terms(parts: list[str]) -> str:
    """Parts as one signed sum, a part ``-p`` joined as ``... - p``; no parts is ``0``."""
    if not parts:
        return "0"
    out = [parts[0]]
    for p in parts[1:]:
        out += (" - ", p[1:]) if p.startswith("-") else (" + ", p)
    return "".join(out)


ZERO = Scalar(0)
ONE = Scalar(1)
J = Scalar(0, 1)
J2 = J * J  # == Scalar(-1, -1)


def scalar(a: RationalLike, b: RationalLike = 0) -> Scalar:
    """Build a Scalar from rational components."""
    return Scalar(a, b)


def jpow(s: int) -> Scalar:
    """j raised to an integer power (period 3)."""
    s %= 3
    if s == 0:
        return ONE
    return J if s == 1 else J2
