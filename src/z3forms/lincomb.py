"""Q(j)-linear combinations of canonical words: the core of every value.

A value is a dict ``terms`` from canonical word to nonzero Scalar plus
the parameters its class lists in ``__slots__`` (the coefficient mode,
the dimension, the generator count).  The five values are ``CoeffExpr``,
``Form``, ``GrassElement``, ``GradedMatrix`` (words ``(grade, row)``, no
parameters) and ``ConjForm``.  Only values of one class with equal
parameters combine.  Values are frozen: a subclass constructor
normalizes raw input into a local dict once, and every operation builds
a new value from canonical words through ``_like`` without normalizing
again.  ``total`` is the one sum: it adds any number of values into one
dict, and ``+`` is its one-value case.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .scalar import Scalar


def accumulate(terms: dict, word: object, coeff: Scalar) -> None:
    """Add ``coeff`` to ``terms[word]``, dropping the word when it cancels."""
    old = terms.get(word)
    val = coeff if old is None else old + coeff
    if val.is_zero():
        terms.pop(word, None)
    else:
        terms[word] = val


def total(start: LinComb, values: Iterable[LinComb]) -> LinComb:
    """``start`` plus every value, accumulated into one dict.

    Each value must pass ``start._check``.  Terms are inserted in the order
    a chain of ``+`` gives them.
    """
    terms = dict(start.terms)
    for value in values:
        start._check(value)
        for word, coeff in value.terms.items():
            accumulate(terms, word, coeff)
    return start._like(terms)


def common_value(values: set[int]) -> int | str:
    """The one value in ``values``, "mixed" if there are several, 0 if none."""
    if not values:
        return 0
    return values.pop() if len(values) == 1 else "mixed"


class LinComb:
    """Base class: the linear structure, equality and hashing of a value."""

    __slots__ = ("terms",)

    terms: dict

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # perfbench/layertrace.py wraps methods through each class's own
        # __dict__, so every class holds the shared operations itself.
        for name in ("__add__", "__sub__", "scale"):
            setattr(cls, name, vars(LinComb)[name])

    def _like(self, terms: dict) -> LinComb:
        """A value with this one's parameters; ``terms`` must be canonical."""
        out = object.__new__(type(self))
        out.terms = terms
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        return out

    def _check(self, other: LinComb) -> None:
        """Raise unless ``other`` belongs to this class with equal parameters."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        for name in self.__slots__:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(f"cannot combine {type(self).__name__} "
                                 f"values with different {name}")

    def _products(self, other: LinComb) -> list[tuple[Scalar, tuple]]:
        """Raw (coefficient, concatenated word) pairs of a product."""
        self._check(other)
        return [(c1 * c2, w1 + w2) for w1, c1 in self.terms.items()
                for w2, c2 in other.terms.items()]

    def __add__(self, other: LinComb) -> LinComb:
        return total(self, (other,))

    def __sub__(self, other: LinComb) -> LinComb:
        return self + -other

    def __neg__(self) -> LinComb:
        return self._like({w: -c for w, c in self.terms.items()})

    def scale(self, s: Scalar) -> LinComb:
        if s.is_zero():
            return self._like({})
        return self._like({w: c * s for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def _common(self, key: Callable[[Any], int]) -> int | str:
        """``key(word)`` shared by every term, "mixed" if two differ, 0 without terms."""
        return common_value({key(word) for word in self.terms})

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._params(), self.terms) == (other._params(), other.terms)

    def __hash__(self) -> int:
        return hash((self._params(), frozenset(self.terms.items())))

    def __iter__(self) -> Iterator[tuple[object, Scalar]]:
        return iter(self.terms.items())

    def __repr__(self) -> str:
        params = "".join(f"{name}={getattr(self, name)!r}, " for name in self.__slots__)
        return f"{type(self).__name__}({params}terms={self.terms!r})"
