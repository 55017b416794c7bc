"""Ternary analog of Grassmann algebra on N generators.

Generators ``th[A]`` carry grade 1 and conjugate generators ``bth[A]``
carry grade 2 (A = 1..N).  Binary products are free; ternary products
obey cyclic rotation rules with a cube-root-of-unity phase; all words of
length four or more vanish, as do mixed three-letter words and pure
triples with all indices equal.

Canonical words stored by ``GrassElement``:

* the empty word (unit), single letters;
* all two-letter words with any ``bth`` letters moved after ``th``
  letters (each swap contributes the phase j^2);
* pure three-letter words in their lexicographically least cyclic
  rotation, with phase j per left rotation for ``th`` triples and j^2
  per left rotation for ``bth`` triples.
"""

from __future__ import annotations

from typing import Iterable

from .forms import canonical_cycle
from .lincomb import LinComb, accumulate
from .scalar import J2, ONE, Scalar

# A letter is ("th" | "bth", index).
GrassLetter = tuple[str, int]
GrassWord = tuple[GrassLetter, ...]


def theta(index: int) -> GrassLetter:
    return ("th", index)


def bar_theta(index: int) -> GrassLetter:
    return ("bth", index)


def letter_grade(letter: GrassLetter) -> int:
    return 1 if letter[0] == "th" else 2


def word_grade(word: GrassWord) -> int:
    return sum(letter_grade(l) for l in word) % 3


def _normalize_letters(word: GrassWord, N: int) -> tuple[Scalar, GrassWord] | None:
    """Scalar-times-canonical-word for one raw word; None means zero."""
    for kind, index in word:
        if kind not in ("th", "bth"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if not 1 <= index <= N:
            raise ValueError(f"Grassmann index {index} out of range 1..{N}")
    if len(word) >= 4:
        return None
    if len(word) <= 1:
        return (ONE, word)
    kinds = {l[0] for l in word}
    if len(word) == 2:
        if kinds == {"th"} or kinds == {"bth"}:
            return (ONE, word)  # binary products are independent, kept as written
        if word[0][0] == "bth":  # reorder to th-before-bth, phase j^2 per swap
            return (J2, (word[1], word[0]))
        return (ONE, word)
    # length 3
    if len(kinds) > 1:
        return None  # mixed three-letter words vanish in the reduced algebra
    return canonical_cycle(word, 1 if kinds == {"th"} else 2)


class GrassElement(LinComb):
    """Scalar-linear combination of canonical generator words."""

    __slots__ = ("N",)

    def __init__(
        self, N: int, terms: Iterable[tuple[Scalar, GrassWord]] = ()
    ) -> None:
        if N < 1:
            raise ValueError("generator count must be a positive integer")
        self.N = N
        acc: dict[GrassWord, Scalar] = {}
        for coeff, word in terms:
            got = _normalize_letters(word, N)
            if got is not None:
                accumulate(acc, got[1], coeff * got[0])
        self.terms = acc

    @staticmethod
    def zero(N: int) -> GrassElement:
        return GrassElement(N)

    @staticmethod
    def unit(N: int) -> GrassElement:
        return GrassElement(N, [(ONE, ())])

    @staticmethod
    def word(N: int, letters: Iterable[GrassLetter]) -> GrassElement:
        return GrassElement(N, [(ONE, tuple(letters))])

    def __mul__(self, other: GrassElement) -> GrassElement:
        return GrassElement(self.N, self._products(other))

    def grade(self) -> int | str:
        """Common grade of all terms, "mixed" otherwise; the zero element is 0."""
        return self._common(word_grade)

    def __str__(self) -> str:
        from .render import render_grass

        return render_grass(self)


def enumerate_basis(N: int) -> list[tuple[GrassWord, int]]:
    """All canonical nonzero words with their grades, in deterministic order.

    Counts: 1 unit, N + N single letters, 3 N^2 two-letter words, and
    (N^3 - N)/3 cyclic classes for each pure triple kind.
    """
    basis: list[tuple[GrassWord, int]] = [((), 0)]
    rng = range(1, N + 1)
    for kind in ("th", "bth"):
        for a in rng:
            word: GrassWord = ((kind, a),)
            basis.append((word, word_grade(word)))
    for k1, k2 in (("th", "th"), ("bth", "bth"), ("th", "bth")):
        for a in rng:
            for b in rng:
                word = ((k1, a), (k2, b))
                basis.append((word, word_grade(word)))
    for kind in ("th", "bth"):
        seen: set[GrassWord] = set()
        for a in rng:
            for b in rng:
                for c in rng:
                    if a == b == c:
                        continue
                    _, least = canonical_cycle(((kind, a), (kind, b), (kind, c)))
                    if least not in seen:
                        seen.add(least)
                        basis.append((least, word_grade(least)))
    return basis


def theta_only_count(N: int) -> int:
    """Number of basis words built from ``th`` letters alone (unit excluded)."""
    return sum(
        1
        for word, _ in enumerate_basis(N)
        if word and all(kind == "th" for kind, _ in word)
    )
