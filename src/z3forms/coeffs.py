"""The coefficient ("function") algebra.

Free associative algebra over *jet symbols* — formal function symbols
carrying a multiset of partial-derivative indices — with Scalar
coefficients from Q(j).  Supports:

* a commutative and a noncommutative mode (words are kept sorted in the
  commutative mode, order-preserved otherwise);
* the distinguished invertible pair ``U`` / ``Uinv`` whose adjacent
  products cancel and whose derivative is eagerly rewritten via
  ``derive(Uinv, m) == -Uinv * derive(U, m) * Uinv``;
* coordinate symbols ``x[i]`` with ``derive(x[i], q)`` equal to 1 when
  ``q == i`` and 0 otherwise;
* conjugation as an antiautomorphism: words reverse, scalars conjugate,
  and every base symbol not declared real toggles a bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .scalar import ONE, Scalar, ZERO

#: The one invertible pair of base names built into the algebra.
INVERSE_PAIRS = (("U", "Uinv"),)

#: Base name treated as a coordinate when indexed: derive(x[i], q) = delta_iq.
COORDINATE_BASE = "x"

#: Base names that are constants of the calculus: real, with zero derivative.
#: ``mu`` is the positive weight of the two-generator pairing sector.
CONSTANT_NAMES = frozenset({"mu"})


@dataclass(frozen=True)
class JetSymbol:
    """A formal jet: base symbol, optional index, sorted derivative indices.

    ``barred`` marks the conjugate partner of a symbol (produced by
    conjugation of expressions whose bases are not declared real).
    """

    name: str
    index: int | None = None
    derivs: tuple[int, ...] = ()
    barred: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "derivs", tuple(sorted(self.derivs)))
        if self.name == "Uinv" and self.derivs:
            raise ValueError(
                "jets of Uinv never survive normalization; use derive() instead"
            )
        if self.name == COORDINATE_BASE and self.index is not None and self.derivs:
            raise ValueError(
                "coordinate symbols differentiate to constants; "
                "jets of x[i] cannot be constructed"
            )
        if self.name in CONSTANT_NAMES and (self.derivs or self.barred):
            raise ValueError(f"{self.name} is a real constant: it has no jets "
                             "and no conjugate partner")
        # Symbols are dict keys in every word: hash once, not per lookup.
        object.__setattr__(
            self, "_hash", hash((self.name, self.index, self.derivs, self.barred))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # str hashes differ between processes: rebuild, never pickle _hash.
        return (JetSymbol, (self.name, self.index, self.derivs, self.barred))

    def with_deriv(self, m: int) -> JetSymbol:
        return JetSymbol(self.name, self.index, self.derivs + (m,), self.barred)

    def bar_toggled(self) -> JetSymbol:
        return JetSymbol(self.name, self.index, self.derivs, not self.barred)

    def is_coordinate(self) -> bool:
        return self.name == COORDINATE_BASE and self.index is not None

    def conjugated(self, real: frozenset[str] | set[str] = frozenset()) -> JetSymbol:
        """Image under conjugation: unchanged if real, else the barred partner.

        Real are the base names in ``real``, coordinates and constants.
        """
        if self.name in real or self.is_coordinate() or self.name in CONSTANT_NAMES:
            return self
        return self.bar_toggled()

    def sort_key(self) -> tuple:
        return (self.name, self.index if self.index is not None else -1,
                self.derivs, self.barred)

    def __str__(self) -> str:
        text = self.name
        if self.index is not None:
            text += f"[{self.index}]"
        if self.derivs:
            text += "_," + ",".join(str(i) for i in self.derivs)
        if self.barred:
            text = "~" + text
        return text


def jet(name: str, index: int | None = None, derivs: Iterable[int] = ()) -> JetSymbol:
    """Convenience constructor for a jet symbol."""
    return JetSymbol(name, index, tuple(derivs))


Word = tuple[JetSymbol, ...]


def _is_bare(sym: JetSymbol, name: str) -> bool:
    return sym.name == name and not sym.derivs and sym.index is None


#: Base names of the invertible pairs.
_PAIR_NAMES = frozenset(n for pair in INVERSE_PAIRS for n in pair)


def _cancel_adjacent(letters: list[JetSymbol]) -> list[JetSymbol]:
    """Remove adjacent U*Uinv / Uinv*U pairs (matching bar flags) to a fixed point."""
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            s, t = letters[i], letters[i + 1]
            if s.barred != t.barred:
                continue
            for left, right in INVERSE_PAIRS:
                names = {s.name, t.name}
                if names == {left, right} and _is_bare(s, s.name) and _is_bare(t, t.name):
                    del letters[i : i + 2]
                    changed = True
                    break
            if changed:
                break
    return letters


def _cancel_counted(letters: list[JetSymbol]) -> list[JetSymbol]:
    """Commutative-mode cancellation: pair off bare U with bare Uinv countwise.

    Bare letters with the same name and bar flag are equal, and the caller
    sorts the result, so it does not matter which copies are dropped.
    """
    counts: dict[tuple[str, bool], int] = {}
    for s in letters:
        if s.name in _PAIR_NAMES and not s.derivs and s.index is None:
            key = (s.name, s.barred)
            counts[key] = counts.get(key, 0) + 1
    drop: dict[tuple[str, bool], int] = {}
    for left, right in INVERSE_PAIRS:
        for barred in (False, True):
            pairs = min(counts.get((left, barred), 0), counts.get((right, barred), 0))
            if pairs:
                drop[(left, barred)] = drop[(right, barred)] = pairs
    if not drop:
        return letters
    out = []
    for s in letters:
        key = (s.name, s.barred)
        if drop.get(key) and not s.derivs and s.index is None:
            drop[key] -= 1
        else:
            out.append(s)
    return out


#: Base names whose letters normalization may cancel or move.
_SPECIAL_NAMES = _PAIR_NAMES | CONSTANT_NAMES


def normalize_word(word: Iterable[JetSymbol], commutative: bool) -> Word:
    word = tuple(word)
    for sym in word:
        if sym.name in _SPECIAL_NAMES:
            break
    else:
        return tuple(sorted(word, key=JetSymbol.sort_key)) if commutative else word
    letters = list(word)
    if commutative:
        letters = _cancel_counted(letters)
        letters.sort(key=JetSymbol.sort_key)
    else:
        # Constants are central: their canonical position is the front.
        consts = sorted(
            (s for s in letters if s.name in CONSTANT_NAMES), key=JetSymbol.sort_key
        )
        rest = [s for s in letters if s.name not in CONSTANT_NAMES]
        letters = consts + _cancel_adjacent(rest)
    return tuple(letters)


class CoeffExpr:
    """A Scalar-linear combination of words of jet symbols.

    Instances are immutable in use: every operation returns a new value.
    Both operands of a binary operation must share the same mode.
    """

    __slots__ = ("terms", "commutative")

    def __init__(
        self,
        terms: Mapping[Word, Scalar] | Iterable[tuple[Scalar, Iterable[JetSymbol]]] = (),
        commutative: bool = False,
    ) -> None:
        self.commutative = commutative
        acc: dict[Word, Scalar] = {}
        items: Iterable[tuple[Scalar, Iterable[JetSymbol]]]
        if isinstance(terms, Mapping):
            items = ((c, w) for w, c in terms.items())
        else:
            items = terms
        for coeff, word in items:
            w = normalize_word(word, commutative)
            val = acc.get(w, ZERO) + coeff
            if val.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = val
        self.terms = acc

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(commutative: bool = False) -> CoeffExpr:
        return CoeffExpr((), commutative)

    @staticmethod
    def unit(commutative: bool = False) -> CoeffExpr:
        return CoeffExpr([(ONE, ())], commutative)

    @staticmethod
    def from_symbol(sym: JetSymbol, commutative: bool = False) -> CoeffExpr:
        return CoeffExpr([(ONE, (sym,))], commutative)

    @staticmethod
    def from_scalar(s: Scalar, commutative: bool = False) -> CoeffExpr:
        return CoeffExpr([(s, ())], commutative)

    def _require_same_mode(self, other: CoeffExpr) -> None:
        if self.commutative != other.commutative:
            raise ValueError("mode mismatch: cannot combine commutative and "
                             "noncommutative coefficient expressions")

    # -- linear structure -------------------------------------------------------

    # The operands' words are canonical already, so these results are
    # built from their dicts without normalizing again.

    def __add__(self, other: CoeffExpr) -> CoeffExpr:
        self._require_same_mode(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            old = out.get(w)
            if old is None:
                out[w] = c
                continue
            val = old + c
            if val.is_zero():
                del out[w]
            else:
                out[w] = val
        return _make(out, self.commutative)

    def __sub__(self, other: CoeffExpr) -> CoeffExpr:
        return self + -other

    def __neg__(self) -> CoeffExpr:
        return _make({w: -c for w, c in self.terms.items()}, self.commutative)

    def scale(self, s: Scalar) -> CoeffExpr:
        if s.is_zero():
            return _make({}, self.commutative)
        return _make({w: c * s for w, c in self.terms.items()}, self.commutative)

    def __mul__(self, other: CoeffExpr) -> CoeffExpr:
        self._require_same_mode(other)
        items: list[tuple[Scalar, Word]] = []
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                items.append((c1 * c2, w1 + w2))
        return CoeffExpr(items, self.commutative)

    # -- predicates and equality -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffExpr):
            return NotImplemented
        return self.commutative == other.commutative and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.commutative, frozenset(self.terms.items())))

    def __iter__(self) -> Iterator[tuple[Word, Scalar]]:
        return iter(self.terms.items())

    # -- calculus -------------------------------------------------------------

    def derive(self, m: int) -> CoeffExpr:
        """Formal partial derivative: a derivation over word concatenation."""
        items: list[tuple[Scalar, tuple[JetSymbol, ...]]] = []
        for word, coeff in self.terms.items():
            for pos, sym in enumerate(word):
                head, tail = word[:pos], word[pos + 1 :]
                if sym.name == "Uinv":
                    uinv = JetSymbol("Uinv", barred=sym.barred)
                    du = JetSymbol("U", derivs=(m,), barred=sym.barred)
                    items.append((-coeff, head + (uinv, du, uinv) + tail))
                elif sym.is_coordinate():
                    if sym.index == m and not sym.derivs:
                        items.append((coeff, head + tail))
                elif sym.name in CONSTANT_NAMES:
                    pass  # constants differentiate to zero
                else:
                    items.append((coeff, head + (sym.with_deriv(m),) + tail))
        return CoeffExpr(items, self.commutative)

    def conjugate(self, real: frozenset[str] | set[str] = frozenset()) -> CoeffExpr:
        """Antiautomorphism: reverse words, conjugate scalars, bar non-real bases.

        ``real`` lists base names fixed by conjugation (e.g. real field
        components); coordinates are always real.
        """
        items: list[tuple[Scalar, tuple[JetSymbol, ...]]] = []
        for word, coeff in self.terms.items():
            new = tuple(sym.conjugated(real) for sym in reversed(word))
            items.append((coeff.conjugate(), new))
        return CoeffExpr(items, self.commutative)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        from .render import render_coeff

        return render_coeff(self)

    def __repr__(self) -> str:
        return f"CoeffExpr({self.terms!r}, commutative={self.commutative})"


def _make(terms: dict[Word, Scalar], commutative: bool) -> CoeffExpr:
    """A CoeffExpr from canonical words with nonzero coefficients."""
    out = object.__new__(CoeffExpr)
    out.terms = terms
    out.commutative = commutative
    return out


def derive(x: CoeffExpr, m: int) -> CoeffExpr:
    return x.derive(m)
