"""The coefficient ("function") algebra.

Free associative algebra over *jet symbols* — formal function symbols
carrying a multiset of partial-derivative indices — with Scalar
coefficients from Q(j).  Supports:

* a commutative and a noncommutative mode (words are kept sorted in the
  commutative mode, order-preserved otherwise);
* the distinguished invertible pair ``U`` / ``Uinv`` (neither takes an
  index) whose adjacent products cancel and whose derivative is eagerly
  rewritten via ``derive(Uinv, m) == -Uinv * derive(U, m) * Uinv``;
* coordinate symbols ``x[i]`` with ``derive(x[i], q)`` equal to 1 when
  ``q == i`` and 0 otherwise;
* conjugation as an antiautomorphism: words reverse, scalars conjugate,
  and every base symbol not declared real toggles a bar.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import itemgetter

from .lincomb import LinComb, accumulate
from .scalar import ONE, Scalar

#: The one invertible pair of base names built into the algebra.
INVERSE_PAIRS = (("U", "Uinv"),)

#: Base name treated as a coordinate when indexed: derive(x[i], q) = delta_iq.
COORDINATE_BASE = "x"

#: Base names that are constants of the calculus: real, with zero derivative.
#: ``mu`` is the positive weight of the two-generator pairing sector.
CONSTANT_NAMES = frozenset({"mu"})

#: Base names of the invertible pairs.
_PAIR_NAMES = frozenset(n for pair in INVERSE_PAIRS for n in pair)

#: The words the expression grammar reads as something other than a symbol,
#: by what they read as.  No symbol takes one as its name.
RESERVED_NAMES = {"dx": "generator", "ddx": "generator", "delx": "generator",
                  "del2x": "generator", "th": "generator", "bth": "generator", "j": "scalar",
                  "d": "differential", "delta": "conjugation", "mat": "matrix"}


class JetSymbol(tuple):
    """A formal jet: base symbol, optional index, sorted derivative indices.

    ``barred`` marks the conjugate partner of a symbol (produced by
    conjugation of expressions whose bases are not declared real).  A
    coordinate ``x[i]`` is real, so it drops a bar it is given.

    A symbol is the tuple ``(name, index, derivs, barred)``, with index -1
    for "no index", so the dict lookups of the words it sits in hash and
    compare it in C, and tuple order is the canonical letter order: by
    name, then index (none before 0), then derivatives, then bar.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        index: int | None = None,
        derivs: Iterable[int] = (),
        barred: bool = False,
    ) -> JetSymbol:
        # An identifier of the grammar is an ASCII letter, then letters and digits.
        if name in RESERVED_NAMES or not (name.isascii() and name.isalnum()
                                          and name[0].isalpha()):
            raise ValueError(f"{name!r} is not a symbol name: names are identifiers "
                             "other than the words of the expression grammar")
        if index is None:
            index = -1
        elif index < 0:
            raise ValueError(f"symbol index {index} is negative")
        derivs = tuple(sorted(derivs))
        if name in _PAIR_NAMES and index >= 0:
            raise ValueError(f"{name} takes no index: U and Uinv are one "
                             "invertible pair")
        if name == "Uinv" and derivs:
            raise ValueError(
                "jets of Uinv never survive normalization; use derive() instead"
            )
        if name == COORDINATE_BASE and index >= 0:
            if derivs:
                raise ValueError("coordinate symbols differentiate to constants; "
                                 "jets of x[i] cannot be constructed")
            barred = False  # a coordinate is real: ~x[i] is x[i]
        if name in CONSTANT_NAMES and (derivs or barred):
            raise ValueError(f"{name} is a real constant: it has no jets "
                             "and no conjugate partner")
        return tuple.__new__(cls, (name, index, derivs, barred))

    name = property(itemgetter(0))
    derivs = property(itemgetter(2))
    barred = property(itemgetter(3))

    @property
    def index(self) -> int | None:
        return None if self[1] < 0 else self[1]

    def __getnewargs__(self) -> tuple:
        return (self[0], self.index, self[2], self[3])

    def __repr__(self) -> str:
        name, index, derivs, barred = self
        return (f"JetSymbol(name={name!r}, index={index if index >= 0 else None!r}, "
                f"derivs={derivs!r}, barred={barred!r})")

    def with_deriv(self, m: int) -> JetSymbol:
        return JetSymbol(self[0], self.index, self[2] + (m,), self[3])

    def bar_toggled(self) -> JetSymbol:
        return JetSymbol(self[0], self.index, self[2], not self[3])

    def is_coordinate(self) -> bool:
        return self[0] == COORDINATE_BASE and self[1] >= 0

    def conjugated(self, real: frozenset[str] | set[str] = frozenset()) -> JetSymbol:
        """Image under conjugation: unchanged if real, else the barred partner.

        Real are the base names in ``real``, coordinates and constants.
        """
        if self.name in real or self.is_coordinate() or self.name in CONSTANT_NAMES:
            return self
        return self.bar_toggled()

    def __str__(self) -> str:
        name, index, derivs, barred = self
        text = name if index < 0 else f"{name}[{index}]"
        if derivs:
            text += "_," + ",".join(str(i) for i in derivs)
        if barred:
            text = "~" + text
        return text


Word = tuple[JetSymbol, ...]


#: Each bare letter of an invertible pair -> the letter it cancels against.
_INVERSE = {
    JetSymbol(a, barred=barred): JetSymbol(b, barred=barred)
    for pair in INVERSE_PAIRS
    for a, b in (pair, pair[::-1])
    for barred in (False, True)
}


def _cancel_adjacent(letters: list[JetSymbol]) -> list[JetSymbol]:
    """Remove adjacent U*Uinv / Uinv*U pairs (matching bar flags) to a fixed point.

    Free reduction is confluent, so one left-to-right stack pass gives the
    fixed point of cancelling pairs in any order.
    """
    out: list[JetSymbol] = []
    for s in letters:
        if out and _INVERSE.get(out[-1]) == s:
            out.pop()
        else:
            out.append(s)
    return out


def _cancel_counted(letters: list[JetSymbol]) -> list[JetSymbol]:
    """Commutative-mode cancellation: pair off bare U with bare Uinv countwise.

    Each bare letter (a key of ``_INVERSE``) loses as many copies as it can
    pair with its inverse.  The caller sorts the result, so it does not
    matter which copies are dropped.
    """
    drop = {s: min(letters.count(s), letters.count(inv)) for s, inv in _INVERSE.items()
            if s in letters and inv in letters}
    if not drop:
        return letters
    out = []
    for s in letters:
        if drop.get(s):
            drop[s] -= 1
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
        return tuple(sorted(word)) if commutative else word
    letters = list(word)
    if commutative:
        letters = _cancel_counted(letters)
        letters.sort()
    else:
        # Constants are central: their canonical position is the front.
        consts = sorted(s for s in letters if s.name in CONSTANT_NAMES)
        rest = [s for s in letters if s.name not in CONSTANT_NAMES]
        letters = consts + _cancel_adjacent(rest)
    return tuple(letters)


def letter_derivative(sym: JetSymbol, m: int) -> list[tuple[Scalar, Word]]:
    """``derive(sym, m)`` as [(sign, letters that replace sym)]: nothing for a
    constant or another coordinate, 1 for ``x[m]``, ``-Uinv U_,m Uinv`` for
    ``Uinv`` and the jet with ``m`` added for any other symbol."""
    name, index, derivs, barred = sym
    if name in CONSTANT_NAMES:
        return []
    if name == COORDINATE_BASE and index >= 0:
        return [(ONE, ())] if index == m else []
    if name == "Uinv":
        uinv = JetSymbol("Uinv", barred=barred)
        return [(-ONE, (uinv, JetSymbol("U", derivs=(m,), barred=barred), uinv))]
    # The cases above leave a jet that needs none of ``JetSymbol.__new__``'s checks.
    return [(ONE, (tuple.__new__(JetSymbol, (name, index, tuple(sorted(derivs + (m,))),
                                             barred)),))]


def substitute(word: Word, pos: int, repl: Word, commutative: bool) -> Word:
    """``word`` with the letter at ``pos`` replaced by ``repl``, in normal form.

    ``word`` is canonical and ``repl`` is a term of that letter's
    ``letter_derivative``.  A jet in place of its letter, or
    ``Uinv U_,m Uinv`` in place of ``Uinv``, creates no cancelling pair, so
    the word is only re-sorted in the commutative mode.  Dropping a
    coordinate can bring ``U`` next to ``Uinv`` (``U x[m] Uinv``), so that
    word is normalized.
    """
    new = word[:pos] + repl + word[pos + 1 :]
    if not repl:
        return normalize_word(new, commutative)
    return tuple(sorted(new)) if commutative else new


class CoeffExpr(LinComb):
    """A Scalar-linear combination of words of jet symbols.

    Both operands of a binary operation must share the same mode.
    """

    __slots__ = ("commutative",)

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
            accumulate(acc, normalize_word(word, commutative), coeff)
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

    def __mul__(self, other: CoeffExpr) -> CoeffExpr:
        return CoeffExpr(self._products(other), self.commutative)

    # -- calculus -------------------------------------------------------------

    def derive(self, m: int) -> CoeffExpr:
        """Formal partial derivative: a derivation over word concatenation.

        Each term replaces one letter of a canonical word by a term of its
        ``letter_derivative``, in normal form as ``substitute`` gives it.
        """
        commutative = self.commutative
        acc: dict[Word, Scalar] = {}
        for word, coeff in self.terms.items():
            for pos, sym in enumerate(word):
                for sign, repl in letter_derivative(sym, m):
                    accumulate(acc, substitute(word, pos, repl, commutative),
                               coeff if sign is ONE else -coeff)
        return self._like(acc)

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
