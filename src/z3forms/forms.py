"""Graded exterior forms with a three-step differential (d^3 = 0, d^2 != 0).

Generators: ``dx[i]`` of grade 1 and ``ddx[i]`` of grade 2 (the image of
``dx[i]`` under ``d``).  A form is a Scalar-linear combination of
*interleaved words*: alternating maximal runs of coefficient symbols and
generators.  Functions multiply forms on the left only; coefficient runs
sitting between generators are part of the word and are NOT moved across
generators below total degree 3.

A word is a tuple of letters.  A coefficient letter is the ``JetSymbol``
itself; a generator is the plain tuple ``("dx", i)`` or ``("ddx", i)``.
The two are told apart by type, never by name (and no symbol may be
named ``dx`` or ``ddx``: see ``coeffs.RESERVED_NAMES``).

Normalization rules, applied to every stored word:

a. total degree > 3            -> 0
b. ddx[i] ddx[k]               -> 0
c. dx[i] ddx[k]                -> j * ddx[k] dx[i]
d. at degree exactly 3, coefficients collapse to a single left run
   (order preserved, no phase) and the generator word is canonicalized:
   pure dx-triples rotate to the lexicographically least rotation with a
   phase j per left rotation; triples with all indices equal vanish;
   the mixed pattern is stored ddx-first.
e. below degree 3 the interleaving is kept as written.

The differential treats each maximal coefficient run as a single factor:
``d`` of a run R inserts ``sum_q derive(R, q) dx[q]`` with the
differentiated run kept as one block, and crossing a factor of grade p
contributes the phase j^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Mapping

from .coeffs import CoeffExpr, JetSymbol, letter_derivative, normalize_word, substitute
from .lincomb import LinComb, accumulate, common_value, total
from .scalar import J, ONE, Scalar, jpow

# A form-word letter is a JetSymbol, ("dx", int) or ("ddx", int); a letter
# is a generator exactly when ``type(letter) is tuple``.
Letter = JetSymbol | tuple[str, int]
FormWord = tuple[Letter, ...]
# The derivatives of one coefficient run along q: (dx[q], [(run, coefficient)]).
DerivedGroup = tuple[Letter, list[tuple[FormWord, Scalar]]]

# A generator's degree; a coefficient letter has degree 0.  A letter's
# grade is its degree mod 3.
_DEGREE = {"dx": 1, "ddx": 2}


def word_degree(word: FormWord) -> int:
    degree = 0
    for letter in word:
        if type(letter) is tuple:
            degree += _DEGREE[letter[0]]
    return degree


def canonical_cycle(triple: tuple, phase_step: int = 1) -> tuple[Scalar, tuple] | None:
    """(j^(phase_step * s), least rotation) of a triple, or None if all coincide.

    ``s`` is the number of left rotations that gives the least rotation.  A
    triple of three equal letters is zero: its orbit relation forces
    (1 - j) w = 0.
    """
    if triple[0] == triple[1] == triple[2]:
        return None
    rotations = [triple, triple[1:] + triple[:1], triple[2:] + triple[:2]]
    least = min(rotations)
    return (jpow(phase_step * rotations.index(least)), least)


@lru_cache(maxsize=4096)
def _canonical_generators(
    gens: tuple[Letter, ...]
) -> tuple[Scalar, tuple[Letter, ...]] | None:
    """Canonicalize the generator part of a degree-3 word; None means zero.

    Memoized: ``normalize_form_word`` and ``Form.d`` call it for every
    degree-3 term.  Dimension n has n^3 + 2n^2 degree-3 generator words
    (``dx dx dx``, ``ddx dx`` and ``dx ddx``), so the cache holds all of
    them up to n = 15.
    """
    kinds = tuple(g[0] for g in gens)
    if kinds == ("dx", "dx", "dx"):
        return canonical_cycle(gens)
    if kinds == ("ddx", "dx"):
        return (ONE, gens)
    if kinds == ("dx", "ddx"):
        return (J, (gens[1], gens[0]))
    raise AssertionError(f"impossible degree-3 generator pattern {kinds}")


def _split(word: FormWord) -> tuple[FormWord, tuple[JetSymbol, ...]]:
    """(generator letters, coefficient symbols) of a form word."""
    return (tuple(l for l in word if type(l) is tuple),
            tuple(l for l in word if type(l) is not tuple))


def normalize_form_word(
    word: FormWord, commutative: bool
) -> list[tuple[Scalar, FormWord]]:
    """Full word normalization; returns [(phase, canonical word)] or []."""
    degree = word_degree(word)
    if degree > 3:
        return []
    if degree == 3:
        gens, syms = _split(word)
        got = _canonical_generators(gens)
        if got is None:
            return []
        return [(got[0], normalize_word(syms, commutative) + got[1])]
    # Below degree 3 every maximal coefficient run is normalized in place.
    out: list[Letter] = []
    for kind, group in groupby(word, type):
        out.extend(group if kind is tuple else normalize_word(group, commutative))
    return [(ONE, tuple(out))]


class Form(LinComb):
    """A linear combination of normalized interleaved form words."""

    __slots__ = ("n", "commutative")

    def __init__(
        self,
        n: int,
        terms: Iterable[tuple[Scalar, FormWord]] = (),
        commutative: bool = False,
    ) -> None:
        if n < 1:
            raise ValueError("dimension must be a positive integer")
        self.n = n
        self.commutative = commutative
        acc: dict[FormWord, Scalar] = {}
        for coeff, word in terms:
            for kind, index in (l for l in word if type(l) is tuple):
                if kind not in _DEGREE:
                    raise ValueError(f"unknown generator kind {kind!r}")
                if not 1 <= index <= n:
                    raise ValueError(f"generator index {index} out of range 1..{n}")
            for phase, canon in normalize_form_word(word, commutative):
                accumulate(acc, canon, coeff * phase)
        self.terms = acc

    @staticmethod
    def zero(n: int, commutative: bool = False) -> Form:
        return Form(n, (), commutative)

    def __mul__(self, other: Form) -> Form:
        # Both operands hold checked indices for the same n, so the
        # products skip the index check; degrees above 3 are never built.
        # Below degree 3 rules b-d do not apply, and every run of w1 + w2
        # stays maximal and normalized unless w1 ends in a run that w2
        # starts with: such a pair is canonical as built, as in ``d``.  At
        # degree 3 each word is split into its generators and coefficient
        # symbols once, not once per pair.
        self._check(other)
        commutative = self.commutative
        acc: dict[FormWord, Scalar] = {}
        right = [(w2, c2, word_degree(w2), bool(w2) and type(w2[0]) is not tuple, _split(w2))
                 for w2, c2 in other.terms.items()]
        for w1, c1 in self.terms.items():
            degree1 = word_degree(w1)
            ends_in_run = bool(w1) and type(w1[-1]) is not tuple
            gens1, syms1 = _split(w1)
            for w2, c2, degree2, starts_with_run, (gens2, syms2) in right:
                degree = degree1 + degree2
                if degree < 3 and not (ends_in_run and starts_with_run):
                    accumulate(acc, w1 + w2, c1 * c2)
                elif degree < 3:
                    for phase, canon in normalize_form_word(w1 + w2, commutative):
                        accumulate(acc, canon, c1 * c2 * phase)
                elif degree == 3:
                    got = _canonical_generators(gens1 + gens2)
                    if got is not None:
                        run = normalize_word(syms1 + syms2, commutative)
                        accumulate(acc, run + got[1], c1 * c2 * got[0])
        return self._like(acc)

    # -- grading ----------------------------------------------------------------

    def grade_and_degree(self) -> tuple[int | str, int | str]:
        """Common (grade, degree) of all terms, or "mixed"; zero form is (0, 0)."""
        degrees = {word_degree(word) for word in self.terms}
        return (common_value({d % 3 for d in degrees}), common_value(degrees))

    # -- differential ------------------------------------------------------------

    def d(self) -> Form:
        """The graded differential (block-atomic on coefficient runs).

        One walk over each word visits every maximal coefficient run and
        every generator once; words of degree 3 contribute nothing.  Each
        run is derived once per call, by ``_run_derivatives``.  Below
        degree 3 a new term is canonical as built: the derived run is
        normalized as ``substitute`` says and stays maximal, and
        ``dx -> ddx`` changes no run.  A new term of degree 3 is one left
        run (the runs before the derived run, it, the runs after it), then
        the canonical generator word, whose phase is computed once per run
        and q.  The left run needs normalizing where ``substitute`` would:
        when the concatenated runs are not canonical (up to order when
        commutative), or when a dropped coordinate shortened the run.  Its
        normal form is injective in the derived run, so terms group as in
        ``derive``.
        """
        acc: dict[FormWord, Scalar] = {}
        commutative = self.commutative
        # Per call: each letter's derivatives, and each run's, by q.
        letters: dict[Letter, list[list]] = {}
        derived: dict[FormWord, list[DerivedGroup]] = {}
        for word, coeff in self.terms.items():
            degree = word_degree(word)
            if degree == 3:
                continue
            top = degree == 2
            if top:
                gens, concat = _split(word)
                joined = normalize_word(concat, commutative)
                clean = len(joined) == len(concat) if commutative else joined == concat
            size = len(word)
            prefix_grade = pos = g = 0  # grade and generators before pos
            while pos < size:
                letter = word[pos]
                if type(letter) is tuple:
                    kind, index = letter
                    if kind == "dx":
                        c = coeff * jpow(prefix_grade)
                        ddx = ("ddx", index)
                        if not top:
                            accumulate(acc, word[:pos] + (ddx,) + word[pos + 1 :], c)
                        else:
                            got = _canonical_generators(gens[:g] + (ddx,) + gens[g + 1 :])
                            if got is not None:
                                accumulate(acc, joined + got[1], c * got[0])
                    # d(ddx) == 0: no term
                    g += 1
                    prefix_grade += _DEGREE[kind]
                    pos += 1
                    continue
                # A maximal coefficient run word[pos:end], of grade 0.
                end = pos + 1
                while end < size and type(word[end]) is not tuple:
                    end += 1
                c = coeff * jpow(prefix_grade)
                run = word[pos:end]
                # The letters around the run: of the word, or at degree 3 of its runs.
                before, after = ((concat[: pos - g], concat[end - g :]) if top
                                 else (word[:pos], word[end:]))
                for dxq, group in self._run_derivatives(run, letters, derived):
                    if not top:
                        for new, cc in group:
                            accumulate(acc, before + new + (dxq,) + after, c * cc)
                        continue
                    got = _canonical_generators(gens[:g] + (dxq,) + gens[g:])
                    if got is None:
                        continue
                    phase, canon = c * got[0], got[1]
                    for new, cc in group:
                        left = before + new + after
                        if not clean or len(left) < len(concat):
                            left = normalize_word(left, commutative)
                        elif commutative:
                            left = tuple(sorted(left))
                        accumulate(acc, left + canon, phase * cc)
                pos = end
        return self._like(acc)

    def _run_derivatives(self, run: FormWord, letters: dict,
                         derived: dict) -> list[DerivedGroup]:
        """[(dx[q], [(derive(run, q) word, coefficient)])] for every q whose
        derivative is nonzero, in one walk over the run, once per call.
        ``letters`` holds each letter's derivatives along q = 1..n."""
        out = derived.get(run)
        if out is None:
            groups: list[dict[FormWord, Scalar]] = [{} for _ in range(self.n)]
            for pos, letter in enumerate(run):
                tables = letters.get(letter)
                if tables is None:
                    tables = letters[letter] = [letter_derivative(letter, q)
                                                for q in range(1, self.n + 1)]
                for group, table in zip(groups, tables):
                    for sign, repl in table:
                        accumulate(group, substitute(run, pos, repl, self.commutative),
                                   sign)
            out = derived[run] = [(("dx", q), list(group.items()))
                                  for q, group in enumerate(groups, 1) if group]
        return out

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        from .render import render_form

        return render_form(self)


# -- public constructors -------------------------------------------------------


def coefficient_form(x: CoeffExpr, n: int) -> Form:
    """Embed a coefficient expression as a degree-0 form."""
    return Form(
        n,
        ((c, w) for w, c in x.terms.items()),
        x.commutative,
    )


def dx(i: int, n: int, commutative: bool = False) -> Form:
    return Form(n, [(ONE, (("dx", i),))], commutative)


def ddx(i: int, n: int, commutative: bool = False) -> Form:
    return Form(n, [(ONE, (("ddx", i),))], commutative)


def coordinate(i: int, n: int, commutative: bool = False) -> Form:
    """The coordinate function x[i] as a degree-0 form."""
    return coefficient_form(
        CoeffExpr.from_symbol(JetSymbol("x", i), commutative), n
    )


# -- degree-3 component tables ---------------------------------------------------


@dataclass(frozen=True)
class ComponentTable:
    """Coefficient tables of a degree-3 form.

    ``T3`` maps canonical dx-triples to coefficients, ``T21`` maps (i, k)
    of the ddx[i] dx[k] sector to coefficients.
    """

    T3: Mapping[tuple[int, int, int], CoeffExpr]
    T21: Mapping[tuple[int, int], CoeffExpr]
    n: int
    commutative: bool


def components(x: Form) -> ComponentTable:
    """Decompose a degree-3 form into its two coefficient tables."""
    if x.terms and x._common(word_degree) != 3:
        raise ValueError("components are defined for forms of degree 3 only")
    # A canonical degree-3 word is its run, then ``ddx dx`` or ``dx dx dx``.
    # Each generator word meets a given run once, so the runs of one index
    # are distinct and canonical already.
    t3: dict[tuple[int, int, int], dict] = {}
    t21: dict[tuple[int, int], dict] = {}
    for word, coeff in x.terms.items():
        size, table = (2, t21) if word[-2][0] == "ddx" else (3, t3)
        table.setdefault(tuple(l[1] for l in word[-size:]), {})[word[:-size]] = coeff
    zero = CoeffExpr.zero(x.commutative)
    return ComponentTable({k: zero._like(v) for k, v in t3.items()},
                          {k: zero._like(v) for k, v in t21.items()},
                          x.n, x.commutative)


def form_from_components(table: ComponentTable) -> Form:
    """Rebuild the degree-3 form represented by a component table."""
    items = []
    for (i, k, m), expr in table.T3.items():
        gens = (("dx", i), ("dx", k), ("dx", m))
        items += [(c, w + gens) for w, c in expr.terms.items()]
    for (i, k), expr in table.T21.items():
        gens = (("ddx", i), ("dx", k))
        items += [(c, w + gens) for w, c in expr.terms.items()]
    return Form(table.n, items, table.commutative)


def redistribute_t3(
    T3: Mapping[tuple[int, int, int], CoeffExpr]
) -> dict[tuple[int, int, int], CoeffExpr]:
    """Spread a canonical-representative table evenly over full index triples.

    Each canonical word equals j^s times its s-fold left rotation, so the
    canonical coefficient X contributes (1/3) j^s X at the s-fold rotation;
    the resulting full table represents the same form.
    """
    third = Scalar(Fraction(1, 3))
    bumps: dict[tuple[int, int, int], list[CoeffExpr]] = {}
    for triple, expr in T3.items():
        for s in range(3):
            rotated = triple[s:] + triple[:s]
            bumps.setdefault(rotated, []).append(expr.scale(jpow(s) * third))
    full = {k: total(v[0], v[1:]) for k, v in bumps.items()}
    return {k: v for k, v in full.items() if not v.is_zero()}
