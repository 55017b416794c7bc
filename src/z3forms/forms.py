"""Graded exterior forms with a three-step differential (d^3 = 0, d^2 != 0).

Generators: ``dx[i]`` of grade 1 and ``ddx[i]`` of grade 2 (the image of
``dx[i]`` under ``d``).  A form is a Scalar-linear combination of
*interleaved words*: alternating maximal runs of coefficient symbols and
generators.  Functions multiply forms on the left only; coefficient runs
sitting between generators are part of the word and are NOT moved across
generators below total degree 3.

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
from operator import itemgetter
from typing import Iterable, Mapping

from .coeffs import CoeffExpr, JetSymbol, normalize_word
from .lincomb import LinComb, accumulate, total
from .scalar import J, ONE, Scalar, jpow

# A form-word letter is ("c", JetSymbol) | ("dx", int) | ("ddx", int).
Letter = tuple[str, object]
FormWord = tuple[Letter, ...]
# The derivatives of one coefficient run along q: (dx[q], [(coefficient, run)]).
DerivedGroup = tuple[Letter, list[tuple[Scalar, FormWord]]]

# A letter's grade is its degree mod 3.
_DEGREE = {"c": 0, "dx": 1, "ddx": 2}


def word_degree(word: FormWord) -> int:
    degree = 0
    for kind, _ in word:
        degree += _DEGREE[kind]
    return degree


def word_grade(word: FormWord) -> int:
    return word_degree(word) % 3


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


def _joined(runs: list[FormWord], commutative: bool) -> FormWord:
    """The coefficient runs of a degree-3 word joined into its one run."""
    if len(runs) < 2:
        return runs[0] if runs else ()
    syms = normalize_word([l[1] for run in runs for l in run], commutative)
    return tuple(("c", s) for s in syms)


def _normalize_runs(word: FormWord, commutative: bool) -> FormWord:
    """Normalize every maximal coefficient run in place (cancellations, sorting)."""
    out: list[Letter] = []
    run: list[JetSymbol] = []

    def flush() -> None:
        if run:
            for sym in normalize_word(tuple(run), commutative):
                out.append(("c", sym))
            run.clear()

    for letter in word:
        if letter[0] == "c":
            run.append(letter[1])  # type: ignore[arg-type]
        else:
            flush()
            out.append(letter)
    flush()
    return tuple(out)


def normalize_form_word(
    word: FormWord, commutative: bool
) -> list[tuple[Scalar, FormWord]]:
    """Full word normalization; returns [(phase, canonical word)] or []."""
    degree = word_degree(word)
    if degree > 3:
        return []
    if degree == 3:
        got = _canonical_generators(tuple(l for l in word if l[0] != "c"))
        if got is None:
            return []
        run = normalize_word([l[1] for l in word if l[0] == "c"], commutative)
        return [(got[0], tuple(("c", s) for s in run) + got[1])]
    return [(ONE, _normalize_runs(word, commutative))]


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
            for index in (l[1] for l in word if l[0] in ("dx", "ddx")):
                if not 1 <= index <= n:  # type: ignore[operator]
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
        # starts with: such a pair is canonical as built, as in ``d``.
        self._check(other)
        acc: dict[FormWord, Scalar] = {}
        right = [(w2, c2, word_degree(w2), bool(w2) and w2[0][0] == "c")
                 for w2, c2 in other.terms.items()]
        for w1, c1 in self.terms.items():
            degree1 = word_degree(w1)
            ends_in_run = bool(w1) and w1[-1][0] == "c"
            for w2, c2, degree2, starts_with_run in right:
                degree = degree1 + degree2
                if degree < 3 and not (ends_in_run and starts_with_run):
                    accumulate(acc, w1 + w2, c1 * c2)
                elif degree <= 3:
                    for phase, canon in normalize_form_word(w1 + w2, self.commutative):
                        accumulate(acc, canon, c1 * c2 * phase)
        return self._like(acc)

    # -- grading ----------------------------------------------------------------

    def grade_and_degree(self) -> tuple[int | str, int | str]:
        """Common (grade, degree) of all terms, or "mixed"; zero form is (0, 0)."""
        return (self._common(word_grade), self._common(word_degree))

    # -- differential ------------------------------------------------------------

    def d(self) -> Form:
        """The graded differential (block-atomic on coefficient runs).

        One walk over each word visits every maximal coefficient run and
        every generator once.  Each new term has one degree more than its
        word, so words of degree 3 contribute nothing.  Below degree 3 a
        new term is canonical as built: a derived run is normalized by
        ``derive`` and sits between a generator (or the start) and
        ``dx[q]``, so every run stays maximal; ``dx -> ddx`` changes no
        run.  A new term of degree 3 is the word's runs joined into one run
        (normalized only when there are two or more runs), then the
        canonical generator word; a degree-2 word is split into its runs
        and generators once, and its generator word and phase are
        canonicalized once per run and q.
        """
        acc: dict[FormWord, Scalar] = {}
        # Per run: its derivatives grouped by q, computed once per call.
        derived: dict[FormWord, list[DerivedGroup]] = {}
        commutative = self.commutative
        for word, coeff in self.terms.items():
            degree = word_degree(word)
            if degree == 3:
                continue
            top = degree == 2
            if top:
                runs = [tuple(run) for kind, run in groupby(word, itemgetter(0))
                        if kind == "c"]
                gens = tuple(l for l in word if l[0] != "c")
                joined = _joined(runs, commutative)
            size = len(word)
            prefix_grade = pos = r = g = 0  # grade, runs and generators before pos
            while pos < size:
                kind, payload = word[pos]
                end = pos + 1
                before = word[:pos]
                if kind == "c":
                    while end < size and word[end][0] == "c":
                        end += 1
                    after = word[end:]
                    c = coeff * jpow(prefix_grade)
                    for dxq, group in self._run_derivatives(word[pos:end], derived):
                        if not top:
                            for cc, run in group:
                                accumulate(acc, before + run + (dxq,) + after, c * cc)
                            continue
                        got = _canonical_generators(gens[:g] + (dxq,) + gens[g:])
                        if got is not None:
                            phase, canon = c * got[0], got[1]
                            for cc, run in group:
                                new = _joined(runs[:r] + [run] + runs[r + 1 :], commutative)
                                accumulate(acc, new + canon, phase * cc)
                    r += 1
                elif kind == "dx":
                    c = coeff * jpow(prefix_grade)
                    ddx = ("ddx", payload)
                    if not top:
                        accumulate(acc, before + (ddx,) + word[end:], c)
                    else:
                        got = _canonical_generators(gens[:g] + (ddx,) + gens[g + 1 :])
                        if got is not None:
                            accumulate(acc, joined + got[1], c * got[0])
                # d(ddx) == 0: no term
                if kind != "c":
                    g += 1
                prefix_grade += _DEGREE[kind]  # a coefficient run has grade 0
                pos = end
        return self._like(acc)

    def _run_derivatives(self, run: FormWord, derived: dict) -> list[DerivedGroup]:
        """[(dx[q], [(coefficient, derive(run, q) word)])] for every q whose
        derivative is nonzero, once per run."""
        out = derived.get(run)
        if out is None:
            word = tuple(l[1] for l in run)  # canonical already
            expr = CoeffExpr.zero(self.commutative)._like({word: ONE})
            out = derived[run] = []
            for q in range(1, self.n + 1):
                group = [(cc, tuple(("c", s) for s in cw))
                         for cw, cc in expr.derive(q).terms.items()]
                if group:
                    out.append((("dx", q), group))
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
        ((c, tuple(("c", s) for s in w)) for w, c in x.terms.items()),
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
    _, degree = x.grade_and_degree()
    if x.terms and degree != 3:
        raise ValueError("components are defined for forms of degree 3 only")
    # Each generator word meets a given run once, so the runs of one
    # index are distinct and canonical already.
    t3: dict[tuple[int, int, int], dict] = {}
    t21: dict[tuple[int, int], dict] = {}
    for word, coeff in x.terms.items():
        gens = [l for l in word if l[0] != "c"]
        run = tuple(l[1] for l in word if l[0] == "c")
        kinds = tuple(g[0] for g in gens)
        if kinds == ("dx", "dx", "dx"):
            t3.setdefault((gens[0][1], gens[1][1], gens[2][1]), {})[run] = coeff
        elif kinds == ("ddx", "dx"):
            t21.setdefault((gens[0][1], gens[1][1]), {})[run] = coeff
        else:  # pragma: no cover - normalization precludes this
            raise AssertionError(f"non-canonical degree-3 word {word}")
    zero = CoeffExpr.zero(x.commutative)
    return ComponentTable({k: zero._like(v) for k, v in t3.items()},
                          {k: zero._like(v) for k, v in t21.items()},
                          x.n, x.commutative)


def form_from_components(table: ComponentTable) -> Form:
    """Rebuild the degree-3 form represented by a component table."""
    items = []
    for (i, k, m), expr in table.T3.items():
        gens = (("dx", i), ("dx", k), ("dx", m))
        items += [(c, tuple(("c", s) for s in w) + gens) for w, c in expr.terms.items()]
    for (i, k), expr in table.T21.items():
        gens = (("ddx", i), ("dx", k))
        items += [(c, tuple(("c", s) for s in w) + gens) for w, c in expr.terms.items()]
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
