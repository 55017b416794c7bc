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
from typing import Iterable, Iterator, Mapping

from .coeffs import CoeffExpr, JetSymbol, Word as CoeffWord, normalize_word
from .scalar import J, ONE, Scalar, ZERO, jpow

# A form-word letter is ("c", JetSymbol) | ("dx", int) | ("ddx", int).
Letter = tuple[str, object]
FormWord = tuple[Letter, ...]

_GRADE = {"c": 0, "dx": 1, "ddx": 2}
_DEGREE = {"c": 0, "dx": 1, "ddx": 2}


def letter_grade(letter: Letter) -> int:
    return _GRADE[letter[0]]


def letter_degree(letter: Letter) -> int:
    return _DEGREE[letter[0]]


def word_degree(word: FormWord) -> int:
    return sum(letter_degree(l) for l in word)


def word_grade(word: FormWord) -> int:
    return sum(letter_grade(l) for l in word) % 3


def _letter_key(letter: Letter) -> tuple:
    kind, payload = letter
    if kind == "c":
        return (0, payload.sort_key())
    return (1 if kind == "dx" else 2, payload)


def word_key(word: FormWord) -> tuple:
    """Deterministic ordering key for stored words (degree, grade, letters)."""
    return (word_degree(word), word_grade(word), len(word),
            tuple(_letter_key(l) for l in word))


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


def _canonical_generators(gens: list[Letter]) -> tuple[Scalar, tuple[Letter, ...]] | None:
    """Canonicalize the generator part of a degree-3 word; None means zero."""
    kinds = tuple(g[0] for g in gens)
    if kinds == ("dx", "dx", "dx"):
        return canonical_cycle(tuple(gens))
    if kinds == ("ddx", "dx"):
        return (ONE, tuple(gens))
    if kinds == ("dx", "ddx"):
        return (J, (gens[1], gens[0]))
    if kinds == ("ddx", "ddx"):
        return None
    raise AssertionError(f"impossible degree-3 generator pattern {kinds}")


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
        coeff_syms = [l[1] for l in word if l[0] == "c"]
        gens = [l for l in word if l[0] != "c"]
        got = _canonical_generators(gens)
        if got is None:
            return []
        phase, gen_word = got
        run = normalize_word(tuple(coeff_syms), commutative)  # type: ignore[arg-type]
        collapsed = tuple(("c", s) for s in run) + gen_word
        return [(phase, collapsed)]
    return [(ONE, _normalize_runs(word, commutative))]


class Form:
    """A linear combination of normalized interleaved form words."""

    __slots__ = ("terms", "n", "commutative")

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
        self.terms: dict[FormWord, Scalar] = {}
        for coeff, word in terms:
            self._add_term(coeff, word)

    def _add_term(self, coeff: Scalar, word: FormWord) -> None:
        for index in (l[1] for l in word if l[0] in ("dx", "ddx")):
            if not 1 <= index <= self.n:  # type: ignore[operator]
                raise ValueError(f"generator index {index} out of range 1..{self.n}")
        for phase, canon in normalize_form_word(word, self.commutative):
            val = self.terms.get(canon, ZERO) + coeff * phase
            if val.is_zero():
                self.terms.pop(canon, None)
            else:
                self.terms[canon] = val

    # -- construction helpers ---------------------------------------------------

    @staticmethod
    def zero(n: int, commutative: bool = False) -> Form:
        return Form(n, (), commutative)

    def _require_compatible(self, other: Form) -> None:
        if self.n != other.n:
            raise ValueError("dimension mismatch between forms")
        if self.commutative != other.commutative:
            raise ValueError("mode mismatch between forms")

    # -- module structure -------------------------------------------------------

    def __add__(self, other: Form) -> Form:
        self._require_compatible(other)
        out = Form(self.n, (), self.commutative)
        out.terms = dict(self.terms)
        for word, coeff in other.terms.items():
            val = out.terms.get(word, ZERO) + coeff
            if val.is_zero():
                out.terms.pop(word, None)
            else:
                out.terms[word] = val
        return out

    def __sub__(self, other: Form) -> Form:
        return self + other.scale(-ONE)

    def __neg__(self) -> Form:
        return self.scale(-ONE)

    def scale(self, s: Scalar) -> Form:
        out = Form(self.n, (), self.commutative)
        if not s.is_zero():
            out.terms = {w: c * s for w, c in self.terms.items()}
        return out

    def __mul__(self, other: Form) -> Form:
        self._require_compatible(other)
        out = Form(self.n, (), self.commutative)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out._add_term(c1 * c2, w1 + w2)
        return out

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.n == other.n and self.commutative == other.commutative
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.n, self.commutative, frozenset(self.terms.items())))

    def __iter__(self) -> Iterator[tuple[FormWord, Scalar]]:
        return iter(self.terms.items())

    # -- grading ----------------------------------------------------------------

    def grade_and_degree(self) -> tuple[int | str, int | str]:
        """Common (grade, degree) of all terms, or "mixed"; zero form is (0, 0)."""
        if not self.terms:
            return (0, 0)
        grades = {word_grade(w) for w in self.terms}
        degrees = {word_degree(w) for w in self.terms}
        grade: int | str = grades.pop() if len(grades) == 1 else "mixed"
        degree: int | str = degrees.pop() if len(degrees) == 1 else "mixed"
        return (grade, degree)

    # -- differential ------------------------------------------------------------

    def d(self) -> Form:
        """The graded differential (block-atomic on coefficient runs)."""
        out = Form(self.n, (), self.commutative)
        for word, coeff in self.terms.items():
            factors = _split_factors(word)
            prefix_grade = 0
            for pos, factor in enumerate(factors):
                phase = jpow(prefix_grade)
                before = _join_factors(factors[:pos])
                after = _join_factors(factors[pos + 1 :])
                if factor[0] == "run":
                    run_expr = CoeffExpr(
                        [(ONE, factor[1])], self.commutative  # type: ignore[list-item]
                    )
                    for q in range(1, self.n + 1):
                        derived = run_expr.derive(q)
                        for cw, cc in derived.terms.items():
                            repl = tuple(("c", s) for s in cw) + (("dx", q),)
                            out._add_term(coeff * phase * cc, before + repl + after)
                    # a coefficient run has grade 0: prefix grade unchanged
                else:
                    letter = factor[1]
                    if letter[0] == "dx":  # type: ignore[index]
                        out._add_term(
                            coeff * phase,
                            before + (("ddx", letter[1]),) + after,  # type: ignore[index]
                        )
                    # d(ddx) == 0: no term
                    prefix_grade = (prefix_grade + letter_grade(letter)) % 3  # type: ignore[arg-type]
        return out

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        from .render import render_form

        return render_form(self)

    def __repr__(self) -> str:
        return f"Form(n={self.n}, terms={len(self.terms)}, commutative={self.commutative})"


Factor = tuple[str, object]  # ("run", CoeffWord) | ("gen", Letter)


def _split_factors(word: FormWord) -> list[Factor]:
    factors: list[Factor] = []
    run: list[JetSymbol] = []
    for letter in word:
        if letter[0] == "c":
            run.append(letter[1])  # type: ignore[arg-type]
        else:
            if run:
                factors.append(("run", tuple(run)))
                run = []
            factors.append(("gen", letter))
    if run:
        factors.append(("run", tuple(run)))
    return factors


def _join_factors(factors: Iterable[Factor]) -> FormWord:
    out: list[Letter] = []
    for kind, payload in factors:
        if kind == "run":
            out.extend(("c", s) for s in payload)  # type: ignore[union-attr]
        else:
            out.append(payload)  # type: ignore[arg-type]
    return tuple(out)


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


def differential(x: Form) -> Form:
    return x.d()


def multiply_forms(x: Form, y: Form) -> Form:
    return x * y


def normalize_form(word: FormWord, n: int, commutative: bool = False) -> Form:
    """Normalize a raw interleaved word into a Form."""
    return Form(n, [(ONE, word)], commutative)


def grade_and_degree(x: Form) -> tuple[int | str, int | str]:
    return x.grade_and_degree()


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

    def t3(self, i: int, k: int, m: int) -> CoeffExpr:
        return self.T3.get((i, k, m), CoeffExpr.zero(self.commutative))

    def t21(self, i: int, k: int) -> CoeffExpr:
        return self.T21.get((i, k), CoeffExpr.zero(self.commutative))


def components(x: Form) -> ComponentTable:
    """Decompose a degree-3 form into its two coefficient tables."""
    _, degree = x.grade_and_degree()
    if x.terms and degree != 3:
        raise ValueError("components are defined for forms of degree 3 only")
    t3: dict[tuple[int, int, int], CoeffExpr] = {}
    t21: dict[tuple[int, int], CoeffExpr] = {}
    for word, coeff in x.terms.items():
        gens = [l for l in word if l[0] != "c"]
        run = tuple(l[1] for l in word if l[0] == "c")
        expr = CoeffExpr([(coeff, run)], x.commutative)  # type: ignore[list-item]
        kinds = tuple(g[0] for g in gens)
        if kinds == ("dx", "dx", "dx"):
            idx3 = (gens[0][1], gens[1][1], gens[2][1])
            t3[idx3] = t3.get(idx3, CoeffExpr.zero(x.commutative)) + expr
        elif kinds == ("ddx", "dx"):
            idx2 = (gens[0][1], gens[1][1])
            t21[idx2] = t21.get(idx2, CoeffExpr.zero(x.commutative)) + expr
        else:  # pragma: no cover - normalization precludes this
            raise AssertionError(f"non-canonical degree-3 word {word}")
    return ComponentTable(t3, t21, x.n, x.commutative)


def form_from_components(table: ComponentTable) -> Form:
    """Rebuild the degree-3 form represented by a component table."""
    out = Form(table.n, (), table.commutative)
    for (i, k, m), expr in table.T3.items():
        for w, c in expr.terms.items():
            out._add_term(c, tuple(("c", s) for s in w) + (("dx", i), ("dx", k), ("dx", m)))
    for (i, k), expr in table.T21.items():
        for w, c in expr.terms.items():
            out._add_term(c, tuple(("c", s) for s in w) + (("ddx", i), ("dx", k)))
    return out


def redistribute_t3(
    T3: Mapping[tuple[int, int, int], CoeffExpr], commutative: bool
) -> dict[tuple[int, int, int], CoeffExpr]:
    """Spread a canonical-representative table evenly over full index triples.

    Each canonical word equals j^s times its s-fold left rotation, so the
    canonical coefficient X contributes (1/3) j^s X at the s-fold rotation;
    the resulting full table represents the same form.
    """
    from fractions import Fraction

    from .scalar import Scalar as _S

    third = _S(Fraction(1, 3))
    full: dict[tuple[int, int, int], CoeffExpr] = {}
    for triple, expr in T3.items():
        for s in range(3):
            rotated = triple[s:] + triple[:s]
            bump = expr.scale(jpow(s) * third)
            if rotated in full:
                full[rotated] = full[rotated] + bump
            else:
                full[rotated] = bump
    return {k: v for k, v in full.items() if not v.is_zero()}
