"""Hypothesis strategies of the property tests, and their one ``settings``.

Generation cost follows the shape of a strategy, so the strategies here
are flat: each draw picks from a list built once at import (scalars,
symbols, runs, words, texts), and a case whose values share a dimension
n and a coefficient mode draws both first, in one ``@st.composite``,
then its values through plain helpers.  Each strategy can produce every
value of the family its tests describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable

from hypothesis import settings
from hypothesis import strategies as st

from shared import BU, BUINV, F, FORMS, GRASSMANN, MATRIX, U, UINV, X1, X2, Algebra
from z3forms import (CoeffExpr, EvalContext, Form, GradedMatrix, GrassElement, JetSymbol,
                     conjugate_form)
from z3forms.action import MU
from z3forms.grassmann import word_grade
from z3forms.lincomb import accumulate
from z3forms.scalar import ZERO, Scalar, scalar

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

#: Generator kinds of a form word, by degree.
SHAPES = {
    0: [()],
    1: [("dx",)],
    2: [("dx", "dx"), ("ddx",)],
    3: [("dx", "dx", "dx"), ("ddx", "dx"), ("dx", "ddx")],
}


def _words(letters: list, sizes=(0, 1, 2)) -> list[tuple]:
    """Every word of the given sizes over ``letters``, each size drawn
    equally often.  The default sizes give the runs of at most two symbols."""
    top = len(letters) ** max(sizes)
    return [w for k in sizes for w in list(product(letters, repeat=k)) * (top // len(letters) ** k)]


# -- Q(j) scalars --------------------------------------------------------------

#: (p + q j) / r: the integers when r is 1, and every pair of rationals whose
#: denominators are at most 10**12 (r is their lcm).
scalars = st.builds(lambda p, q, r: Scalar(Fraction(p, r), Fraction(q, r)),
                    st.integers(), st.integers(), st.integers(1, 10**24))
nonzero = scalars.filter(lambda x: not x.is_zero())

#: Small scalars of the generated linear systems.
_SMALL = list(dict.fromkeys(Scalar(Fraction(a, r), Fraction(b, r))
                            for a in range(-4, 5) for b in range(-4, 5) for r in (1, 2, 3)))
small_scalars = st.sampled_from(_SMALL)

#: Eisenstein integers a + b j with |a|, |b| <= 3.
int_scalars = st.sampled_from([Scalar(a, b) for a in range(-3, 4) for b in range(-3, 4)])

#: Rational integers -3..3.
rational_ints = st.sampled_from([scalar(k) for k in range(-3, 4)])


# -- sparse linear systems -------------------------------------------------------

#: Keys of the generated systems: ints, tuples and (p, word) pairs, as the
#: callers use them (words, and (component, word) pairs).
KEYS = (
    0, 1, 2, 7,
    (1, 2), (2, 1), (),
    (1, (JetSymbol("A", 1, (1,)),)), (2, (JetSymbol("A", 1, (1,)),)), (1, (JetSymbol("A", 2),)),
)

#: A sparse vector: 1-5 nonzero entries; a key drawn twice keeps its last value.
vectors = st.lists(st.sampled_from([(k, x) for k in KEYS for x in _SMALL if not x.is_zero()]),
                   min_size=1, max_size=5).map(dict)
systems = st.lists(vectors, min_size=1, max_size=4)
four_scalars = st.lists(small_scalars, min_size=4, max_size=4)
#: Pivot rules for ``_echelon``: the first or the last key of a residue.
pivot_rules = st.sampled_from((lambda vec: next(iter(vec)), lambda vec: list(vec)[-1]))
_NONZERO_SMALL = st.sampled_from([x for x in _SMALL if not x.is_zero()])


@st.composite
def outside_span(draw):
    """1-4 independent columns and a target outside their span whose keys
    are among the columns' keys.

    Column i is nonzero at its pivot key and zero at the pivots of the
    columns before it, so the columns are independent.  One column also
    holds a key that no column pivots on; the target is a combination of
    the columns plus a nonzero multiple of that key's unit vector, which
    no vector of the span is.  The columns come in shuffled order.
    """
    keys = draw(st.permutations(KEYS))
    k = draw(st.integers(1, 4))
    pivots, free = keys[:k], keys[k:]
    columns = []
    for i, pivot in enumerate(pivots):
        col = {pivot: draw(_NONZERO_SMALL)}
        for key in draw(st.lists(st.sampled_from(pivots[i + 1:] + free), max_size=3)):
            col[key] = draw(_NONZERO_SMALL)
        columns.append(col)
    extra = draw(st.sampled_from(free))
    columns[draw(st.integers(0, k - 1))][extra] = draw(_NONZERO_SMALL)
    target = {extra: draw(_NONZERO_SMALL)}
    for col in columns:
        c = draw(small_scalars)
        for key, x in col.items():
            accumulate(target, key, c * x)
    return draw(st.permutations(columns)), target


# -- coefficient words -------------------------------------------------------------

LETTERS = (F, JetSymbol("g"), JetSymbol("f", derivs=(1,)), JetSymbol("A", 2, (1, 2)),
           JetSymbol("f", barred=True), JetSymbol("A", 1, barred=True), X1, X2,
           U, UINV, BU, BUINV, JetSymbol("U", derivs=(2,)), MU)
PLAIN = tuple(s for s in LETTERS if s.name not in ("U", "Uinv", "mu"))
PAIRS = ((U, UINV), (UINV, U), (BU, BUINV), (BUINV, BU))

modes = st.booleans()
coeff_words = st.lists(st.sampled_from(LETTERS), max_size=4).map(tuple)
plain_words = st.lists(st.sampled_from(PLAIN), max_size=5).map(tuple)
# Few distinct words, so that terms collide and cancel.
coeff_items = st.lists(st.tuples(int_scalars, coeff_words), max_size=5)

#: ``a x[i] b`` and ``a' a x[i] b b'`` for inverse pairs: dropping x[i]
#: cancels.  The empty core is drawn as often as all the others together.
_SANDWICHES = [(a, x, b) for a, b in PAIRS for x in (X1, X2)]
_CORES = _SANDWICHES + [(a,) + s + (b,) for a, b in PAIRS for s in _SANDWICHES]
_DERIVE_LETTERS = st.sampled_from(LETTERS + (JetSymbol("x", 3),))
derive_items = st.lists(st.tuples(int_scalars, st.builds(
    lambda head, core, tail: tuple(head) + core + tuple(tail),
    st.lists(_DERIVE_LETTERS, max_size=4), st.sampled_from([()] * len(_CORES) + _CORES),
    st.lists(_DERIVE_LETTERS, max_size=2))), max_size=5)

CANCEL_LETTERS = (U, UINV, BU, BUINV, JetSymbol("U", derivs=(1,)),
                  JetSymbol("U", derivs=(2,), barred=True), F, X1)
#: Letter lists joined from pieces: single letters, and an inverse pair
#: around nothing, around a letter or around another inverse pair.
letter_lists = st.lists(st.sampled_from(
    [[s] for s in CANCEL_LETTERS]
    + [[a, *inner, b] for a, b in PAIRS
       for inner in ([], *([s] for s in CANCEL_LETTERS), *PAIRS)])).map(lambda ps: sum(ps, []))


# -- forms ---------------------------------------------------------------------

#: Coefficients of generated forms.
FORM_SCALARS = [Scalar(a, b) for a in (-2, -1, 0, 1, 3) for b in (-1, 0, 2)
                if (a, b) != (0, 0)]
form_scalars = st.sampled_from(FORM_SCALARS)


def _form_symbols(n: int) -> list[JetSymbol]:
    fixed = [U, UINV, BU, BUINV, MU, F, JetSymbol("f", barred=True), JetSymbol("g", 1)]
    return (fixed + [JetSymbol("x", i) for i in range(1, n + 1)]
            + [JetSymbol("f", derivs=(i,)) for i in range(1, n + 1)])


_DIMS = range(1, 5)
#: Per n: runs of the form symbols, and per generator kind every run
#: followed by that generator.
_RUNS = {n: _words(_form_symbols(n)) for n in _DIMS}
_RUN_DRAWS = {n: st.sampled_from(_RUNS[n]) for n in _DIMS}
_SEGMENTS = {(n, kind): st.sampled_from([r + ((kind, i),) for r in _RUNS[n]
                                         for i in range(1, n + 1)])
             for n in _DIMS for kind in ("dx", "ddx")}
_SHAPE_DRAWS = {d: st.sampled_from(shapes) for d, shapes in SHAPES.items()}


def form(degrees=(0, 1, 2, 3), tailed: bool = False):
    """1-3 raw terms whose words have one degree drawn from ``degrees``;
    ``tailed`` ends every word in a generator."""
    degree_draw = st.sampled_from(degrees)

    def make(draw, n: int, commutative: bool) -> Form:
        degree = draw(degree_draw)
        items = []
        for _ in range(draw(st.integers(1, 3))):
            word = sum((draw(_SEGMENTS[n, kind]) for kind in draw(_SHAPE_DRAWS[degree])), ())
            items.append((draw(form_scalars), word if tailed else word + draw(_RUN_DRAWS[n])))
        return Form(n, items, commutative)
    return make


_ANY_FORM = form()


def mixed_form(draw, n: int, commutative: bool) -> Form:
    """A sum of 2-3 forms, so one form can hold words of several degrees."""
    parts = [_ANY_FORM(draw, n, commutative) for _ in range(draw(st.integers(2, 3)))]
    return sum(parts[1:], parts[0])


@st.composite
def forms(draw, *makers):
    """One value per maker, all over one n in 1..4 and one mode."""
    n, commutative = draw(st.integers(1, 4)), draw(modes)
    return tuple(make(draw, n, commutative) for make in makers)


_TRIPLES = {n: st.sampled_from(list(product(range(1, n + 1), repeat=3))) for n in _DIMS}


@st.composite
def t3_tables(draw):
    """A table over any triples in 1..n: rotations that are not least, and
    all-equal triples, included.  A key drawn twice keeps its last value."""
    n, commutative = draw(st.integers(1, 3)), draw(modes)
    table = {}
    for _ in range(draw(st.integers(0, 6))):
        items = [(draw(form_scalars), draw(_RUN_DRAWS[n])) for _ in range(draw(st.integers(1, 2)))]
        table[draw(_TRIPLES[n])] = CoeffExpr(items, commutative)
    return table, n, commutative


# -- the action layer -------------------------------------------------------------

#: Letters of generated Lagrangians: jets of A up to order 3 with indices
#: inside and outside 1..n (n <= 3 below), an unindexed and a barred A,
#: another base name, a coordinate and the constant mu.
variation_inputs = st.lists(st.tuples(rational_ints, st.lists(st.sampled_from(
    [JetSymbol("A", i, d) for i in (0, 1, 2, 3, 4)
     for d in ((), (1,), (2,), (1, 2), (2, 2), (1, 1, 3))]
    + [JetSymbol("A"), JetSymbol("A", 1, (1,), barred=True), JetSymbol("B", 1, (1,)), X1, MU]),
    max_size=3)), max_size=6).map(lambda items: CoeffExpr(items, True))


def _lorenz_words(n: int, order: int) -> list[tuple]:
    """The jets of A with an index in 1..n and at most ``order`` derivatives
    in 1..n, each alone or after mu; each derivative count about equally
    often."""
    groups = [[prefix + (JetSymbol("A", i, derivs),) for prefix in ((), (MU,))
               for i in range(1, n + 1)
               for derivs in combinations_with_replacement(range(1, n + 1), size)]
              for size in range(order + 1)]
    top = max(map(len, groups))
    return [w for group in groups for w in group * (top // len(group))]


_LORENZ_WORDS = {(n, order): st.sampled_from(_lorenz_words(n, order))
                 for n in _DIMS for order in range(5)}


@st.composite
def lorenz_inputs(draw):
    """An expression linear in the jets of A, of order 0..4, with or without mu."""
    n, order = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    words = _LORENZ_WORDS[n, order]
    items = [(draw(rational_ints), draw(words)) for _ in range(draw(st.integers(0, 6)))]
    return CoeffExpr(items, True), n


# -- graded matrices --------------------------------------------------------------

#: Entries: a fixed pool, and zero as often as the whole pool, so that zero
#: and partly zero parts occur.
POOL = [Scalar(Fraction(a, r), Fraction(b, s))
        for a in range(-4, 5) for b in (-3, 0, 1, 2) for r in (1, 2) for s in (1, 3)]
entries = st.sampled_from([ZERO] * len(POOL) + POOL)
triples = st.tuples(entries, entries, entries)
dense_rows = st.tuples(triples, triples, triples)
matrices = st.builds(GradedMatrix, dense_rows)
homogeneous = st.builds(GradedMatrix.homogeneous, st.integers(0, 2), triples)


# -- the ternary Grassmann algebra -------------------------------------------------

#: Per generator count N and grade (None: any), the words of 0-4 letters
#: th[i]/bth[i] of that grade, each length drawn equally often.
_LETTER_WORDS = {N: _words([(k, i) for k in ("th", "bth") for i in range(1, N + 1)], range(5))
                 for N in (1, 2, 3)}
_GRASS_DRAWS = {(N, g): st.sampled_from([w for w in words if g is None or word_grade(w) == g])
                for N, words in _LETTER_WORDS.items() for g in (None, 0, 1, 2)}


def grass(draw, N: int, grades=(None,)) -> GrassElement:
    """1-3 terms over the words of one grade drawn from ``grades``."""
    words = _GRASS_DRAWS[N, draw(st.sampled_from(grades))]
    return GrassElement(N, [(draw(form_scalars), draw(words))
                            for _ in range(draw(st.integers(1, 3)))])


# -- the models of the law kit in shared.py ------------------------------------------


@dataclass(frozen=True)
class Model:
    """The strategies of one ``Algebra``.  A case draws ``context`` once,
    then each value with a maker ``(draw, *context)``: ``element`` draws any
    value, ``homogeneous`` one of a single grade, ``leibniz_left`` a left
    factor of the Leibniz rule."""

    algebra: Algebra
    context: st.SearchStrategy
    element: Callable
    homogeneous: Callable
    leibniz_left: Callable | None = None


def _drawn(strategy):
    return lambda draw: draw(strategy)


MODELS = (
    Model(MATRIX, st.just(()), _drawn(matrices), _drawn(homogeneous), _drawn(homogeneous)),
    # d and the product are (multi)linear: homogeneous forms stand for all.
    Model(FORMS, st.tuples(st.integers(1, 4), modes), _ANY_FORM, _ANY_FORM,
          form(degrees=(1, 2, 3), tailed=True)),
    Model(GRASSMANN, st.tuples(st.sampled_from((1, 2, 3))), grass,
          lambda draw, N: grass(draw, N, (0, 1, 2))),
)


@st.composite
def law_case(draw, model: Model, *roles: str):
    """One value per role (a maker's name), all in one context of ``model``."""
    context = draw(model.context)
    return tuple(getattr(model, role)(draw, *context) for role in roles)


# -- expression texts ------------------------------------------------------------

SCALAR_TEXTS = ["1", "(-1)", "2", "2/3", "(-7/4)", "j", "j^2", "(1 + j)", "(1/2 - 3 j)"]


def _symbol_texts(n: int) -> list[str]:
    """Symbol atoms: plain, barred, indexed, jets, the pair U/Uinv and ``mu``."""
    rng = range(1, n + 1)
    atoms = ["f", "g", "~f", "U", "Uinv", "~U", "~Uinv", "mu"]
    atoms += [f"{name}[{i}]" for name in ("A", "x") for i in rng]
    atoms += [f"(f_,{i})" for i in rng] + [f"(f_,{i},{k})" for i in rng for k in rng]
    atoms += [f"(~A[{i}]_,{k})" for i in rng for k in rng]
    return atoms


_TEXT_RUNS = {n: st.sampled_from(_words(_symbol_texts(n))) for n in _DIMS}
_GENERATOR_TEXTS = {(n, kind): st.sampled_from([f"{kind}[{i}]" for i in range(1, n + 1)])
                    for n in _DIMS for kind in ("dx", "ddx")}
#: Half the terms have no scalar prefix.
_PREFIXES = st.sampled_from([()] * len(SCALAR_TEXTS) + [(s,) for s in SCALAR_TEXTS])
_TERM_SHAPES = {degrees: st.sampled_from([s for d in degrees for s in SHAPES[d]])
                for degrees in ((0,), (3,), (0, 1, 2, 3))}
_SIGNS = st.sampled_from([" + ", " - "])
#: Per n: Grassmann words of 1-3 letters ``th[i]``/``bth[i]``.
_GRASS_WORDS = {n: st.sampled_from([" ".join(w) for w in _words(
    [f"{kind}[{i}]" for kind in ("th", "bth") for i in range(1, n + 1)], (1, 2, 3))])
    for n in _DIMS}
#: Matrix rows; each entry is 0 twice as often as any scalar.
_MATRIX_ROWS = st.sampled_from([", ".join(r) for r in product(["0", "0"] + SCALAR_TEXTS,
                                                               repeat=3)])


def _term(draw, n: int, degrees=(0, 1, 2, 3)) -> str:
    """One product: an optional scalar, then runs of symbols between generators."""
    parts = list(draw(_PREFIXES))
    for kind in draw(_TERM_SHAPES[degrees]):
        parts += draw(_TEXT_RUNS[n])
        parts.append(draw(_GENERATOR_TEXTS[n, kind]))
    parts += draw(_TEXT_RUNS[n])
    return " ".join(parts) or "1"


def _signed_sum(draw, terms: list[str]) -> str:
    text = terms[0]
    for term in terms[1:]:
        text += draw(_SIGNS) + term
    return text


def _terms(draw, n: int, degrees=(0, 1, 2, 3)) -> str:
    return _signed_sum(draw, [_term(draw, n, degrees) for _ in range(draw(st.integers(1, 3)))])


def _jet_words(draw, n: int) -> str:
    text = _terms(draw, n, (0,))
    if draw(st.booleans()):
        text = f"d[{draw(st.integers(1, n))}]({text})"
    return text


def _form_text(draw, n: int) -> str:
    text = _terms(draw, n)
    for _ in range(draw(st.integers(0, 2))):
        text = f"d({text})"
    return text


def _grassmann(draw, n: int) -> str:
    # No unit term: scalars do not add to Grassmann values in the language.
    terms = [draw(_GRASS_WORDS[n]) for _ in range(draw(st.integers(1, 3)))]
    return " ".join([*draw(_PREFIXES), f"({_signed_sum(draw, terms)})"])


def _matrices(draw, n: int) -> str:
    text = " ".join("mat[" + "; ".join(draw(_MATRIX_ROWS) for _ in range(3)) + "]"
                    for _ in range(draw(st.integers(1, 2))))
    if draw(st.booleans()):
        text = f"d({text})"
    return text


def _deltas(draw, n: int) -> str:
    text = _signed_sum(draw, [f"delta({_terms(draw, n, (3,))})"
                              for _ in range(draw(st.integers(1, 2)))])
    if draw(st.booleans()):
        text = f"{draw(st.sampled_from(SCALAR_TEXTS))} ({text})"
    return text


#: Expression makers by the value kind they evaluate to (or a promotable one).
EXPRESSIONS = {
    "scalar": lambda draw, n: draw(st.sampled_from(SCALAR_TEXTS)),
    "coeff": _jet_words,
    "form": _form_text,
    "grass": _grassmann,
    "matrix": _matrices,
    "conj": _deltas,
}


@st.composite
def expressions(draw, *kinds):
    """An EvalContext for n in 1..4 and a mode, then one text per kind."""
    n, commutative = draw(st.integers(1, 4)), draw(modes)
    return (EvalContext(n, commutative), *(EXPRESSIONS[k](draw, n) for k in kinds))


# -- lexer texts -------------------------------------------------------------------

#: Pieces of generated texts: lexemes of every kind, Unicode digits, letters
#: and whitespace, line breaks, and characters outside the grammar.
PIECES = (
    "f", "j", "x1", "dx", "ddx", "mat", "12", "0", "\u0663", "\u0660",
    "(", ")", "[", "]", "*", "+", "-", "/", "^", ",", ";", "_", "~",
    " ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u2028",
    "$", "\u00e9", "\u00b2", ".",
)

texts = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


# -- library-built values ----------------------------------------------------------


def _with_context(x):
    return EvalContext(x.n, x.commutative), x


@st.composite
def _built_grass(draw):
    # No unit word: its text does not read back (test_value_properties.py).
    N = draw(st.sampled_from((1, 2, 3)))
    x = grass(draw, N, (None, 0, 1, 2))
    return EvalContext(N), GrassElement(N, [(c, w) for w, c in x.terms.items() if w])


#: Per value kind, (context, value) with the value built through the library
#: and the context its canonical text is read back in.
BUILT = {
    "scalar": st.builds(lambda x: (EvalContext(), x), scalars),
    "coeff": st.builds(lambda items, mode: (EvalContext(4, mode), CoeffExpr(items, mode)),
                       coeff_items, modes),
    "form": forms(mixed_form).map(lambda xs: _with_context(xs[0])),
    "grass": _built_grass(),
    "matrix": st.builds(lambda x: (EvalContext(), x), matrices),
    "conj": forms(form(degrees=(3,))).map(lambda xs: _with_context(conjugate_form(xs[0]))),
}
