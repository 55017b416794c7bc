"""Property tests for forms, ``d`` and the product.

``Form.d`` and ``Form.__mul__`` build their terms in canonical form and
never build a term above degree 3.  These tests check them against a
reference written here, the generic path: every raw term, degree 4 or
not, goes through ``Form(n, items, mode)``, which normalizes it.  The
comparison includes the order of the terms, so the canonical text is the
same on both paths.  They also check that every stored word is a fixed
point of normalization, that ``d`` of a degree-3 form and ``d^3`` vanish,
and the graded Leibniz rule, and that terms print in the reference order
below.  Example generation is derandomized so that
every run checks the same cases.
"""

from __future__ import annotations

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from z3forms.coeffs import CoeffExpr, JetSymbol  # noqa: E402
from z3forms.forms import Form, normalize_form_word, word_degree  # noqa: E402
from z3forms.render import _letter_text, _render_terms  # noqa: E402
from z3forms.scalar import ONE, Scalar, jpow  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

SCALARS = [Scalar(a, b) for a in (-2, -1, 0, 1, 3) for b in (-1, 0, 2)
           if (a, b) != (0, 0)]

#: Generator kinds of a word, by degree.
SHAPES = {
    0: [()],
    1: [("dx",)],
    2: [("dx", "dx"), ("ddx",)],
    3: [("dx", "dx", "dx"), ("ddx", "dx"), ("dx", "ddx")],
}


def symbols(n: int):
    fixed = [JetSymbol("U"), JetSymbol("Uinv"), JetSymbol("U", barred=True),
             JetSymbol("Uinv", barred=True), JetSymbol("mu"), JetSymbol("f"),
             JetSymbol("f", barred=True), JetSymbol("g", 1)]
    indexed = [JetSymbol("x", i) for i in range(1, n + 1)]
    indexed += [JetSymbol("f", derivs=(i,)) for i in range(1, n + 1)]
    return st.sampled_from(fixed + indexed)


def runs(n: int):
    return st.lists(symbols(n), max_size=2)


@st.composite
def words(draw, n: int, degree: int, tailed: bool = False):
    """A raw word of the given degree; ``tailed`` ends it in a generator."""
    word: list = []
    for kind in draw(st.sampled_from(SHAPES[degree])):
        word += draw(runs(n))
        word.append((kind, draw(st.integers(1, n))))
    if not tailed:
        word += draw(runs(n))
    return tuple(word)


@st.composite
def forms(draw, n: int, commutative: bool, degrees=(0, 1, 2, 3), tailed=False):
    """A form whose raw words all have one degree drawn from ``degrees``."""
    degree = draw(st.sampled_from(degrees))
    items = draw(st.lists(st.tuples(st.sampled_from(SCALARS), words(n, degree, tailed)),
                          min_size=1, max_size=3))
    return Form(n, items, commutative)


def mixed_forms(n: int, commutative: bool):
    """A sum of 2-3 drawn forms, so one form can hold words of several degrees."""
    return st.lists(forms(n, commutative), min_size=2, max_size=3).map(
        lambda xs: sum(xs[1:], xs[0]))


n_and_mode = st.tuples(st.integers(1, 4), st.booleans())


# -- reference: the generic path through Form(n, raw terms, mode) ----------------


def factors(word: tuple) -> list[tuple]:
    """Maximal coefficient runs and single generators, in order."""
    out: list[tuple] = []
    for kind, group in itertools.groupby(word, type):
        group = tuple(group)
        out += [(g,) for g in group] if kind is tuple else [group]
    return out


def ref_d(x: Form) -> Form:
    items = []
    for word, coeff in x.terms.items():
        parts = factors(word)
        grade = 0
        for pos, part in enumerate(parts):
            before, after = sum(parts[:pos], ()), sum(parts[pos + 1:], ())
            phase = coeff * jpow(grade)
            if type(part[0]) is not tuple:
                run = CoeffExpr([(ONE, part)], x.commutative)
                for q in range(1, x.n + 1):
                    for cw, cc in run.derive(q).terms.items():
                        items.append((phase * cc, before + cw + (("dx", q),) + after))
            else:
                kind, payload = part[0]
                if kind == "dx":
                    items.append((phase, before + (("ddx", payload),) + after))
                grade += 1 if kind == "dx" else 2
    return Form(x.n, items, x.commutative)


def ref_mul(x: Form, y: Form) -> Form:
    return Form(x.n, [(c1 * c2, w1 + w2) for w1, c1 in x.terms.items()
                      for w2, c2 in y.terms.items()], x.commutative)


def same_terms_in_order(got: Form, want: Form) -> bool:
    return list(got.terms.items()) == list(want.terms.items())


def assert_canonical(x: Form) -> None:
    for word, coeff in x.terms.items():
        assert not coeff.is_zero()
        assert normalize_form_word(word, x.commutative) == [(ONE, word)]


# -- inputs the strategies cannot build -----------------------------------------


U, UINV, U_1, MU, F, G = (JetSymbol("U"), JetSymbol("Uinv"), JetSymbol("U", derivs=(1,)),
                          JetSymbol("mu"), JetSymbol("f"), JetSymbol("g"))
X1, X2 = JetSymbol("x", 1), JetSymbol("x", 2)

#: Words with runs of three letters, which ``runs`` never draws.
EDGE_WORDS = {
    # At q = 1 two positions give the word Uinv U_,1 Uinv U_,1 Uinv.
    "Uinv U_,1 Uinv dx[1] dx[2]": (UINV, U_1, UINV, ("dx", 1), ("dx", 2)),
    # The runs cancel where they meet, across a generator.
    "f U dx[1] Uinv g dx[2]": (F, U, ("dx", 1), UINV, G, ("dx", 2)),
    # Dropping x[1] makes U and Uinv meet.
    "U x[1] dx[2] Uinv dx[1]": (U, X1, ("dx", 2), UINV, ("dx", 1)),
    "mu f f ddx[2] x[2]": (MU, F, F, ("ddx", 2), X2),
    "x[1] x[1] dx[1] U dx[2] Uinv": (X1, X1, ("dx", 1), U, ("dx", 2), UINV),
}


#: ``Uinv dx[1] U_,1 Uinv dx[2]`` gives the word with two positions above
#: with coefficient -1 - j, and that word gives it with -2 times its own
#: coefficient: adding the terms one at a time would cancel it, then put it
#: back at the end.
SAME_WORD_TWICE = [
    (ONE, (UINV, ("dx", 1), U_1, UINV, ("dx", 2))),
    (-(ONE + jpow(1)), EDGE_WORDS["Uinv U_,1 Uinv dx[1] dx[2]"]),
]


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("commutative", (False, True))
@pytest.mark.parametrize("text", [*EDGE_WORDS, "all", "cancel"])
def test_d_matches_generic_path_on_long_runs(text, commutative, n):
    if text == "cancel":
        items = SAME_WORD_TWICE
    else:
        words = list(EDGE_WORDS.values()) if text == "all" else [EDGE_WORDS[text]]
        items = [(SCALARS[i], w) for i, w in enumerate(words)]
    # Each word, and its head before the last generator: d of the head
    # reaches the word's degree, so d∘d goes through the degree-2 path.
    heads = [(c, w[:max(i for i, l in enumerate(w) if type(l) is tuple)]) for c, w in items]
    for raw in (items, heads):
        x = Form(n, raw, commutative)
        once, twice = x.d(), x.d().d()
        assert same_terms_in_order(once, ref_d(x))
        assert same_terms_in_order(twice, ref_d(ref_d(x)))
        assert_canonical(once)
        assert_canonical(twice)


# -- properties ---------------------------------------------------------------


@PROPERTY
@given(n_and_mode.flatmap(lambda nm: st.tuples(forms(*nm), mixed_forms(*nm))))
def test_d_matches_generic_path(pair):
    for x in pair:
        got = x.d()
        assert same_terms_in_order(got, ref_d(x))
        assert_canonical(got)


@PROPERTY
@given(n_and_mode.flatmap(lambda nm: st.tuples(forms(*nm), forms(*nm))))
def test_product_matches_generic_path(pair):
    x, y = pair
    got = x * y
    assert same_terms_in_order(got, ref_mul(x, y))
    assert_canonical(got)


@PROPERTY
@given(n_and_mode.flatmap(lambda nm: forms(*nm, degrees=(3,))))
def test_d_of_degree_three_vanishes(x):
    assert x.d().is_zero()


@PROPERTY
@given(n_and_mode.flatmap(lambda nm: forms(*nm)))
def test_d_cubed_vanishes(x):
    assert x.d().d().d().is_zero()


@PROPERTY
@given(n_and_mode.flatmap(lambda nm: st.tuples(
    forms(*nm, degrees=(1, 2, 3), tailed=True), forms(*nm))))
def test_graded_leibniz_generator_tailed(pair):
    w, phi = pair
    grade = w.grade_and_degree()[0]
    lhs = (w * phi).d()
    rhs = w.d() * phi + (w * phi.d()).scale(jpow(grade))
    assert lhs == rhs


# -- term order of the canonical text --------------------------------------------


def reference_key(word: tuple) -> tuple:
    """The order of terms in the canonical text: by degree, length, then
    the repr of each letter, with a coefficient letter written as the pair
    of the tag "c" and its symbol.  The golden files hold this order."""
    return (word_degree(word), len(word),
            tuple(repr(l) if type(l) is tuple else f"('c', {l!r})" for l in word))


def in_reference_order(x: Form) -> str:
    return _render_terms(x.terms, reference_key, _letter_text)


@PROPERTY
@given(n_and_mode.flatmap(lambda nm: mixed_forms(*nm)))
def test_terms_print_in_reference_order(x):
    for value in (x, x.d()):
        assert str(value) == in_reference_order(value)


@pytest.mark.parametrize("n, words, text", [
    (10, [(("dx", 10),), (("dx", 2),)], "dx[10] + dx[2]"),
    (2, [(("dx", 1), F), (F, ("dx", 1))], "f dx[1] + dx[1] f"),
    (2, [(("ddx", 1), F), (("dx", 1), ("dx", 1))], "ddx[1] f + dx[1] dx[1]"),
    (2, [(F, ("ddx", 1)), (("dx", 1), ("dx", 1))], "f ddx[1] + dx[1] dx[1]"),
    (2, [(X1,), (F,)], "f + x[1]"),
    (10, [(JetSymbol("x", 10),), (JetSymbol("x", 2),)], "x[10] + x[2]"),
    (2, [(F,), (JetSymbol("f", 1),)], "f[1] + f"),
    (2, [(JetSymbol("f", barred=True),), (F,)], "f + ~f"),
    (2, [(G,), (JetSymbol("f", derivs=(1,)),)], "(f_,1) + g"),
])
def test_term_order_by_text(n, words, text):
    x = Form(n, [(ONE, w) for w in words])
    assert str(x) == in_reference_order(x) == text
