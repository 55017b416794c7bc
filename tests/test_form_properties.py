"""Property tests for forms, ``d`` and the product.

``Form.d`` and ``Form.__mul__`` build their terms in canonical form and
never build a term above degree 3.  These tests check them against a
reference written here, the generic path: every raw term, degree 4 or
not, goes through ``Form(n, items, mode)``, which normalizes it.  The
comparison includes the order of the terms, so the canonical text is the
same on both paths.  They also check that every stored word is a fixed
point of normalization, and that terms print in the reference order
below.  The laws of ``d`` and the product are the kit's checks in
``shared.py``, run by ``test_laws.py``; on forms, ``d^3 = 0`` and the
twisted Leibniz rule run here instead, on the strategies of this module.
Example generation is derandomized so that every run checks the same
cases.
"""

from __future__ import annotations

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from strategies import FORM_SCALARS, PROPERTY, form, forms, mixed_form  # noqa: E402

from shared import FORMS, F, G, U, UINV, X1, X2  # noqa: E402
from shared import check_d_nilpotent, check_twisted_leibniz  # noqa: E402
from z3forms.coeffs import CoeffExpr, JetSymbol  # noqa: E402
from z3forms.expr import EvalContext, evaluate_text, print_canonical  # noqa: E402
from z3forms.forms import Form, coefficient_form, normalize_form_word, word_degree  # noqa: E402
from z3forms.render import _letter_text, _render_terms  # noqa: E402
from z3forms.scalar import ONE, Scalar, jpow  # noqa: E402


# -- reference: the generic path through Form(n, raw terms, mode) ----------------


def factors(word: tuple) -> list[tuple]:
    """Maximal coefficient runs and single generators, in order."""
    out: list[tuple] = []
    for kind, group in itertools.groupby(word, type):
        group = tuple(group)
        out += [(g,) for g in group] if kind is tuple else [group]
    return out


def generic_d(x: Form) -> Form:
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


def generic_mul(x: Form, y: Form) -> Form:
    return Form(x.n, [(c1 * c2, w1 + w2) for w1, c1 in x.terms.items()
                      for w2, c2 in y.terms.items()], x.commutative)


def same_terms_in_order(got: Form, want: Form) -> bool:
    return list(got.terms.items()) == list(want.terms.items())


def assert_canonical(x: Form) -> None:
    for word, coeff in x.terms.items():
        assert not coeff.is_zero()
        assert normalize_form_word(word, x.commutative) == [(ONE, word)]


# -- inputs the strategies cannot build -----------------------------------------


U_1, MU = JetSymbol("U", derivs=(1,)), JetSymbol("mu")

#: Words with runs of three letters, which the strategies never draw.
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
        items = [(FORM_SCALARS[i], w) for i, w in enumerate(words)]
    # Each word, and its head before the last generator: d of the head
    # reaches the word's degree, so d∘d goes through the degree-2 path.
    heads = [(c, w[:max(i for i, l in enumerate(w) if type(l) is tuple)]) for c, w in items]
    for raw in (items, heads):
        x = Form(n, raw, commutative)
        once, twice = x.d(), x.d().d()
        assert same_terms_in_order(once, generic_d(x))
        assert same_terms_in_order(twice, generic_d(generic_d(x)))
        assert_canonical(once)
        assert_canonical(twice)


# -- properties ---------------------------------------------------------------


@PROPERTY
@given(forms(form(), mixed_form))
def test_d_matches_generic_path(pair):
    for x in pair:
        got = x.d()
        assert same_terms_in_order(got, generic_d(x))
        assert_canonical(got)


@PROPERTY
@given(forms(form(), form()))
def test_product_matches_generic_path(pair):
    x, y = pair
    got = x * y
    assert same_terms_in_order(got, generic_mul(x, y))
    assert_canonical(got)


@PROPERTY
@given(forms(form()))
def test_d_cubed_vanishes(case):
    check_d_nilpotent(FORMS, *case)


@PROPERTY
@given(forms(form(degrees=(1, 2, 3), tailed=True), form()))
def test_graded_leibniz_generator_tailed(pair):
    check_twisted_leibniz(FORMS, *pair)


@PROPERTY
@given(forms(form(degrees=(0,))))
def test_degree_zero_text_reads_back_as_the_embedded_coefficient(case):
    """The text of a degree-0 form reads back as the ``CoeffExpr`` it embeds,
    or as a ``Scalar`` when it has only the empty word; ``coefficient_form``
    of that value is the form again."""
    (x,) = case
    value = evaluate_text(print_canonical(x), EvalContext(x.n, x.commutative))
    if isinstance(value, Scalar):
        value = CoeffExpr.from_scalar(value, x.commutative)
    assert type(value) is CoeffExpr and value.commutative == x.commutative
    assert coefficient_form(value, x.n) == x


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
@given(forms(mixed_form))
def test_terms_print_in_reference_order(case):
    (x,) = case
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
