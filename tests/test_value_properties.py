"""Property tests over generated expressions and the five word-combination values.

* Canonical text is a fixed point: printing a value, parsing the text and
  evaluating it again gives the same text.  Expressions cover scalars, jet
  words, forms with ``dx``/``ddx``, ``th``/``bth`` words, ``mat[...]`` and
  ``delta(...)``, in both coefficient modes, for n = 1..4.
* Values are frozen: ``+``, ``-``, ``lincomb.total``, ``scale``, ``*`` and
  ``d`` leave their operands' terms and hashes unchanged, and equal values
  hash alike, for ``CoeffExpr``, ``Form``, ``GrassElement``, ``GradedMatrix``
  and ``ConjForm``.

Example generation is derandomized so that every run checks the same cases.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from z3forms import (  # noqa: E402
    CoeffExpr,
    ConjForm,
    EvalContext,
    Form,
    GradedMatrix,
    GrassElement,
    coefficient_form,
    eta_differential,
    evaluate_text,
    print_canonical,
)
from z3forms.lincomb import total  # noqa: E402
from z3forms.scalar import Scalar  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

SCALARS = ["1", "(-1)", "2", "2/3", "(-7/4)", "j", "j^2", "(1 + j)", "(1/2 - 3 j)"]

#: Generator kinds of a form term, by degree.
SHAPES = {
    0: [()],
    1: [("dx",)],
    2: [("dx", "dx"), ("ddx",)],
    3: [("dx", "dx", "dx"), ("ddx", "dx"), ("dx", "ddx")],
}


def symbols(n: int):
    """Symbol atoms: plain, barred, indexed, jets, the pair U/Uinv and ``mu``."""
    rng = range(1, n + 1)
    atoms = ["f", "g", "~f", "U", "Uinv", "~U", "~Uinv", "mu"]
    atoms += [f"{name}[{i}]" for name in ("A", "x") for i in rng]
    atoms += [f"(f_,{i})" for i in rng] + [f"(f_,{i},{k})" for i in rng for k in rng]
    atoms += [f"(~A[{i}]_,{k})" for i in rng for k in rng]
    return st.sampled_from(atoms)


def signed_sum(draw, terms: list[str]) -> str:
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + term
    return text


@st.composite
def form_terms(draw, n: int, degrees=(0, 1, 2, 3)) -> str:
    """One product: an optional scalar, then runs of symbols between generators."""
    parts = draw(st.lists(st.sampled_from(SCALARS), max_size=1))
    for kind in draw(st.sampled_from([s for d in degrees for s in SHAPES[d]])):
        parts += draw(st.lists(symbols(n), max_size=2))
        parts.append(f"{kind}[{draw(st.integers(1, n))}]")
    parts += draw(st.lists(symbols(n), max_size=2))
    return " ".join(parts) or "1"


@st.composite
def jet_words(draw, n: int) -> str:
    text = signed_sum(draw, draw(st.lists(form_terms(n, (0,)), min_size=1, max_size=3)))
    if draw(st.booleans()):
        text = f"d[{draw(st.integers(1, n))}]({text})"
    return text


@st.composite
def forms(draw, n: int) -> str:
    text = signed_sum(draw, draw(st.lists(form_terms(n), min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 2))):
        text = f"d({text})"
    return text


@st.composite
def grassmann(draw, n: int) -> str:
    # No unit term: scalars do not add to Grassmann values in the language.
    def term(letters: list[tuple[str, int]]) -> str:
        return " ".join(f"{kind}[{i}]" for kind, i in letters)

    letter = st.tuples(st.sampled_from(["th", "bth"]), st.integers(1, n))
    terms = draw(st.lists(st.lists(letter, min_size=1, max_size=3).map(term),
                          min_size=1, max_size=3))
    scale = draw(st.lists(st.sampled_from(SCALARS), max_size=1))
    return " ".join(scale + [f"({signed_sum(draw, terms)})"])


@st.composite
def matrices(draw) -> str:
    def literal() -> str:
        entries = draw(st.lists(st.sampled_from(["0", "0"] + SCALARS),
                                min_size=9, max_size=9))
        return "mat[" + "; ".join(", ".join(entries[r:r + 3]) for r in (0, 3, 6)) + "]"

    text = " ".join(literal() for _ in range(draw(st.integers(1, 2))))
    if draw(st.booleans()):
        text = f"d({text})"
    return text


@st.composite
def deltas(draw, n: int) -> str:
    def delta() -> str:
        terms = draw(st.lists(form_terms(n, (3,)), min_size=1, max_size=3))
        return f"delta({signed_sum(draw, terms)})"

    text = signed_sum(draw, [delta() for _ in range(draw(st.integers(1, 2)))])
    if draw(st.booleans()):
        text = f"{draw(st.sampled_from(SCALARS))} ({text})"
    return text


#: Expression strategies by the value kind they evaluate to (or a promotable one).
EXPRESSIONS = {
    "scalar": lambda n: st.sampled_from(SCALARS),
    "coeff": jet_words,
    "form": forms,
    "grass": grassmann,
    "matrix": lambda n: matrices(),
    "conj": deltas,
}


def cases(kinds):
    """(EvalContext, expression text) for n = 1..4 in both modes."""
    return st.tuples(st.integers(1, 4), st.booleans()).flatmap(
        lambda nm: st.tuples(st.just(EvalContext(*nm)), kinds(nm[0])))


# -- canonical text ------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(EXPRESSIONS))
def test_canonical_text_is_a_fixed_point(kind):
    @PROPERTY
    @given(cases(EXPRESSIONS[kind]))
    def check(case):
        ctx, text = case
        first = print_canonical(evaluate_text(text, ctx))
        assert print_canonical(evaluate_text(first, ctx)) == first

    check()


# -- frozen values -------------------------------------------------------------


#: The five word-combination classes, by expression kind.
VALUE_KINDS = {"coeff": CoeffExpr, "form": Form, "grass": GrassElement,
               "matrix": GradedMatrix, "conj": ConjForm}


def value_pairs(kind: str):
    """Strategy for (kind, two expressions drawn for that kind), given n."""
    return lambda n: st.tuples(st.just(kind), EXPRESSIONS[kind](n), EXPRESSIONS[kind](n))


def as_value(kind: str, v, ctx: EvalContext):
    """Promote a scalar or coefficient result to the kind its text was drawn for."""
    if isinstance(v, Scalar):
        v = CoeffExpr.from_scalar(v, ctx.commutative)
    if kind == "form" and isinstance(v, CoeffExpr):
        return coefficient_form(v, ctx.n)
    return v


def evaluated(case):
    ctx, (kind, *texts) = case
    values = [as_value(kind, evaluate_text(t, ctx), ctx) for t in texts]
    assert all(type(v) is VALUE_KINDS[kind] for v in values)
    return values


def snapshot(*values) -> list[tuple[list, int]]:
    return [(list(v.terms.items()), hash(v)) for v in values]


def operations(a) -> list:
    """The operations of ``a``'s class, each as a function of (a, b)."""
    out = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: -a,
           lambda a, b: total(a, [b, -b, a]),
           lambda a, b: a.scale(Scalar(2, 1)), lambda a, b: a.scale(Scalar(0))]
    if not isinstance(a, ConjForm):
        out.append(lambda a, b: a * b)
    if isinstance(a, Form):
        out.append(lambda a, b: a.d())
    elif isinstance(a, CoeffExpr):
        out.append(lambda a, b: a.derive(1))
    elif isinstance(a, ConjForm):
        out.append(lambda a, b: a.conjugate_back())
    elif isinstance(a, GradedMatrix):
        out.append(lambda a, b: eta_differential(a))
    return out


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_operations_leave_their_operands_unchanged(kind):
    @PROPERTY
    @given(cases(value_pairs(kind)))
    def check(case):
        a, b = evaluated(case)
        before = snapshot(a, b)
        for op in operations(a):
            op(a, b)
            assert snapshot(a, b) == before

    check()


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_equal_values_hash_alike(kind):
    @PROPERTY
    @given(cases(value_pairs(kind)))
    def check(case):
        a, b = evaluated(case)
        again, _ = evaluated(case)
        half = Scalar(Fraction(1, 2))
        for same in (again, (a + b) - b, a.scale(Scalar(2)).scale(half), -(-a)):
            assert same == a
            assert hash(same) == hash(a)
        summed = total(a, [b, -b, a])
        assert summed == a + b - b + a
        assert hash(summed) == hash(a + b - b + a)
        assert a - a == a.scale(Scalar(0))
        assert (a - a).is_zero()

    check()


def test_total_rejects_mixed_classes_and_parameters():
    with pytest.raises(TypeError):
        total(CoeffExpr.zero(), [CoeffExpr.zero(), Form.zero(2)])
    with pytest.raises(TypeError):
        total(GradedMatrix.identity(), [GradedMatrix.zero(), Form.zero(2)])
    with pytest.raises(ValueError):
        total(Form.zero(2), [Form.zero(2), Form.zero(3)])
    with pytest.raises(ValueError):
        total(CoeffExpr.zero(False), [CoeffExpr.zero(True)])
