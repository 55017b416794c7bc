"""Property tests over generated expressions and the five word-combination values.

* Canonical text is a fixed point: printing a value, parsing the text and
  evaluating it again gives the same text.  Expressions cover scalars, jet
  words, forms with ``dx``/``ddx``, ``th``/``bth`` words, ``mat[...]`` and
  ``delta(...)``, in both coefficient modes, for n = 1..4.
* Library-built values read back: the canonical text of a ``Scalar``, a
  ``CoeffExpr`` (both modes), a ``Form``, a ``GrassElement``, a
  ``GradedMatrix`` or a ``ConjForm`` evaluates to an equal value, a
  degree-0 form after the documented promotion.  The Grassmann unit does
  not read back yet and is pinned as an expected failure.
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
from strategies import BUILT, EXPRESSIONS, PROPERTY, expressions  # noqa: E402

from z3forms import (  # noqa: E402
    CoeffExpr,
    ConjForm,
    EvalContext,
    EvalError,
    Form,
    GradedMatrix,
    GrassElement,
    coefficient_form,
    eta_differential,
    evaluate_text,
    print_canonical,
)
from z3forms.lincomb import total  # noqa: E402
from z3forms.scalar import ONE, Scalar  # noqa: E402


# -- canonical text ------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(EXPRESSIONS))
def test_canonical_text_is_a_fixed_point(kind):
    @settings(PROPERTY, max_examples=50)
    @given(expressions(kind))
    def check(case):
        ctx, text = case
        first = print_canonical(evaluate_text(text, ctx))
        assert print_canonical(evaluate_text(first, ctx)) == first

    check()


# -- frozen values -------------------------------------------------------------


#: The five word-combination classes, by expression kind.
VALUE_KINDS = {"coeff": CoeffExpr, "form": Form, "grass": GrassElement,
               "matrix": GradedMatrix, "conj": ConjForm}


def as_value(kind: str, v, ctx: EvalContext):
    """Promote a scalar or coefficient result to the kind its text was drawn for."""
    if isinstance(v, Scalar):
        v = CoeffExpr.from_scalar(v, ctx.commutative)
    if kind == "form" and isinstance(v, CoeffExpr):
        return coefficient_form(v, ctx.n)
    return v


def evaluated(kind: str, case):
    ctx, *texts = case
    values = [as_value(kind, evaluate_text(t, ctx), ctx) for t in texts]
    assert all(type(v) is VALUE_KINDS[kind] for v in values)
    return values


# -- value, text, value ------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_library_values_read_back(kind):
    @settings(PROPERTY, max_examples=50)
    @given(BUILT[kind])
    def check(case):
        ctx, x = case
        back = evaluate_text(print_canonical(x), ctx)
        if kind != "scalar":
            back = as_value(kind, back, ctx)
        if x.is_zero():  # every zero value prints as 0
            assert back.is_zero()
            return
        assert back == x
        if kind == "form":
            assert back.grade_and_degree() == x.grade_and_degree()

    check()


@pytest.mark.xfail(strict=True, raises=EvalError,
                   reason="the unit prints as a scalar term, and the expression language "
                          "adds no scalar to a Grassmann value")
def test_grassmann_unit_reads_back():
    x = GrassElement(1, [(ONE, ()), (ONE, (("th", 1),))])
    assert print_canonical(x) == "1 + th[1]"
    assert evaluate_text(print_canonical(x), EvalContext(1)) == x


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
    @settings(PROPERTY, max_examples=50)
    @given(expressions(kind, kind))
    def check(case):
        a, b = evaluated(kind, case)
        before = snapshot(a, b)
        for op in operations(a):
            op(a, b)
            assert snapshot(a, b) == before

    check()


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_equal_values_hash_alike(kind):
    @settings(PROPERTY, max_examples=50)
    @given(expressions(kind, kind))
    def check(case):
        a, b = evaluated(kind, case)
        again, _ = evaluated(kind, case)
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
