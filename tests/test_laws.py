"""The laws of a graded q-differential algebra on every model: the laws are
the ``check_*`` functions of ``shared.py``, the models the records of
``strategies.MODELS`` (matrices, forms in each mode, and the Grassmann
algebra, which has no ``d`` and gets the product laws only), each the
strategies of one ``shared.Algebra``.  A model is
added by adding its record.  Example generation is derandomized.  A pair
that a named test of its model already runs, with the same check on the
same strategies, runs there and not here (``RUN_BY_NAME``), so every law
runs once on every model."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from strategies import MODELS, PROPERTY, law_case  # noqa: E402

from shared import (  # noqa: E402
    check_associative,
    check_d_nilpotent,
    check_d_order_is_N,
    check_d_raises_grade,
    check_grades_add,
    check_twisted_leibniz,
)

#: Each law: its check, the makers of its values, and whether it needs ``d``.
LAWS = {
    "d_raises_grade": (check_d_raises_grade, ("homogeneous",), True),
    "d_nilpotent": (check_d_nilpotent, ("element",), True),
    "grades_add": (check_grades_add, ("homogeneous", "homogeneous"), False),
    "associative": (check_associative, ("element", "element", "element"), False),
    "twisted_leibniz": (check_twisted_leibniz, ("leibniz_left", "element"), True),
}

#: (law, model) -> the named test that runs that check on that model.
RUN_BY_NAME = {
    ("d_nilpotent", "matrix"): "test_matrix_properties.py::test_differential_cubes_to_zero",
    ("twisted_leibniz", "matrix"): "test_matrix_properties.py::test_graded_leibniz",
    ("grades_add", "matrix"): "test_matrix_properties.py::test_grades_add_under_product",
    ("d_nilpotent", "forms"): "test_form_properties.py::test_d_cubed_vanishes",
    ("twisted_leibniz", "forms"): "test_form_properties.py::test_graded_leibniz_generator_tailed",
    ("d_order_is_N", "matrix"): "test_matrices.py::test_differential_cubes_to_zero_random",
}


def _runs_here(law: str, model) -> bool:
    return (law, model.algebra.name) not in RUN_BY_NAME


@pytest.mark.parametrize("law, model", [pytest.param(law, m, id=f"{law}-{m.algebra.name}")
                                        for law, (_, _, needs_d) in LAWS.items()
                                        for m in MODELS
                                        if (m.algebra.d or not needs_d) and _runs_here(law, m)])
def test_law(law, model):
    check, makers, _ = LAWS[law]
    # given() applied here draws from the parametrized model's own strategy,
    # which costs less per example than drawing through st.data().
    PROPERTY(given(law_case(model, *makers))(lambda case: check(model.algebra, *case)))()


@pytest.mark.parametrize("model", [m for m in MODELS
                                   if m.algebra.d and _runs_here("d_order_is_N", m)],
                         ids=lambda m: m.algebra.name)
def test_d_order_is_N(model):
    check_d_order_is_N(model.algebra)
