"""Property tests for the gauge and action layer.

The cyclic projector, the pairing of degree-3 forms, the variational
derivative and ``lorenz_reduce`` are checked on generated inputs against
two-pass references (in ``shared``) and an echelon reference written
here.  Example generation is derandomized so that every run checks the
same cases.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from strategies import (  # noqa: E402
    PROPERTY,
    form,
    forms,
    lorenz_inputs,
    t3_tables,
    variation_inputs,
)

from shared import (  # noqa: E402
    assert_same_table,
    jet_key,
    two_pass_symmetrize,
    two_pass_variation,
)
from z3forms import (  # noqa: E402
    CoeffExpr,
    JetSymbol,
    cyclic_symmetrize,
    lorenz_reduce,
    scalar_product,
    variational_derivative,
)
from z3forms.action import _echelon, _reduce  # noqa: E402
from z3forms.coeffs import CONSTANT_NAMES  # noqa: E402
from z3forms.lincomb import accumulate  # noqa: E402
from z3forms.scalar import ONE, scalar  # noqa: E402


@PROPERTY
@given(t3_tables())
def test_symmetrize_matches_two_pass_reference_generated(case):
    table, n, commutative = case
    assert_same_table(cyclic_symmetrize(table),
                      two_pass_symmetrize(table, n, commutative))


@PROPERTY
@given(forms(form(degrees=(3,)), form(degrees=(3,))))
def test_pairing_hermitian_generated(pair):
    w, phi = pair
    for mu in (None, scalar(2)):
        lhs = scalar_product(w, phi, mu)
        assert lhs == scalar_product(phi, w, mu).conjugate(frozenset())


@PROPERTY
@given(variation_inputs, st.integers(1, 3))
def test_variational_derivative_matches_two_pass_reference(L, n):
    assert variational_derivative(L, n) == two_pass_variation(L, n)


def echelon_lorenz_reduce(x: CoeffExpr, n: int, base: str = "A") -> CoeffExpr:
    """Reference: eliminate against an echelon that ``_echelon`` builds from
    the constraint generators, each pivoting on its largest jet by
    ``jet_key``."""
    max_order = 0
    split: dict = {}
    for word, coeff in x:
        consts = tuple(s for s in word if s.name in CONSTANT_NAMES)
        rest = tuple(s for s in word if s.name not in CONSTANT_NAMES)
        max_order = max(max_order, len(rest[0].derivs))
        accumulate(split.setdefault(consts, {}), rest, coeff)
    if max_order == 0:
        return x
    generators = (
        {(JetSymbol(base, i, beta + (i,)),): ONE for i in range(1, n + 1)}
        for size in range(max_order)
        for beta in combinations_with_replacement(range(1, n + 1), size)
    )
    rows = _echelon(generators, lambda vec: max(vec, key=lambda w: jet_key(w[0])))
    out: dict = {}
    for consts, group in split.items():
        for w, c in _reduce(group, rows).items():
            accumulate(out, tuple(sorted(consts + w, key=jet_key)), c)
    return CoeffExpr(out, True)


@PROPERTY
@given(lorenz_inputs())
def test_lorenz_reduce_matches_echelon_reference(case):
    x, n = case
    got, want = lorenz_reduce(x, n), echelon_lorenz_reduce(x, n)
    assert list(got.terms.items()) == list(want.terms.items())
