"""Graded 3x3 matrix calculus: grading patterns, d on graded parts, the
Jacobi witness.  The laws of ``d`` and the product are the kit's checks
in ``shared.py``, run by ``test_laws.py``; the seeded tests here run them
on verify's generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from z3forms import (
    ETA,
    CoeffExpr,
    GradedMatrix,
    JetSymbol,
    eta_differential,
    graded_commutator,
)
from z3forms.scalar import J, ONE
from z3forms.verify import _rand_homogeneous_matrix, _rand_matrix

from shared import (
    MATRIX,
    check_d_nilpotent,
    check_d_order_is_N,
    check_grades_add,
    check_twisted_leibniz,
    unit_matrix,
)


def test_eta_is_grade_one_with_cube_identity():
    assert ETA.grade_of() == 1
    assert ETA * ETA * ETA == GradedMatrix.identity()
    assert (ETA * ETA).grade_of() == 2
    assert GradedMatrix.identity().grade_of() == 0


def test_grade_patterns():
    # grade g lives on the diagonal shifted right by g (mod 3)
    for g in (0, 1, 2):
        for a in range(3):
            assert unit_matrix(a, (a + g) % 3).grade_of() == g
    mixed = unit_matrix(0, 0) + unit_matrix(0, 1)
    assert mixed.grade_of() == "mixed"
    assert GradedMatrix.zero().grade_of() == 0


def test_grade_multiplies_additively():
    rng = random.Random(41)
    for _ in range(100):
        gb, gc = rng.randint(0, 2), rng.randint(0, 2)
        check_grades_add(MATRIX, _rand_homogeneous_matrix(rng, gb),
                         _rand_homogeneous_matrix(rng, gc))


def test_differential_of_identity_vanishes():
    assert eta_differential(GradedMatrix.identity()).is_zero()


def test_differential_cubes_to_zero_random():
    rng = random.Random(42)
    for _ in range(250):
        check_d_nilpotent(MATRIX, _rand_matrix(rng))
    check_d_order_is_N(MATRIX)   # the grade-1 witness has d^2 != 0


def test_graded_leibniz_random():
    rng = random.Random(43)
    for _ in range(250):
        b = _rand_homogeneous_matrix(rng, rng.randint(0, 2))
        check_twisted_leibniz(MATRIX, b, _rand_matrix(rng))


def test_differential_linear_over_graded_parts():
    rng = random.Random(44)
    for _ in range(60):
        b = _rand_matrix(rng)
        parts = b.graded_parts()
        recombined = GradedMatrix.zero()
        for part in parts.values():
            recombined = recombined + eta_differential(part)
        assert (eta_differential(b) - recombined).is_zero()


@pytest.mark.parametrize("entry", [1, Fraction(1, 2), CoeffExpr.from_symbol(JetSymbol("f"))],
                         ids=["int", "Fraction", "CoeffExpr"])
def test_constructor_rejects_entries_that_are_not_scalars(entry):
    with pytest.raises(ValueError, match="^matrix entries must be scalars$"):
        GradedMatrix([[ONE, ONE, ONE], [ONE, entry, ONE], [ONE, ONE, ONE]])


def test_graded_commutator_requires_homogeneous():
    mixed = unit_matrix(0, 0) + unit_matrix(0, 1)
    with pytest.raises(ValueError):
        graded_commutator(mixed, ETA)
    with pytest.raises(ValueError):
        graded_commutator(ETA, mixed)


def test_jacobi_identity_fails_witness():
    # nested graded commutators do not cycle to zero: explicit witness
    b = unit_matrix(0, 1)          # grade 1
    c = unit_matrix(1, 2)          # grade 1
    d = unit_matrix(2, 2)          # grade 0
    total = (
        graded_commutator(graded_commutator(b, c), d)
        + graded_commutator(graded_commutator(c, d), b)
        + graded_commutator(graded_commutator(d, b), c)
    )
    expected = unit_matrix(0, 2).scale(ONE - J)
    assert total == expected
    assert not total.is_zero()
