"""Exact symbolic calculus with a cubic differential: d^3 = 0 while d^2 != 0.

The package implements, over the exact field Q(j) with j a primitive cube
root of unity:

* ``scalar`` — exact arithmetic and conjugation in Q(j);
* ``grassmann`` — the ternary analogue of Grassmann algebra (cubes vanish);
* ``matrices`` — a 3x3 graded matrix model whose differential is a graded
  commutator with a cyclic shift matrix;
* ``lincomb`` — the shared core of the five word-combination values
  (coefficients, forms, Grassmann elements, graded matrices,
  conjugate-side forms): a frozen dict from canonical word to nonzero
  scalar, with the linear operations, equality and hashing;
* ``coeffs`` — free (or commutative) coefficient algebra of formal jets,
  with a built-in invertible pair U / Uinv and coordinate symbols;
* ``forms`` — differential forms with first- and second-order generators
  dx[i], ddx[i], the cubic differential, and canonical normalization;
* ``gauge`` — connections, curvature and its two component sectors, gauge
  transformation, covariant derivatives;
* ``action`` — conjugation of degree-3 forms, the positive pairing, the
  quadratic Lagrangian and its variation;
* ``expr`` / ``cli`` — a small expression language, canonical printer, and
  the ``z3forms`` command-line tool with self-verification suites.
"""

from .action import (
    ConjForm,
    FieldEquationReport,
    LagrangianReport,
    PairingConfig,
    biharmonic_reference,
    conjugate_form,
    euler_lagrange_abelian,
    field_equation_report,
    lagrangian_density,
    lagrangian_report,
    lorenz_reduce,
    reference_field_equation,
    scalar_product,
    variational_derivative,
)
from .coeffs import CoeffExpr, JetSymbol
from .expr import (
    EvalContext,
    EvalError,
    ParseError,
    evaluate,
    evaluate_text,
    grade_description,
    parse,
    print_canonical,
)
from .forms import (
    ComponentTable,
    Form,
    coefficient_form,
    components,
    coordinate,
    ddx,
    dx,
    form_from_components,
    redistribute_t3,
)
from .gauge import (
    Connection,
    abelian_connection,
    covariant_derivative_F,
    covariant_differential,
    curvature,
    curvature_components,
    cyclic_symmetrize,
    field_strength,
    gauge_transform,
    generic_connection,
    matter_field,
    pure_gauge_connection,
)
from .grassmann import GrassElement, bar_theta, enumerate_basis, theta, theta_only_count
from .matrices import ETA, GradedMatrix, eta_differential, graded_commutator
from .scalar import J, J2, ONE, Scalar, ZERO, jpow, scalar
from .verify import VerifyFailure, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "ConjForm",
    "FieldEquationReport",
    "LagrangianReport",
    "PairingConfig",
    "biharmonic_reference",
    "conjugate_form",
    "euler_lagrange_abelian",
    "field_equation_report",
    "lagrangian_density",
    "lagrangian_report",
    "lorenz_reduce",
    "reference_field_equation",
    "scalar_product",
    "variational_derivative",
    "CoeffExpr",
    "JetSymbol",
    "EvalContext",
    "EvalError",
    "ParseError",
    "evaluate",
    "evaluate_text",
    "grade_description",
    "parse",
    "print_canonical",
    "ComponentTable",
    "Form",
    "coefficient_form",
    "components",
    "coordinate",
    "ddx",
    "dx",
    "form_from_components",
    "redistribute_t3",
    "Connection",
    "abelian_connection",
    "covariant_derivative_F",
    "covariant_differential",
    "curvature",
    "curvature_components",
    "cyclic_symmetrize",
    "field_strength",
    "gauge_transform",
    "generic_connection",
    "matter_field",
    "pure_gauge_connection",
    "GrassElement",
    "bar_theta",
    "enumerate_basis",
    "theta",
    "theta_only_count",
    "ETA",
    "GradedMatrix",
    "eta_differential",
    "graded_commutator",
    "J",
    "J2",
    "ONE",
    "Scalar",
    "ZERO",
    "jpow",
    "scalar",
    "VerifyFailure",
    "VerifyReport",
    "run_verify",
]
