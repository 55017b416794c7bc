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

A public name's module is imported when the name is first read, so a
caller that builds a curvature never loads the parser or verify suites.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module with the public names it defines, in the order of ``__all__``.
_EXPORTS = {
    "action": ("ConjForm", "FieldEquationReport", "LagrangianReport", "biharmonic_reference",
               "conjugate_form", "euler_lagrange_abelian", "field_equation_report",
               "lagrangian_density", "lagrangian_report", "lorenz_reduce",
               "reference_field_equation", "scalar_product", "variational_derivative"),
    "coeffs": ("CoeffExpr", "JetSymbol"),
    "expr": ("EvalContext", "EvalError", "ParseError", "evaluate", "evaluate_text",
             "grade_description", "parse", "print_canonical"),
    "forms": ("ComponentTable", "Form", "coefficient_form", "components", "coordinate",
              "ddx", "dx", "form_from_components", "redistribute_t3"),
    "gauge": ("Connection", "abelian_connection", "covariant_derivative_F",
              "covariant_differential", "curvature", "curvature_components",
              "cyclic_symmetrize", "field_strength", "gauge_transform",
              "generic_connection", "matter_field", "pure_gauge_connection"),
    "grassmann": ("GrassElement", "bar_theta", "enumerate_basis", "theta", "theta_only_count"),
    "matrices": ("ETA", "GradedMatrix", "eta_differential", "graded_commutator"),
    "scalar": ("J", "J2", "ONE", "Scalar", "ZERO", "jpow", "scalar"),
    "verify": ("VerifyFailure", "VerifyReport", "run_verify"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

# Every module needs the scalars, so they are bound now; and the package
# attribute ``scalar`` is then the function, not the module.
_scalar = import_module(".scalar", __name__)
globals().update({name: getattr(_scalar, name) for name in _EXPORTS["scalar"]})

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # The result is not stored in the package: a tool that wraps a function
    # in its defining module is seen here, and so is the original again
    # once the tool puts it back.  Any other name is tried as a submodule;
    # only a failure inside an existing module's own imports propagates.
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    try:
        return import_module(f".{name}", __name__)
    except ModuleNotFoundError as err:
        if err.name is None or not f"{__name__}.{name}".startswith(err.name):
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
