"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and methods of each z3forms
layer.  A method is replaced on its class; a function is replaced under
every name any z3forms module binds it to (``forms`` imports
``normalize_word`` from ``coeffs``, ``cli`` imports ``parse`` as
``parse_expr``), so calls made inside the package are seen too.
``Tracer.uninstall`` puts the originals back.

Per (layer, function) the tracer counts calls and accumulates self time:
a call's duration minus the time spent in wrapped calls beneath it.  So a
layer's self time excludes the child layers it calls, and ``scalar`` self
time includes the ``fractions`` work done inside ``Scalar`` methods.  It
keeps spans only for the top-level operations and the wrapped calls made
directly under them; everything else is aggregated in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

LAYERS = ("scalar", "coeffs", "forms", "grassmann", "matrices", "gauge",
          "action", "expr", "render", "cli", "verify")

#: (layer, module, class or None, attribute names) to wrap.
TARGETS = (
    ("scalar", "scalar", "Scalar",
     ("__add__", "__sub__", "__mul__", "__neg__", "conjugate", "inverse")),
    ("scalar", "scalar", None, ("scalar",)),
    ("coeffs", "coeffs", "CoeffExpr",
     ("__init__", "__add__", "__sub__", "__mul__", "scale", "derive", "conjugate")),
    ("coeffs", "coeffs", None, ("normalize_word",)),
    ("forms", "forms", "Form", ("__init__", "__add__", "__sub__", "__mul__", "scale", "d")),
    ("forms", "forms", None,
     ("normalize_form_word", "components", "coefficient_form",
      "form_from_components", "redistribute_t3")),
    ("grassmann", "grassmann", "GrassElement",
     ("__init__", "__add__", "__sub__", "__mul__", "scale")),
    ("grassmann", "grassmann", None, ("enumerate_basis", "theta_only_count")),
    ("matrices", "matrices", "GradedMatrix",
     ("__init__", "__add__", "__sub__", "__mul__", "scale", "grade_of", "graded_parts")),
    ("matrices", "matrices", None, ("eta_differential", "graded_commutator")),
    ("gauge", "gauge", None,
     ("generic_connection", "abelian_connection", "pure_gauge_connection",
      "connection_form", "matter_field", "covariant_differential", "curvature",
      "curvature_components", "field_strength", "true_curvature_table",
      "reference_curvature_table", "gauge_transform", "covariant_derivative_F",
      "cyclic_symmetrize_raw", "cyclic_symmetrize", "covariant_cyclic_combination",
      "tables_equal", "conjugate_table_by_u")),
    ("action", "action", "ConjForm", ("__add__", "__sub__", "scale", "conjugate_back")),
    ("action", "action", None,
     ("conjugate_form", "scalar_product", "lagrangian_density", "lagrangian_sectors",
      "variational_derivative", "euler_lagrange_abelian", "solve_linear",
      "lorenz_reduce", "divergence_of_strength", "reference_field_equation",
      "biharmonic_reference", "lagrangian_report", "field_equation_report")),
    ("expr", "expr", None, ("parse", "evaluate", "print_canonical", "grade_description")),
    ("render", "render", None,
     ("render_coeff", "render_form", "render_conj_form", "render_grass", "render_matrix")),
    ("cli", "cli", None, ("main",)),
    ("verify", "verify", None, ("run_verify",)),
)

#: The function whose non-empty results ``forms.normalize.kept_ratio`` counts.
KEPT = ("forms", "normalize_form_word")


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    kept: int = 0
    self_s: float = 0.0
    #: Time of the outermost calls only, so recursion is not counted twice.
    total_s: float = 0.0
    depth: int = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # Time covered by wrapped children, one slot per open span.
        self._open: list[float] = []
        self._op_id: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for _, module, _, _ in TARGETS:
            importlib.import_module(f"z3forms.{module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "z3forms" or name.startswith("z3forms.")) and m is not None]
        for layer, module, cls_name, names in TARGETS:
            mod = sys.modules[f"z3forms.{module}"]
            for name in names:
                if cls_name is not None:
                    cls = getattr(mod, cls_name)
                    self._patch(cls, name, self._wrap(layer, name, vars(cls)[name]))
                    continue
                orig = getattr(mod, name)
                wrapper = self._wrap(layer, name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats.setdefault((layer, name), Stat())
        count_kept = (layer, name) == KEPT
        open_ = self._open
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = len(open_) == 1  # directly under an operation span
            open_.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                stat.calls += 1
                stat.self_s += elapsed - open_.pop()
                stat.depth -= 1
                if not stat.depth:
                    stat.total_s += elapsed
                if open_:
                    open_[-1] += elapsed
                if top:
                    spans.append((len(spans), tracer._op_id, f"{layer}.{name}", start, end))
            if count_kept and result:
                stat.kept += 1
            return result

        return wrapper

    # -- operation spans ----------------------------------------------------

    def operation(self, name: str, thunk):
        """Run ``thunk`` as one top-level operation span; return its result."""
        if self._open:
            raise RuntimeError("operations do not nest")
        self._op_id = len(self.spans)
        self.spans.append((self._op_id, None, name, 0.0, 0.0))
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            end = time.perf_counter()
            self._open.clear()
            self.spans[self._op_id] = (self._op_id, None, name, start, end)
            self._op_id = None

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = stat.errors = stat.kept = 0
            stat.self_s = stat.total_s = 0.0
        self.spans.clear()


def layer_calls(stats: dict[tuple[str, str], Stat], layer: str) -> int:
    return sum(s.calls for (lay, _), s in stats.items() if lay == layer)


def layer_metrics(stats: dict[tuple[str, str], Stat]) -> dict[str, float]:
    """The named per-layer metrics of one traced pass."""

    def calls(layer: str, *names: str) -> int:
        return sum(stats[(layer, n)].calls for n in names)

    normalize = stats[KEPT]
    out: dict[str, float] = {
        "scalar.mul.calls": calls("scalar", "__mul__"),
        "scalar.add.calls": calls("scalar", "__add__", "__sub__"),
        "matrices.mul.calls": calls("matrices", "__mul__"),
        "matrices.eta_differential.calls": calls("matrices", "eta_differential"),
        "coeffs.mul.calls": calls("coeffs", "__mul__"),
        "coeffs.derive.calls": calls("coeffs", "derive"),
        "coeffs.normalize_word.calls": calls("coeffs", "normalize_word"),
        "forms.mul.calls": calls("forms", "__mul__"),
        "forms.d.calls": calls("forms", "d"),
        "forms.normalize.calls": normalize.calls,
        "forms.normalize.kept_ratio": (normalize.kept / normalize.calls
                                       if normalize.calls else 0.0),
        "grassmann.mul.calls": calls("grassmann", "__mul__"),
        "gauge.curvature.calls": calls("gauge", "curvature"),
        "action.solve_linear.s": stats[("action", "solve_linear")].total_s,
        "action.scalar_product.calls": calls("action", "scalar_product"),
        "expr.parse.s": stats[("expr", "parse")].total_s,
        "expr.parse.errors": stats[("expr", "parse")].errors,
        "expr.evaluate.s": stats[("expr", "evaluate")].total_s,
        "cli.main.calls": calls("cli", "main"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_s for (lay, _), s in stats.items()
                                     if lay == layer)
    return out
