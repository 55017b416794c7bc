"""The bench scripts: the timing-history runner writes records with the
documented keys, counts calls without leaving wrappers behind and times
start-up in fresh processes, and the output sweep hashes what the CLI
prints."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import z3forms
from z3forms.cli import main

TESTS = Path(__file__).resolve().parent


def _load(name: str):
    path = TESTS.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


history, outputs = _load("history"), _load("outputs")


def test_curvature_record_has_the_history_keys():
    (case,) = [c for c in history.cases(z3forms)
               if c.case == "curvature(generic_connection(n))" and c.n == 2]
    record = history.measure(case, repeats=1, commit="test")
    assert list(record) == ["layer", "case", "n", "median_s", "repeats", "terms",
                            "calls", "python", "commit"]
    assert record["layer"] == "gauge" and record["repeats"] == 1
    assert record["terms"] == len(z3forms.curvature(z3forms.generic_connection(2)).terms)
    assert record["median_s"] > 0
    assert list(record["calls"]) == ["lincomb.accumulate", "coeffs.normalize_word",
                                     "forms.normalize_form_word", "Scalar.__mul__"]
    assert all(count > 0 for count in record["calls"].values())


def test_call_counts_repeat_and_leave_the_package_unwrapped():
    def bindings() -> list:
        return [(name, attr, value) for name, m in sorted(sys.modules.items())
                if name.startswith("z3forms") for attr, value in vars(m).items()
                if callable(value)] + [vars(z3forms.Scalar)["__mul__"]]

    before = bindings()
    run = lambda: z3forms.curvature(z3forms.pure_gauge_connection(3))  # noqa: E731
    first = history.count_calls(run)
    assert history.count_calls(run) == first
    assert bindings() == before


def test_forms_case_times_d_of_the_degree_two_part():
    got = {c.case: c for c in history.cases(z3forms) if c.layer == "forms"}
    assert len(got) == 2
    for mode in (False, True):
        case = got[f"Form.d(dA + A*A), pure_gauge_connection(n, commutative={mode})"]
        a = z3forms.gauge.connection_form(z3forms.pure_gauge_connection(5, mode))
        want = (a.d() + a * a).d()
        assert case.run() == want and case.terms(case.run()) == len(want.terms)


def test_render_case_prints_the_n12_curvature():
    (case,) = [c for c in history.cases(z3forms) if c.layer == "render"]
    big = z3forms.curvature(z3forms.generic_connection(12))
    text = case.run()
    assert text == str(big) and case.terms(text) == len(big.terms)


def test_startup_records_time_fresh_processes_without_counts():
    got = [c for c in history.cases(z3forms) if c.layer == "startup"]
    assert [c.case for c in got] == [f"fresh process: {code}" for code in history.STARTUP]
    for case in got:
        record = history.measure(case, repeats=1, commit="test")
        assert record["terms"] is None and record["calls"] is None
        assert record["median_s"] > 0
    # The child imports the measured tree's z3forms, and a failing child raises.
    here = str(Path(z3forms.__file__).resolve())
    history._fresh_process(z3forms, "import sys, z3forms; from pathlib import Path; "
                           f"sys.exit(str(Path(z3forms.__file__).resolve()) != {here!r})")
    with pytest.raises(subprocess.CalledProcessError):
        history._fresh_process(z3forms, "raise SystemExit(2)")


def test_output_sweep_hashes_the_golden_text_without_elapsed_lines():
    assert len(outputs.calls()) == 2428
    argv = ("curvature", "--dim", "2", "--gauge", "generic", "--json")
    golden = (TESTS / "golden" / "curvature_dim2_generic.json").read_text()
    assert outputs.digest(main, argv) == outputs.digest_of(0, golden, "", None)
    assert outputs.digest_of(1, "", "elapsed: 0.1s\n", None) == outputs.digest_of(1, "", "", None)
