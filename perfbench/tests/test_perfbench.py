"""Tests of the benchmark itself: the generator and the known-answer checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import checks
import cligen
from cligen import CYCLE, DEEP_NESTING, Request, generate_requests


def test_generator_is_deterministic_per_seed():
    assert generate_requests(7) == generate_requests(7)
    assert generate_requests(7) != generate_requests(8)


def test_generator_mix_is_fixed_and_keeps_known_defects():
    for seed in (0, 1, 2):
        requests = generate_requests(seed)
        assert len(requests) == CYCLE
        assert sum(r.expect == "error" for r in requests) == CYCLE // 10
        zero_den = [r for r in requests if r.defect == "zero-denominator"]
        assert zero_den and all("/0" in " ".join(r.argv) for r in zero_den)
        deep = [r for r in requests if r.defect == "deep-nesting"]
        assert deep and all(r.argv[2].startswith("(" * DEEP_NESTING) for r in deep)
        commands = {r.argv[0] for r in requests}
        assert {"normalize", "grade", "d", "curvature", "lagrangian"} <= commands
        texts = " ".join(r.argv[2] for r in requests if r.argv[1:2] == ("-e",))
        for token in ("dx[", "ddx[", "th[", "bth[", "delta(", "mat[", "_,", "~"):
            assert token in texts


def test_verify_check_accepts_exactly_the_by_design_failures():
    design = [(inp, "note") for inp in sorted(checks.GAUGE_BY_DESIGN)]
    assert checks.check_verify_suite("gauge", design) == []
    assert checks.check_verify_suite("gauge", design[1:])
    assert checks.check_verify_suite("gauge", design + [("d^3 B == 0 #4", "")])
    assert checks.check_verify_suite("gauge", [(design[0][0], "")] + design[1:])
    assert checks.check_verify_suite("matrix", []) == []
    assert checks.check_verify_suite("matrix", [("d^3 B == 0 #4", "")])
    assert checks.check_verify_suite("forms", design[:1])


def test_repeat_check_rejects_different_text():
    assert checks.check_same_text("suite: all", "suite: all", "x") == []
    assert checks.check_same_text("failures: 4", "failures: 5", "x")


def test_field_strength_check_rejects_a_wrong_entry():
    table = {(1, 2): "(A[2]_,1) - (A[1]_,2)", (2, 1): "-(A[2]_,1) + (A[1]_,2)"}
    assert checks.check_field_strength_sector(table, dict(table)) == []
    assert checks.check_field_strength_sector(table, {(1, 2): table[(1, 2)]})
    wrong = dict(table)
    wrong[(1, 2)] = "(A[2]_,1)"
    assert checks.check_field_strength_sector(table, wrong)


def test_zero_check_rejects_a_nonzero_d_cubed():
    assert checks.check_zero("0\n", "d^3") == []
    assert checks.check_zero("mat[0, 0, 0; 0, 0, 0; 0, 0, 0]", "d^3") == []
    assert checks.check_zero("(f_,1,1,1) dx[1] dx[1] dx[1]", "d^3")
    assert checks.check_zero("mat[0, 1, 0; 0, 0, 0; 0, 0, 0]", "d^3")


def test_constant_checks_reject_wrong_constants():
    assert checks.check_lagrangian("2/3", "-1/3", "1", True, 3) == []
    assert checks.check_lagrangian("4/3", "-2/3", "4", True, 3)
    assert checks.check_lagrangian("2/3", "-1/3", "1", False, 3)
    assert checks.check_field_equation("2", "-4", True, 2) == []
    assert checks.check_field_equation("1", "-1", True, 2)
    assert checks.check_field_equation("2", "-4", False, 2)


def _req(argv, expect="ok", defect=None, kind="form"):
    return Request(tuple(argv), kind, expect, defect)


def test_cli_classifier():
    d3 = _req(["d", "-e", "f dx[1]", "-n", "3", "--dim", "2"])
    assert checks.classify_cli(d3, 0, "0\n", "", None) == ("ok", [])
    assert checks.classify_cli(d3, 0, "f dx[1]\n", "", None)[0] == "failed"
    assert checks.classify_cli(d3, 2, "", "z3forms: bad\n", None)[0] == "failed"

    grade = _req(["grade", "-e", "dx[1]", "--dim", "2"])
    assert checks.classify_cli(grade, 0, "grade 1, degree 1\n", "", None)[0] == "ok"
    assert checks.classify_cli(grade, 0, "degree one\n", "", None)[0] == "failed"

    bad = _req(["normalize", "-e", "(f", "--dim", "2"], "error", kind="malformed")
    assert checks.classify_cli(bad, 2, "", "z3forms: expected ')'\n", None)[0] == "ok"
    assert checks.classify_cli(bad, 0, "f\n", "", None)[0] == "failed"
    assert checks.classify_cli(bad, 1, "", "Traceback ...", "IndexError")[0] == "failed"

    zero = _req(["normalize", "-e", "1/0", "--dim", "2"], "error", "zero-denominator",
                "malformed")
    assert checks.classify_cli(zero, 1, "", "", "ZeroDivisionError")[0] == "known-defect"
    assert checks.classify_cli(zero, 2, "", "z3forms: zero denominator\n", None)[0] == "ok"
    assert checks.classify_cli(zero, 1, "", "", "RecursionError")[0] == "failed"


def test_known_defects_name_what_the_cli_does_today():
    from workloads import call_cli

    for request in generate_requests(3):
        if request.defect in ("zero-denominator", "deep-nesting"):
            verdict, _ = checks.classify_cli(request, *call_cli(request.argv))
            assert verdict in ("known-defect", "ok")
    assert cligen.KNOWN_DEFECTS["zero-denominator"][0] == "ZeroDivisionError"


def test_tracer_counts_calls_and_restores_the_originals():
    import importlib

    import z3forms
    from layertrace import Tracer, layer_metrics

    # z3forms.scalar is also the name of a function; fetch the modules.
    forms = importlib.import_module("z3forms.forms")
    scalar = importlib.import_module("z3forms.scalar")
    original_mul = scalar.Scalar.__mul__
    original_normalize = forms.normalize_word
    tracer = Tracer()
    tracer.install()
    try:
        assert forms.normalize_word is not original_normalize  # bound in forms too
        curvature = tracer.operation(
            "curvature", lambda: z3forms.curvature(z3forms.generic_connection(2)))
    finally:
        tracer.uninstall()
    assert scalar.Scalar.__mul__ is original_mul
    assert forms.normalize_word is original_normalize
    assert not curvature.is_zero()

    metrics = layer_metrics(tracer.stats)
    assert metrics["gauge.curvature.calls"] == 1
    assert metrics["forms.normalize.calls"] > 0
    assert 0 < metrics["forms.normalize.kept_ratio"] <= 1
    assert metrics["matrices.mul.calls"] == 0
    assert all(metrics[f"{layer}.self_s"] >= 0 for layer in ("scalar", "forms", "gauge"))
    op, child = tracer.spans[0], tracer.spans[1]
    assert op[1] is None and child[1] == op[0]
    assert child[2] == "gauge.generic_connection"
