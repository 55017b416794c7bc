"""Expression language and command-line tool: round-trips, exit codes,
deterministic verification reports."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from z3forms import (
    J,
    J2,
    ONE,
    CoeffExpr,
    ConjForm,
    EvalContext,
    EvalError,
    Form,
    GradedMatrix,
    GrassElement,
    JetSymbol,
    ParseError,
    coefficient_form,
    evaluate_text,
    print_canonical,
    run_verify,
    scalar,
)
from z3forms.cli import main
from z3forms.expr import MAX_DEPTH, parse

from shared import CORPUS


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip_is_canonical_fixed_point(text):
    ctx = EvalContext(n=4)
    first = print_canonical(evaluate_text(text, ctx))
    second = print_canonical(evaluate_text(first, ctx))
    assert first == second


def test_canonical_examples():
    ctx = EvalContext(n=4)

    def canon(s: str) -> str:
        return print_canonical(evaluate_text(s, ctx))

    assert canon("dx[2] dx[3] dx[1]") == "j^2 * dx[1] dx[2] dx[3]"
    assert canon("dx[1] dx[1] dx[1]") == "0"
    assert canon("dx[1] ddx[2]") == "j * ddx[2] dx[1]"
    assert canon("U Uinv") == "1"
    assert canon("f mu") == "mu f"
    assert canon("d(x[1] x[2])") == "x[1] dx[2] + x[2] dx[1]"
    assert canon("th[1] th[1] th[1]") == "0"
    assert canon("j j j") == "1"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("dx[1")
    with pytest.raises(ParseError):
        parse("f + + g")
    with pytest.raises(ParseError):
        parse("mat[1, 2; 3]")
    with pytest.raises(ParseError):
        parse("")
    try:
        parse("f @ g")
    except ParseError as exc:
        assert exc.line == 1
        assert exc.col >= 1


def test_evaluation_errors():
    ctx = EvalContext(n=2)
    with pytest.raises(EvalError):
        evaluate_text("dx[1] th[1]", ctx)  # mixed value kinds
    with pytest.raises(EvalError):
        evaluate_text("delx[1]", ctx)  # conjugate atoms only via delta(...)
    with pytest.raises(EvalError):
        evaluate_text("del2x[1]", ctx)
    with pytest.raises(EvalError):
        evaluate_text("d(th[1])", ctx)
    with pytest.raises(EvalError):
        evaluate_text("delta(dx[1])", ctx)  # conjugation needs degree 3
    with pytest.raises(ValueError):
        evaluate_text("dx[5]", ctx)  # index out of range for the dimension


@pytest.mark.parametrize("text, build", [
    ("dx[5]", lambda: Form(4, [(ONE, (("dx", 5),))])),
    ("ddx[0]", lambda: Form(4, [(ONE, (("ddx", 0),))])),
    ("th[5]", lambda: GrassElement.word(4, [("th", 5)])),
    ("U[1]", lambda: JetSymbol("U", 1)),
    ("~mu", lambda: JetSymbol("mu", barred=True)),
    ("delta(f)", lambda: ConjForm(coefficient_form(CoeffExpr.from_symbol(JetSymbol("f")), 4))),
    ("mat[f, 1, 1; 1, 1, 1; 1, 1, 1]",
     lambda: GradedMatrix([[CoeffExpr.from_symbol(JetSymbol("f")), ONE, ONE]] + [[ONE] * 3] * 2)),
], ids=["dx", "ddx", "th", "U", "mu", "delta", "mat"])
def test_evaluation_reports_the_constructors_error(text, build):
    # The value constructors own these checks; the evaluator only turns
    # their ValueError into an EvalError with the same text.
    with pytest.raises(ValueError) as built:
        build()
    with pytest.raises(EvalError) as evaluated:
        evaluate_text(text, EvalContext(n=4))
    assert str(evaluated.value) == str(built.value)


def test_grassmann_index_error_names_the_grassmann_algebra():
    with pytest.raises(EvalError, match=r"^Grassmann index 5 out of range 1\.\.4$"):
        evaluate_text("th[5]", EvalContext(n=4))


def test_conjugate_side_generator_is_rejected_before_its_index():
    # delx[9] has two faults; the kind is checked first, before any constructor.
    with pytest.raises(EvalError, match=r"built with delta\(\.\.\.\), not directly"):
        evaluate_text("delx[9]", EvalContext(n=4))


@pytest.mark.parametrize("text, want", [
    ("j^4", J), ("j^2", J2), ("2/4", scalar(Fraction(1, 2))), ("7", scalar(7)),
])
def test_literals_evaluate_to_scalars(text, want):
    assert evaluate_text(text, EvalContext(n=2)) == want


def test_dimension_context_enforced():
    assert evaluate_text("dx[3]", EvalContext(n=3)) is not None
    with pytest.raises(ValueError):
        evaluate_text("dx[3]", EvalContext(n=2))


# -- the command-line tool --------------------------------------------------------


def test_cli_normalize(capsys):
    assert main(["normalize", "-e", "dx[2] dx[3] dx[1]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "j^2 * dx[1] dx[2] dx[3]"


def test_cli_normalize_json(capsys):
    assert main(["normalize", "-e", "dx[1]", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"input": "dx[1]", "canonical": "dx[1]"}


def test_cli_d_command(capsys):
    assert main(["d", "-e", "x[1] x[2]", "-n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x[1] dx[2] + x[2] dx[1]"
    assert main(["d", "-e", "f", "-n", "3", "--dim", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_grade(capsys):
    assert main(["grade", "-e", "th[1] th[2]", "--dim", "3"]) == 0
    assert "grade 2" in capsys.readouterr().out
    assert main(["grade", "-e", "ddx[1] dx[2]"]) == 0
    assert "grade 0" in capsys.readouterr().out


def test_cli_curvature(capsys):
    assert main(["curvature", "--dim", "2", "--gauge", "abelian"]) == 0
    text = capsys.readouterr().out
    assert "ddx[1] dx[2]" in text
    assert main(["curvature", "--dim", "2", "--gauge", "generic", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "dim", "gauge", "curvature", "dx_sector", "ddx_dx_sector",
    }
    assert payload["dim"] == 2
    assert main(["curvature", "--dim", "2", "--gauge", "bogus"]) == 2


@pytest.mark.parametrize("gauge", ["pureX", "purely:U", "pure", "pure:"])
def test_cli_curvature_takes_only_the_documented_gauge_kinds(capsys, gauge):
    assert main(["curvature", "--dim", "2", "--gauge", gauge]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if gauge.startswith("pure:"):
        assert "the built-in invertible pair is named U" in captured.err
    else:
        assert f"unknown gauge kind {gauge!r}" in captured.err


def test_cli_lagrangian(capsys):
    assert main(["lagrangian", "--dim", "2", "--mu", "1"]) == 0
    text = capsys.readouterr().out
    assert "A[1]_,2" in text
    assert main(["lagrangian", "--dim", "2"]) == 0
    assert "mu" in capsys.readouterr().out
    assert main(["lagrangian", "--dim", "2", "--mu", "0"]) == 2
    assert main(["lagrangian", "--dim", "2", "--mu", "nonsense"]) == 2


def test_cli_lagrangian_json_writes_the_weight_it_used(capsys):
    bodies = set()
    for mu in ("0.5", "1/2", " 2/4"):
        assert main(["lagrangian", "--dim", "2", "--mu", mu, "--json"]) == 0
        bodies.add(capsys.readouterr().out)
    assert len(bodies) == 1
    assert json.loads(bodies.pop())["mu"] == "1/2"


def test_cli_exit_codes(capsys):
    assert main(["normalize", "-e", "dx[1"]) == 2          # parse error
    assert main(["normalize", "-e", "delx[1]"]) == 2       # evaluation error
    assert main(["normalize", "-e", "dx[9]"]) == 2         # range error
    assert main(["verify", "nope"]) == 2                   # unknown suite
    assert main(["verify", "scalar", "--cases", "2"]) == 0
    assert main(["verify", "gauge", "--cases", "2"]) == 1  # known obstructions
    capsys.readouterr()


def test_cli_verify_rejects_a_negative_case_count(capsys):
    assert main(["verify", "scalar", "--cases", "-3"]) == 2
    assert "negative" in capsys.readouterr().err
    assert main(["verify", "scalar", "--cases", "0"]) == 0
    capsys.readouterr()


def test_cli_barred_coordinate_is_the_coordinate(capsys):
    for command in ("normalize", "d"):
        assert main([command, "-e", "x[1] - ~x[1]", "--dim", "2"]) == 0
        assert capsys.readouterr().out == "0\n"
    # Only an indexed x is a coordinate; the constant mu has no partner.
    assert main(["normalize", "-e", "~x", "--dim", "2"]) == 0
    assert capsys.readouterr().out == "~x\n"
    assert main(["normalize", "-e", "~mu", "--dim", "2"]) == 2
    capsys.readouterr()


def test_cli_zero_denominator_is_a_parse_error(capsys):
    for text in ("1/0", "f + 2/00 dx[1]"):
        assert main(["normalize", "-e", text]) == 2
        assert "zero denominator" in capsys.readouterr().err
    with pytest.raises(ParseError) as info:
        parse("3/0")
    assert (info.value.line, info.value.col) == (1, 3)


NESTINGS = {
    "parentheses": lambda k: "(" * k + "f" + ")" * k,
    "negation": lambda k: "-(" * k + "f" + ")" * k,
    "bar": lambda k: "~" * k + "f",
    "d": lambda k: "d(" * k + "f dx[1]" + ")" * k,
    "partial": lambda k: "d[1] " * k + "f",
    "delta": lambda k: "delta(" * k + "dx[1] dx[1] dx[2]" + ")" * k,
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_cli_deep_nesting_is_a_parse_error(kind, capsys):
    nest = NESTINGS[kind]
    for depth in (MAX_DEPTH, 3000):
        assert main(["normalize", "--dim", "2", "--expr=" + nest(depth)]) == 2
        assert "nested deeper than" in capsys.readouterr().err
    # One level less parses; the delta chain then fails evaluation, cleanly.
    code = main(["normalize", "--dim", "2", "--expr=" + nest(MAX_DEPTH - 1)])
    assert code == (2 if kind == "delta" else 0)
    assert "nested deeper than" not in capsys.readouterr().err


def test_cli_constant_under_delta(capsys):
    argv = ["normalize", "-e", "delta(2/3 mu dx[1] dx[1] dx[2])", "--dim", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out.strip()
    assert first == "delta(2/3 * mu dx[1] dx[1] dx[2])"
    assert main(["normalize", "-e", first, "--dim", "2"]) == 0
    assert capsys.readouterr().out.strip() == first


def test_cli_verify_json(capsys):
    assert main(["verify", "scalar", "--cases", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "scalar"
    assert payload["result"] == "ok"
    assert payload["failures"] == []
    assert main(["verify", "gauge", "--cases", "2", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "FAIL"
    assert all(f["note"] for f in payload["failures"])


def test_cli_env_dimension(monkeypatch, capsys):
    monkeypatch.setenv("Z3FORMS_DIM", "2")
    assert main(["normalize", "-e", "dx[2]"]) == 0
    assert main(["normalize", "-e", "dx[3]"]) == 2
    monkeypatch.setenv("Z3FORMS_DIM", "3")
    assert main(["normalize", "-e", "dx[3]"]) == 0
    capsys.readouterr()


def test_cli_parser_is_reused_per_default_dimension(monkeypatch, capsys):
    from z3forms.cli import _build_parser

    assert _build_parser(2) is _build_parser(2)
    assert _build_parser(2) is not _build_parser(3)
    for dim, code in (("2", 2), ("3", 0), ("2", 2)):
        monkeypatch.setenv("Z3FORMS_DIM", dim)
        assert main(["normalize", "-e", "dx[3]"]) == code
        with pytest.raises(SystemExit) as info:
            main(["normalize", "--help"])
        assert info.value.code == 0
        assert f"(default {dim})" in capsys.readouterr().out
    # A usage error leaves the cached parser fit for the next call.
    with pytest.raises(SystemExit) as info:
        main(["normalize"])
    assert info.value.code == 2
    assert "required" in capsys.readouterr().err
    assert main(["normalize", "-e", "dx[2] dx[1]"]) == 0
    assert capsys.readouterr().out == "dx[2] dx[1]\n"
    # The environment is still read and checked on every call: a usage error.
    for bad in ("0", "abc"):
        monkeypatch.setenv("Z3FORMS_DIM", bad)
        assert main(["normalize", "-e", "dx[1]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("z3forms: invalid Z3FORMS_DIM: dimension must be "
                                f"a positive integer, got {bad!r}\n")


def test_verify_reports_deterministic():
    for suite in ("scalar", "forms"):
        a = run_verify(suite, seed=11, cases=4)
        b = run_verify(suite, seed=11, cases=4)
        assert a.to_text() == b.to_text()
        assert a.to_json() == b.to_json()
    a = run_verify("all", seed=11, cases=2)
    b = run_verify("all", seed=11, cases=2)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()


def test_verify_failures_carry_notes():
    report = run_verify("gauge", seed=0, cases=2)
    assert report.exit_code == 1
    assert len(report.failures) == 4
    assert all(f.note for f in report.failures)


def test_verify_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_verify("nonsense")
