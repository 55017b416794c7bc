"""Golden corpus: the canonical CLI outputs, byte for byte.

Each file under ``tests/golden/`` is the stdout of ``z3forms.cli.main`` for
one fixed command line (verify reports, curvature tables, Lagrangian
densities, and the canonical print of every ``CORPUS`` expression).  The
test regenerates each output in process and compares it with the file.
The ``elapsed:`` line of ``verify`` goes to stderr and is not compared.
``errors_canonical.txt`` pins the error contract instead: the exit code
and stderr of every ``ERRORS`` call, each message with its line and column.

The files are a record of a reviewed state of the package; a change to the
arithmetic kernel or the algebra layers must leave this diff empty.  To
record them anew (only when a change of output is intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from test_expr_cli import CORPUS
from z3forms.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: file name -> (argv, exit code)
COMMANDS: dict[str, tuple[list[str], int]] = {
    **{
        f"verify_all_seed{seed}.json": (
            ["verify", "all", "--seed", str(seed), "--cases", "50", "--json"], 1)
        for seed in (0, 1)
    },
    **{
        f"curvature_dim{dim}_{gauge.replace(':', '_')}.json": (
            ["curvature", "--dim", str(dim), "--gauge", gauge, "--json"], 0)
        for dim in (2, 3)
        for gauge in ("abelian", "generic", "pure:U")
    },
    **{
        f"curvature_dim{dim}_pure_U.json": (
            ["curvature", "--dim", str(dim), "--gauge", "pure:U", "--json"], 0)
        for dim in (4, 5)
    },
    **{
        f"lagrangian_dim{dim}.txt": (["lagrangian", "--dim", str(dim)], 0)
        for dim in (2, 3, 4)
    },
    "lagrangian_dim3_mu3_7.txt": (["lagrangian", "--dim", "3", "--mu", "3/7"], 0),
}

CORPUS_FILE = "corpus_canonical.txt"
ERRORS_FILE = "errors_canonical.txt"

_BODY = "2 f dx[1] g"


def _expr(text: str, label: str | None = None) -> tuple[str, list[str]]:
    return label or repr(text), ["normalize", f"--expr={text}", "--dim", "4"]


#: (label, argv) of calls that fail, or end at a point where a lexer could
#: slip: every malformed shape of the cli-requests workload, zero
#: denominators, deep nesting, positions after newlines and tabs, Unicode
#: digits and whitespace, and the end of input.
ERRORS: list[tuple[str, list[str]]] = [
    # the malformed shapes of perfbench/cligen.py
    _expr(f"({_BODY}"),
    _expr(f"{_BODY} + )"),
    _expr(f"{_BODY} $ f"),
    _expr(f"{_BODY} dx[6]"),
    _expr("mat[1, 2; 3, 4]"),
    _expr("th[1] dx[2]"),
    _expr("~2"),
    _expr(""),
    _expr(f"{_BODY} +"),
    _expr("j^"),
    _expr("A[3"),
    _expr("~mu f"),
    ("d th[1]", ["d", "-e", "th[1]", "--dim", "4"]),
    ("d -n 4", ["d", "-e", _BODY, "-n", "4", "--dim", "4"]),
    ("grade th + form", ["grade", "-e", f"th[1] + {_BODY}", "--dim", "4"]),
    ("curvature pure:V", ["curvature", "--gauge", "pure:V", "--dim", "2"]),
    ("lagrangian --mu 1/0", ["lagrangian", "--mu", "1/0", "--dim", "2"]),
    ("normalize without -e", ["normalize", "--dim", "2"]),
    ("verify nosuch", ["verify", "nosuch"]),
    # zero denominators
    _expr("1/0"),
    _expr("3/0 f dx[1]"),
    _expr(f"{_BODY} + 2/00"),
    _expr("f +\n  5/0"),
    _expr("\u0663/\u0660"),
    # nesting
    _expr("(" * 3000 + "f" + ")" * 3000, "parentheses 3,000 deep"),
    _expr("(" * 100_000 + "f" + ")" * 100_000, "parentheses 100,000 deep"),
    _expr("d(" * 3000 + "f" + ")" * 3000, "d( 3,000 deep"),
    _expr("~" * 3000 + "f", "~ 3,000 deep"),
    _expr("mat[" * 3000, "mat[ 3,000 deep"),
    # positions after newlines and tabs
    _expr("f\n$"),
    _expr("f dx[1]\n  + g\n\t$ h"),
    _expr("f\t$"),
    _expr("\t\tf\t+\t)"),
    _expr("f\r\n$"),
    _expr("f\n\ng dx[1] dx[2]\n)"),
    _expr("mat[1, 2, 3;\n 4, 5, 6]"),
    # Unicode letters, digits and whitespace
    _expr("\u00e9"),
    _expr("f \u00e9"),
    _expr("f\u00b2"),
    _expr("x[\u0663] \u0663"),
    _expr("f\u2003+\u00a0$"),
    _expr("f\u2028\u2029$"),
    _expr("f\u3000)"),
    _expr("\u0663 \u00e9"),
    # the end of input
    _expr("f +\n\n"),
    _expr("(f\n"),
    _expr("f dx[1] +\t \n "),
    _expr("-"),
    _expr("   "),
    # d, ~ and the other atoms
    _expr("d"),
    _expr("d f"),
    _expr("d\n[1"),
    _expr("d[x] f"),
    _expr("d[1]"),
    _expr("~(f g)"),
    _expr("~~j"),
    _expr("delta f"),
    _expr("delta(f"),
    _expr("dx 1"),
    _expr("dx[1"),
    _expr("ddx[]"),
    _expr("th[j]"),
    _expr("x_"),
    _expr("x_,"),
    _expr("x_,1,"),
    _expr("A[1]_,1,x"),
    _expr("j^x"),
    _expr("1/"),
    _expr("1/f"),
    _expr("1/2/3"),
    _expr("()"),
    _expr(")"),
    _expr("f )"),
    _expr("f g,"),
    _expr("f ; g"),
    _expr("f ]"),
    _expr("mat(1)"),
    _expr("mat[1, 2, 3; 4, 5, 6; 7, 8, 9"),
    _expr("mat[1, 2, 3; 4, 5, 6; 7, 8, 9; 1, 2, 3]"),
    _expr("mat[1, 2; 3, 4, 5; 6, 7, 8]"),
    _expr("mat[f, 0, 0; 0, 1, 0; 0, 0, 1]"),
    _expr("delx[1]"),
    _expr("dx[0]"),
    _expr("delta(f)"),
    _expr("d(th[1])"),
    _expr("1" * 5000, "a 5,000-digit integer"),
    _expr("j^" + "2" * 5000, "j^ with a 5,000-digit power"),
]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def corpus_text() -> str:
    """``# input`` followed by the canonical print, for every CORPUS entry."""
    chunks = []
    for text in CORPUS:
        code, out = run_cli(["normalize", f"--expr={text}", "--dim", "4"])
        assert code == 0, text
        chunks.append(f"# {text}\n{out}")
    return "".join(chunks)


def errors_text() -> str:
    """``# label``, the exit code and stderr, for every ERRORS call.

    argparse prints a usage line, wrapped to the terminal's width, before
    its error line; only the error line is kept.
    """
    chunks = []
    for label, argv in ERRORS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                err = io.StringIO(err.getvalue().splitlines()[-1] + "\n")
        chunks.append(f"# {label}\nexit {code}\n{err.getvalue()}")
    return "".join(chunks)


def _read(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_command(name):
    argv, want_code = COMMANDS[name]
    code, out = run_cli(argv)
    assert code == want_code
    assert out == _read(name)


def test_golden_corpus():
    assert corpus_text() == _read(CORPUS_FILE)


def test_golden_errors():
    assert errors_text() == _read(ERRORS_FILE)


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_code) in COMMANDS.items():
        code, out = run_cli(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, want {want_code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
    (GOLDEN / CORPUS_FILE).write_text(corpus_text(), encoding="utf-8")
    (GOLDEN / ERRORS_FILE).write_text(errors_text(), encoding="utf-8")


if __name__ == "__main__":
    _record()
