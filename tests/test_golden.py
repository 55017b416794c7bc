"""Golden corpus: the canonical CLI outputs, byte for byte.

Each file under ``tests/golden/`` is the stdout of ``z3forms.cli.main`` for
one fixed command line (verify reports, curvature tables, Lagrangian
densities, and the canonical print of every ``CORPUS`` expression).  The
test regenerates each output in process and compares it with the file.
The ``elapsed:`` line of ``verify`` goes to stderr and is not compared.

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


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_code) in COMMANDS.items():
        code, out = run_cli(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, want {want_code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
    (GOLDEN / CORPUS_FILE).write_text(corpus_text(), encoding="utf-8")


if __name__ == "__main__":
    _record()
