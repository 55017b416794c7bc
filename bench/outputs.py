"""Digests of the canonical outputs of z3forms, to show that a change keeps
them byte-identical.

The calls: every ``perfbench/cligen.py`` request for seeds 0-5,
``curvature --json`` for n = 2..6 and each of the three gauges,
``lagrangian`` for n = 2..5 with and without ``--mu 3/7``, and
``verify all --json`` for seeds 0-4; 2,428 calls in all.  Each runs
in-process through ``z3forms.cli.main``.  Its digest hashes the exit code,
stdout, stderr with the ``elapsed:`` lines dropped, and the name of any
exception that escapes ``main``.  Both trees take their requests from the
``cligen.py`` next to this script, so they run the same calls.

Usage, from the repository root (stdlib only, nothing to install):

    python3 bench/outputs.py --against TREE

runs the calls on this checkout and on the checkout TREE, each in its own
process, then prints ``equal``, or the first call whose outputs differ and
exits 1.  ``python3 bench/outputs.py --root TREE`` prints the digests of
the one tree TREE, one call per line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def calls() -> list[tuple[str, ...]]:
    """The argv of every call, in a fixed order."""
    sys.path.insert(0, str(HERE / "perfbench"))
    try:
        from cligen import generate_requests
    finally:
        sys.path.remove(str(HERE / "perfbench"))
    out = [tuple(r.argv) for seed in range(6) for r in generate_requests(seed)]
    out += [("curvature", "--dim", str(n), "--gauge", gauge, "--json")
            for n in range(2, 7) for gauge in ("generic", "abelian", "pure:U")]
    out += [("lagrangian", "--dim", str(n), *mu)
            for n in range(2, 6) for mu in ((), ("--mu", "3/7"))]
    out += [("verify", "all", "--json", "--seed", str(seed)) for seed in range(5)]
    return out


def digest_of(code: int | str | None, stdout: str, stderr: str, raised: str | None) -> str:
    stderr = "".join(line for line in stderr.splitlines(keepends=True)
                     if not line.startswith("elapsed:"))
    return hashlib.sha256(repr((code, stdout, stderr, raised)).encode()).hexdigest()


def digest(main, argv: tuple[str, ...]) -> str:
    """The digest of one call of ``main``, the CLI entry point."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a call the CLI lets escape with a traceback
            code, raised = None, type(exc).__name__
    return digest_of(code, out.getvalue(), err.getvalue(), raised)


def _digests_of(tree: Path) -> list[str]:
    """The digests of ``tree``, computed in a fresh process."""
    # The CLI's default --dim comes from Z3FORMS_DIM; both trees get the default.
    env = {k: v for k, v in os.environ.items() if k != "Z3FORMS_DIM"}
    out = subprocess.run([sys.executable, __file__, "--root", str(tree)], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", type=Path, help="compare this checkout with TREE")
    group.add_argument("--root", type=Path, help="print the digests of TREE")
    args = parser.parse_args(argv)
    if args.root is not None:
        root = args.root.resolve()
        sys.path.insert(0, str(root / "src"))
        cli = importlib.import_module("z3forms.cli")
        if not Path(cli.__file__).resolve().is_relative_to(root):
            parser.error(f"z3forms was imported from {cli.__file__}, not from {root}")
        for call in calls():
            print(digest(cli.main, call))
        return 0
    pairs = zip(calls(), _digests_of(HERE), _digests_of(args.against.resolve()), strict=True)
    for argv, ours, theirs in pairs:
        if ours != theirs:
            print("differs: z3forms " + " ".join(argv))
            return 1
    print("equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
