"""In-process timings of z3forms cases, for the ``BENCH_<label>.json`` history.

Each case runs once untimed as a warm-up, once untimed with its calls
counted, then ``REPEATS`` times under ``time.perf_counter``; its record
holds the median.  One record per case:

    {layer, case, n, median_s, repeats, terms, calls, python, commit}

``terms`` is the number of terms in the value the case builds (``null``
where a case builds no single value), so two records of one case can be
checked to have done the same work.  ``calls`` maps each function of
``COUNTED`` to the number of calls one run makes to it; unlike the
timings, the counts do not move with the machine.  The start-up cases
time a fresh ``sys.executable`` process that imports the measured
z3forms (with the caller's environment), so their ``terms`` and
``calls`` are ``null``.  ``commit`` is ``git
describe --always --dirty`` of the measured tree.

Usage, from the repository root (stdlib only, nothing to install):

    python3 bench/history.py --label NAME [--root TREE]

``--root`` measures the z3forms under ``TREE/src`` instead of this
checkout's, so a second checkout can be measured with the same cases.
The file is written to ``BENCH_<label>.json`` at the root of this
checkout.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent.parent

REPEATS = 7

#: The functions whose calls a record counts: (module, class or None, name).
COUNTED = (("lincomb", None, "accumulate"), ("coeffs", None, "normalize_word"),
           ("forms", None, "normalize_form_word"), ("scalar", "Scalar", "__mul__"))


@dataclass(frozen=True)
class Case:
    layer: str
    case: str
    n: int | None
    run: Callable[[], object]
    terms: Callable[[object], int | None]
    #: False for a case that runs in a child process, whose calls are not seen.
    in_process: bool = True


def _form_terms(form) -> int:
    return len(form.terms)


def cases(z) -> list[Case]:
    """The history's cases, built on the z3forms package ``z``."""
    out = [Case("gauge", "curvature(generic_connection(n))", n,
                lambda n=n: z.curvature(z.generic_connection(n)), _form_terms)
           for n in (2, 3, 4, 5, 8, 12)]
    out += [Case("gauge", f"curvature(pure_gauge_connection(n, commutative={mode}))", 5,
                 lambda mode=mode: z.curvature(z.pure_gauge_connection(5, mode)), _form_terms)
            for mode in (False, True)]

    def d_input(mode: bool):
        a = z.gauge.connection_form(z.pure_gauge_connection(5, mode))
        return a.d() + a * a

    # ``d`` alone, on the degree-2 form whose ``d`` the curvature takes.
    out += [Case("forms", f"Form.d(dA + A*A), pure_gauge_connection(n, commutative={mode})",
                 5, lambda x=d_input(mode): x.d(), _form_terms)
            for mode in (False, True)]

    def lagrangian_terms(report) -> int:
        return sum(len(x.terms) for x in
                   z.action.lagrangian_sectors(z.abelian_connection(report.n)))

    def variation_terms(report) -> int:
        # Built from names whose signatures every measured tree shares.
        L3, L21 = z.action.lagrangian_sectors(z.abelian_connection(report.n))
        mu = z.CoeffExpr.from_symbol(z.action.MU, True)
        variation = z.action.variational_derivative(L3 + mu * L21, report.n)
        return sum(len(x.terms) for x in variation.values())

    for n in range(3, 7):
        out.append(Case("action", "lagrangian_report(n)", n,
                        lambda n=n: z.lagrangian_report(n), lagrangian_terms))
        out.append(Case("action", "field_equation_report(n)", n,
                        lambda n=n: z.field_equation_report(n), variation_terms))
    out.append(Case("verify", "run_verify('all', seed=0, cases=50)", None,
                    lambda: z.run_verify("all", 0, 50), lambda report: None))
    big = z.curvature(z.generic_connection(12))
    out.append(Case("render", "str(curvature(generic_connection(n)))", 12,
                    lambda: str(big), lambda text: len(big.terms)))
    out += [Case("startup", f"fresh process: {code}", None,
                 functools.partial(_fresh_process, z, code), lambda _: None, False)
            for code in STARTUP]
    return out


#: The programs of the start-up cases, each run by ``python -c``.
STARTUP = ("import z3forms", "import z3forms.verify", "import z3forms.cli",
           "import sys; from z3forms.cli import main; "
           "sys.exit(main(['normalize', '-e', 'x[1] dx[2]', '--dim', '2']))")


def _fresh_process(z, code: str) -> None:
    """Run ``code`` in a new interpreter that finds ``z`` first on its path."""
    src = str(Path(z.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                   stdout=subprocess.DEVNULL, check=True)


def count_calls(run: Callable[[], object]) -> dict[str, int]:
    """The calls one ``run()`` makes to each function of ``COUNTED``.

    As ``perfbench/layertrace.py`` does, a function is wrapped under every
    z3forms module that binds it (a method, on its class), so calls from
    any module are counted; the originals are restored afterwards.
    """
    counts: dict[str, int] = {}
    restore: list[tuple[object, str, object]] = []

    def counting(key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    owning = {module: importlib.import_module(f"z3forms.{module}") for module, _, _ in COUNTED}
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "z3forms" or name.startswith("z3forms.")) and m is not None]
    try:
        for module, cls_name, name in COUNTED:
            mod = owning[module]
            key = f"{cls_name or module}.{name}"
            counts[key] = 0
            if cls_name is not None:
                owners = [(getattr(mod, cls_name), name)]
            else:
                orig = getattr(mod, name)
                owners = [(m, attr) for m in modules
                          for attr, value in vars(m).items() if value is orig]
            for owner, attr in owners:
                restore.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, counting(key, vars(owner)[attr]))
        run()
    finally:
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)
    return counts


def measure(case: Case, repeats: int, commit: str) -> dict:
    """One record: the median of ``repeats`` timed runs after a warm-up run
    and a counted run."""
    value = case.run()
    calls = count_calls(case.run) if case.in_process else None
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        case.run()
        times.append(time.perf_counter() - start)
    return {"layer": case.layer, "case": case.case, "n": case.n,
            "median_s": statistics.median(times), "repeats": repeats,
            "terms": case.terms(value), "calls": calls, "python": platform.python_version(),
            "commit": commit}


def _describe(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE,
                        help="the checkout whose src/ is measured")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    z = importlib.import_module("z3forms")
    if not Path(z.__file__).resolve().is_relative_to(root):
        parser.error(f"z3forms was imported from {z.__file__}, not from {root}")
    commit = _describe(root)
    records = []
    for case in cases(z):
        record = measure(case, REPEATS, commit)
        records.append(record)
        print(f"{record['case']:<58} n={record['n']!s:<4} "
              f"{record['median_s'] * 1e3:9.2f} ms  terms={record['terms']}", flush=True)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
