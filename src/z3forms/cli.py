"""Command-line interface.

Commands
--------
normalize -e EXPR        parse, evaluate, and print the canonical text
d -e EXPR -n K           apply the differential K times (K in 1..3)
grade -e EXPR            report grade (and degree where defined)
curvature --dim N --gauge {abelian,generic,pure:U}
                         print the normalized curvature two-sector form
lagrangian --dim N [--mu Q]
                         print the quadratic Lagrangian density (abelian)
verify SUITE [--seed S] [--cases N]
                         run an identity suite; SUITE in
                         {all, scalar, grassmann, matrix, forms, gauge, action}

Every command accepts ``--json``.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse error.  The default dimension comes from the
Z3FORMS_DIM environment variable (fallback 4); like ``--dim``, it must
be a positive integer.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .action import lagrangian_density
from .expr import (
    DApply,
    EvalContext,
    EvalError,
    evaluate,
    grade_description,
    parse as parse_expr,
    print_canonical,
)
from .forms import components
from .gauge import (
    abelian_connection,
    curvature,
    generic_connection,
    pure_gauge_connection,
)
from .scalar import scalar
from .verify import SUITES, run_verify


def _dimension(text: str) -> int:
    """A dimension from ``--dim`` or ``Z3FORMS_DIM``: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"dimension must be a positive integer, got {text!r}")
    return value


@functools.lru_cache(maxsize=16)
def _build_parser(default_dim: int) -> argparse.ArgumentParser:
    """The argument parser for one default dimension, built once and reused.

    Parsing leaves a parser unchanged, so every call may share it; the
    environment is still read and checked by ``main`` on each call.
    """
    top = argparse.ArgumentParser(
        prog="z3forms",
        description="exact calculus with a cubic differential: d^3 = 0, d^2 != 0",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=_dimension, default=default_dim,
                       help=f"generator index range (default {default_dim})")
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("normalize", help="canonical text of an expression")
    p.add_argument("-e", "--expr", required=True)
    add_common(p)

    p = sub.add_parser("d", help="apply the differential")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-n", "--times", type=int, default=1, choices=(1, 2, 3))
    add_common(p)

    p = sub.add_parser("grade", help="grade/degree of an expression")
    p.add_argument("-e", "--expr", required=True)
    add_common(p)

    p = sub.add_parser("curvature", help="curvature of a built-in connection")
    p.add_argument("--gauge", default="generic",
                   help="abelian | generic | pure:U")
    add_common(p)

    p = sub.add_parser("lagrangian", help="quadratic Lagrangian density")
    p.add_argument("--mu", default=None,
                   help="numeric sector weight (rational); formal if omitted")
    add_common(p)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("suite", help="all | " + " | ".join(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--json", action="store_true")
    return top


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _cmd_normalize(args: argparse.Namespace) -> int:
    ctx = EvalContext(n=args.dim)
    value = evaluate(parse_expr(args.expr), ctx)
    text = print_canonical(value)
    _emit({"input": args.expr, "canonical": text}, text, args.json)
    return 0


def _cmd_d(args: argparse.Namespace) -> int:
    ctx = EvalContext(n=args.dim)
    ast = parse_expr(args.expr)
    for _ in range(args.times):
        ast = DApply(ast)
    text = print_canonical(evaluate(ast, ctx))
    _emit(
        {"input": args.expr, "times": args.times, "canonical": text},
        text,
        args.json,
    )
    return 0


def _cmd_grade(args: argparse.Namespace) -> int:
    ctx = EvalContext(n=args.dim)
    value = evaluate(parse_expr(args.expr), ctx)
    text = grade_description(value)
    _emit({"input": args.expr, "grade": text}, text, args.json)
    return 0


def _make_connection(kind: str, n: int):
    # Built per call from the module's names, which perfbench/layertrace.py wraps.
    builders = {"abelian": abelian_connection, "generic": generic_connection,
                "pure:U": pure_gauge_connection}
    if kind in builders:
        return builders[kind](n)
    if kind.startswith("pure:"):
        raise EvalError("the built-in invertible pair is named U; use --gauge pure:U")
    raise EvalError(f"unknown gauge kind {kind!r}: use abelian, generic, pure:U")


def _cmd_curvature(args: argparse.Namespace) -> int:
    conn = _make_connection(args.gauge, args.dim)
    omega = curvature(conn)
    text = print_canonical(omega)
    comps = components(omega)
    payload = {
        "dim": args.dim,
        "gauge": args.gauge,
        "curvature": text,
        "dx_sector": {
            ",".join(map(str, key)): str(expr)
            for key, expr in sorted(comps.T3.items())
        },
        "ddx_dx_sector": {
            ",".join(map(str, key)): str(expr)
            for key, expr in sorted(comps.T21.items())
        },
    }
    _emit(payload, text, args.json)
    return 0


def _cmd_lagrangian(args: argparse.Namespace) -> int:
    mu = None
    if args.mu is not None:
        try:
            mu = scalar(Fraction(args.mu))
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(f"invalid --mu {args.mu!r}: {exc}") from exc
    text = str(lagrangian_density(abelian_connection(args.dim), mu))
    _emit(
        {"dim": args.dim, "mu": "mu" if mu is None else str(mu), "lagrangian": text},
        text,
        args.json,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.suite, seed=args.seed, cases=args.cases)
    print(report.to_json() if args.json else report.to_text())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return report.exit_code


_COMMANDS = {
    "normalize": _cmd_normalize,
    "d": _cmd_d,
    "grade": _cmd_grade,
    "curvature": _cmd_curvature,
    "lagrangian": _cmd_lagrangian,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    try:
        default_dim = _dimension(os.environ.get("Z3FORMS_DIM", "4"))
    except argparse.ArgumentTypeError as exc:
        print(f"z3forms: invalid Z3FORMS_DIM: {exc}", file=sys.stderr)
        return 2
    args = _build_parser(default_dim).parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"z3forms: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
