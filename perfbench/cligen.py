"""Seeded request generator for the ``cli-requests`` workload.

Every request is an argv list for ``z3forms.cli.main``.  The mix is fixed
by count, so every seed gives the same shares of commands, value kinds and
malformed inputs; the seed chooses the expressions, their sizes and the
order.  Expressions follow the grammar in ``z3forms.expr`` and cover
symbols, jets, ``dx``/``ddx``, ``th``/``bth``, ``delta(...)`` and
``mat[...]``.

A fixed share of the requests is malformed.  Two of the malformed shapes
are known defects of the CLI error contract (exit 2, never a traceback):
a zero denominator and 3,000-deep parentheses.  A third known defect hits
valid input: ``delta(...)`` of a form with the real constant ``mu``
exits 2, because ``conjugate_form`` bars every non-real symbol and does
not exempt constants as ``CoeffExpr.conjugate`` does.  All three stay in
the mix; the benchmark counts them in ``failed_ratio``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

#: Requests in one cycle of the workload; the loop repeats the cycle.
CYCLE = 400

#: Nesting depth of the deep-parentheses input.
DEEP_NESTING = 3000

# Counts per cycle.  They add up to CYCLE.
_ZERO_DENOMINATOR = 8
_DEEP_NESTING = 4
_OTHER_MALFORMED = 28
_CURVATURE = 10
_LAGRANGIAN = 6
_NORMALIZE = 138
_GRADE = 68
_D_PER_TIMES = 46  # for each of -n 1, 2, 3

#: Value kinds of generated expressions, with weights per command.
_KINDS_ANY = (("form", 6), ("matrix", 2), ("grass", 1), ("conj", 1))
_KINDS_D = (("form", 7), ("matrix", 2), ("conj", 1))  # d rejects Grassmann values

#: Terms per expression.  ``d`` gets smaller inputs, and dims 2..3 only:
#: the cost of d^3 grows fast with terms, dim and ``Uinv`` letters, and a
#: few large ones would make the per-seed mix dominate the mean.
_SIZES = (1, 1, 2, 2, 3, 4, 6, 8)
_SIZES_D = (1, 1, 2, 2, 3)

#: Known defects by label: what the CLI does today instead of the right
#: outcome, as (exception that escapes ``main`` or None, stderr fragment or None).
KNOWN_DEFECTS = {
    "zero-denominator": ("ZeroDivisionError", None),
    "deep-nesting": ("RecursionError", None),
    "constant-under-delta": (None, "mu is a real constant"),
}


@dataclass(frozen=True)
class Request:
    """One CLI call and what a correct CLI does with it."""

    argv: tuple[str, ...]
    #: ``form``/``matrix``/``grass``/``conj`` for expressions, the command
    #: name for ``curvature``/``lagrangian``, or ``malformed``.
    kind: str
    #: ``"ok"`` (exit 0) or ``"error"`` (exit 2, no traceback).
    expect: str
    #: A key of KNOWN_DEFECTS, or None.
    defect: str | None = None


def generate_requests(seed: int) -> list[Request]:
    """One cycle of requests; the same seed always gives the same list."""
    rng = random.Random(seed)
    out: list[Request] = []
    for _ in range(_NORMALIZE):
        out.append(_expression_request(rng, "normalize", _KINDS_ANY))
    for _ in range(_GRADE):
        out.append(_expression_request(rng, "grade", _KINDS_ANY))
    for times in (1, 2, 3):
        for _ in range(_D_PER_TIMES):
            out.append(_expression_request(rng, "d", _KINDS_D, times))
    # The constructions cost 10-100 times a small request, so their dims
    # cycle instead of being drawn: every seed gets the same mix.
    for k in range(_CURVATURE):
        gauge = ("generic", "abelian", "pure:U")[k % 3]
        argv = ("curvature", "--dim", str(2 + k % 2), "--gauge", gauge)
        out.append(Request(argv, "curvature", "ok"))
    for k in range(_LAGRANGIAN):
        argv = ("lagrangian", "--dim", str(2 + k % 2))
        mu = (None, "1", "1/2", "-3")[k % 4]
        if mu is not None:
            argv += ("--mu", mu)
        out.append(Request(argv, "lagrangian", "ok"))
    for _ in range(_ZERO_DENOMINATOR):
        out.append(_zero_denominator(rng))
    for _ in range(_DEEP_NESTING):
        dim = rng.randint(2, 4)
        inner = _expression(rng, "form", dim, 1)
        text = "(" * DEEP_NESTING + inner + ")" * DEEP_NESTING
        out.append(Request(("normalize", "-e", text, "--dim", str(dim)),
                           "malformed", "error", "deep-nesting"))
    for k in range(_OTHER_MALFORMED):
        out.append(_malformed(rng, k))
    assert len(out) == CYCLE
    # Heavy requests go at evenly spaced places, so that a run that stops
    # part-way through a cycle still sees the mix of the whole cycle.
    heavy = [r for r in out if _is_heavy(r)]
    light = [r for r in out if not _is_heavy(r)]
    rng.shuffle(heavy)
    rng.shuffle(light)
    step = CYCLE // len(heavy)
    for k, r in enumerate(heavy):
        light.insert(k * step, r)
    return light


def _is_heavy(r: Request) -> bool:
    return r.kind in ("curvature", "lagrangian") or r.defect == "deep-nesting"


def _weighted(rng: random.Random, table) -> str:
    names = [name for name, _ in table]
    weights = [w for _, w in table]
    return rng.choices(names, weights)[0]


def _expression_request(rng: random.Random, command: str, kinds, times: int = 0) -> Request:
    kind = _weighted(rng, kinds)
    dim = rng.randint(2, 3 if command == "d" else 4)
    text = _expression(rng, kind, dim, rng.choice(_SIZES_D if command == "d" else _SIZES))
    argv: tuple[str, ...] = (command, "-e", text)
    if command == "d":
        argv += ("-n", str(times))
    defect = "constant-under-delta" if kind == "conj" and re.search(r"\bmu\b", text) else None
    return Request(argv + ("--dim", str(dim)), kind, "ok", defect)


def _expression(rng: random.Random, kind: str, dim: int, size: int) -> str:
    if kind == "form":
        return _sum(rng, [_form_term(rng, dim) for _ in range(size)])
    if kind == "grass":
        return _sum(rng, [_grass_term(rng, dim) for _ in range(size)])
    if kind == "matrix":
        return _sum(rng, [_matrix_term(rng) for _ in range(max(1, size // 2))])
    if kind == "conj":
        return "delta(" + _sum(rng, [_degree3_term(rng, dim) for _ in range(size)]) + ")"
    raise ValueError(f"unknown kind {kind!r}")


def _sum(rng: random.Random, terms: list[str]) -> str:
    text = ("- " if rng.random() < 0.2 else "") + terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def _rational(rng: random.Random) -> str:
    p, q = rng.randint(1, 6), rng.randint(1, 4)
    return str(p) if q == 1 else f"{p}/{q}"


def _scalar(rng: random.Random) -> str:
    """A nonzero Q(j) literal, printed as an atom."""
    r = rng.random()
    if r < 0.4:
        return _rational(rng)
    if r < 0.6:
        return rng.choice(("j", "j^2"))
    return f"({_rational(rng)} {rng.choice('+-')} {_rational(rng)} j)"


def _symbol(rng: random.Random, dim: int) -> str:
    base = rng.choice(("f", "g", "h", "A", "A", "x", "U", "Uinv", "mu"))
    if base in ("Uinv", "mu"):
        return base
    text = f"{base}[{rng.randint(1, dim)}]" if base in ("A", "x") else base
    if base != "x" and rng.random() < 0.3:
        derivs = ",".join(str(rng.randint(1, dim)) for _ in range(rng.randint(1, 2)))
        return f"({text}_,{derivs})"
    if base != "U" and rng.random() < 0.15:
        return "~" + text
    return text


def _run(rng: random.Random, dim: int, longest: int) -> list[str]:
    return [_symbol(rng, dim) for _ in range(rng.randint(0, longest))]


_SHAPES = ((), ("dx",), ("ddx",), ("dx", "dx"), ("dx", "ddx"), ("ddx", "dx"),
           ("dx", "dx", "dx"))


def _form_term(rng: random.Random, dim: int) -> str:
    parts: list[str] = []
    if rng.random() < 0.5:
        parts.append(_scalar(rng))
    for gen in rng.choice(_SHAPES):
        parts += _run(rng, dim, 1)
        parts.append(f"{gen}[{rng.randint(1, dim)}]")
    parts += _run(rng, dim, 2)
    r = rng.random()
    if r < 0.1:
        parts.append(f"d({_symbol(rng, dim)} dx[{rng.randint(1, dim)}])")
    elif r < 0.2:
        parts.append(f"d[{rng.randint(1, dim)}] {_symbol(rng, dim)}")
    return " ".join(parts) if parts else _scalar(rng)


def _grass_term(rng: random.Random, dim: int) -> str:
    parts = [_scalar(rng)] if rng.random() < 0.5 else []
    for _ in range(rng.randint(1, 3)):
        parts.append(f"{rng.choice(('th', 'bth'))}[{rng.randint(1, dim)}]")
    return " ".join(parts)


def _matrix_entry(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.3:
        return "0"
    if r < 0.7:
        return _rational(rng)
    return f"{_rational(rng)} {rng.choice('+-')} {rng.choice(('j', 'j^2'))}"


def _matrix_literal(rng: random.Random) -> str:
    rows = ("; ".join(", ".join(_matrix_entry(rng) for _ in range(3)) for _ in range(3)))
    return f"mat[{rows}]"


def _matrix_term(rng: random.Random) -> str:
    factors = [_matrix_literal(rng) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.4:
        factors.insert(0, _scalar(rng))
    if rng.random() < 0.2:
        factors[-1] = f"d({factors[-1]})"
    return " ".join(factors)


def _degree3_term(rng: random.Random, dim: int) -> str:
    parts = [_scalar(rng)] if rng.random() < 0.5 else []
    parts += _run(rng, dim, 1)
    if rng.random() < 0.5:
        parts += [f"dx[{rng.randint(1, dim)}]" for _ in range(3)]
    else:
        parts += [f"ddx[{rng.randint(1, dim)}]", f"dx[{rng.randint(1, dim)}]"]
    return " ".join(parts)


def _zero_denominator(rng: random.Random) -> Request:
    dim = rng.randint(2, 4)
    p = rng.randint(1, 6)
    text = rng.choice((
        f"{p}/0",
        f"{p}/0 f dx[1]",
        f"{_expression(rng, 'form', dim, 2)} + {p}/0",
    ))
    command = rng.choice(("normalize", "grade", "d"))
    return Request((command, "-e", text, "--dim", str(dim)), "malformed", "error",
                   "zero-denominator")


def _malformed(rng: random.Random, k: int) -> Request:
    """Inputs the CLI rejects today with exit 2; ``k`` cycles the shapes."""
    dim = rng.randint(2, 4)
    body = _expression(rng, "form", dim, 1)
    texts = (
        f"({body}",                       # unbalanced parenthesis
        f"{body} + )",                    # stray closing parenthesis
        f"{body} $ f",                    # character outside the grammar
        f"{body} dx[{dim + rng.randint(1, 3)}]",  # generator index out of range
        "mat[1, 2; 3, 4]",                # not 3x3
        f"th[1] dx[{rng.randint(1, dim)}]",  # Grassmann times a form
        "~2",                             # bar on a number
        "",                               # empty input
        f"{body} +",                      # dangling operator
        "j^",                             # missing exponent
        f"A[{rng.randint(1, dim)}",       # unclosed index
        "~mu f",                          # conjugate of a real constant
    )
    argvs = tuple(("normalize", "-e", t) for t in texts) + (
        ("d", "-e", f"th[{rng.randint(1, dim)}]"),   # d of a Grassmann value
        ("d", "-e", body, "-n", "4"),                # -n out of range
        ("grade", "-e", f"th[1] + {body}"),         # Grassmann plus a form
        ("curvature", "--gauge", "pure:V"),          # unknown invertible pair
        ("lagrangian", "--mu", "1/0"),               # zero weight denominator
        ("normalize",),                              # missing -e
        ("verify", "nosuch"),                        # unknown suite
    )
    argv = argvs[k % len(argvs)]
    if argv[0] != "verify":  # verify takes no --dim
        argv += ("--dim", str(dim))
    return Request(argv, "malformed", "error")
