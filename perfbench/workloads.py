"""The three workloads: inputs from the seed, one operation, its check.

A workload builds its inputs from the workload seed in ``__init__``.  The
caller times ``op(i)`` for i = 0, 1, ... and then calls ``check(i,
result)``; checks never run inside a timed region.
Only public z3forms entry points are called, and z3forms sees only the
generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field

import checks
from cligen import CYCLE, Request, generate_requests

#: Cases per verify suite, as in ``z3forms verify all --cases 50``.
VERIFY_CASES = 50


@dataclass
class Outcome:
    """Checked operations: attempted, failed, and calls that hit a known defect."""

    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: Outcome) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known_defects += other.known_defects
        self.problems += other.problems

    def record(self, problems: list[str]) -> None:
        """One checked operation with the given problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


class Workload:
    """One seeded workload.

    ``op(i)`` runs operation i; ops ``0 .. cycle - 1`` are one pass, and the
    timed loop keeps going round.  ``label(i)`` names op i in a trace.
    """

    cycle: int

    def final_check(self) -> Outcome:
        """Checks that need every output of the timed run; untimed."""
        return Outcome()


class VerifySweep(Workload):
    """``verify all --cases 50`` for three seeds drawn from the workload seed.

    One operation is one suite, ``run_verify(suite, s, 50)``; six in a row
    are one ``verify all`` call, and the loop goes round the three seeds, so
    every suite call repeats and its report must repeat byte for byte.
    Random Q(j) values with denominators up to 4: most time goes to scalar
    arithmetic and 3x3 matrix products.
    """

    name = "verify-sweep"
    seeds_used = 3

    def __init__(self, seed: int) -> None:
        from z3forms import verify

        self.verify = verify
        self.suites = verify.SUITES
        self.cycle = len(self.suites)
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(self.seeds_used)]
        # First to_text() of each (seed, suite): a repeat must match it byte for byte.
        self.texts: dict[int, str] = {}

    def label(self, i: int) -> str:
        return f"verify.suite_s.{self.suites[i % self.cycle]}"

    def op(self, i: int):
        suite = self.suites[i % self.cycle]
        seed = self.seeds[(i // self.cycle) % self.seeds_used]
        return self.verify.run_verify(suite, seed, VERIFY_CASES)

    def check(self, i: int, report) -> Outcome:
        problems = checks.check_verify_suite(
            report.suite, [(f.input, f.note) for f in report.failures])
        text = report.to_text()
        first = self.texts.setdefault(i % (self.cycle * self.seeds_used), text)
        problems += checks.check_same_text(first, text, f"verify {report.suite} "
                                           f"--seed {report.seed}")
        out = Outcome()
        out.record(problems)
        return out


# Construction list of gauge-build: (what, gauge kind, n).
_GAUGE_KINDS = ("generic", "abelian", "pure:U")
CONSTRUCTIONS = tuple(
    [("curvature", kind, n) for n in range(2, 6) for kind in _GAUGE_KINDS]
    + [("pure-commutative", "pure:U", n) for n in range(2, 6)]
    + [(what, "abelian", n) for n in range(2, 5) for what in ("lagrangian", "field-equation")]
)


class GaugeBuild(Workload):
    """Curvature, Lagrangian and field-equation constructions at growing n.

    One operation is one construction; a pass is every construction of
    CONSTRUCTIONS once, each pass in its own order drawn from the seed.
    Scalars are mostly units and powers of j; time goes to form
    normalization, d, coefficient words and exact elimination.  No
    matrices.
    """

    name = "gauge-build"
    cycle = len(CONSTRUCTIONS)

    def __init__(self, seed: int) -> None:
        import z3forms

        self.z = z3forms
        rng = random.Random(seed)
        self.orders = []
        for _ in range(64):
            order = list(CONSTRUCTIONS)
            rng.shuffle(order)
            self.orders.append(order)

    def _construction(self, i: int) -> tuple[str, str, int]:
        return self.orders[(i // self.cycle) % len(self.orders)][i % self.cycle]

    def label(self, i: int) -> str:
        return ":".join(map(str, self._construction(i)))

    def _connection(self, kind: str, n: int):
        z = self.z
        if kind == "generic":
            return z.generic_connection(n)
        if kind == "abelian":
            return z.abelian_connection(n)
        return z.pure_gauge_connection(n)

    def op(self, i: int):
        z = self.z
        what, kind, n = self._construction(i)
        if what == "curvature":
            conn = self._connection(kind, n)
            return z.curvature_components(conn), z.field_strength(conn)
        if what == "pure-commutative":
            return z.curvature(z.pure_gauge_connection(n, commutative=True))
        if what == "lagrangian":
            return z.lagrangian_report(n)
        return z.field_equation_report(n)

    def check(self, i: int, value) -> Outcome:
        what, kind, n = self._construction(i)
        if what == "curvature":
            comp, strength = value
            problems = checks.check_field_strength_sector(
                {k: str(v) for k, v in comp.T21.items()},
                {k: str(v) for k, v in strength.items()},
            )
            problems = [f"{kind} n={n}: {p}" for p in problems]
        elif what == "pure-commutative":
            problems = checks.check_zero(str(value), f"commutative pure gauge n={n}")
        elif what == "lagrangian":
            problems = checks.check_lagrangian(
                str(value.c1), str(value.c2), str(value.c3), value.exact, n)
        else:
            problems = checks.check_field_equation(
                str(value.alpha), str(value.gamma), value.exact, n)
        out = Outcome()
        out.record(problems)
        return out


def call_cli(argv: tuple[str, ...]) -> tuple[int, str, str, str | None]:
    """``z3forms.cli.main(argv)`` in-process: (exit code, stdout, stderr, escaped exception)."""
    from z3forms import cli

    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the installed CLI would print a traceback
            code, raised = 1, type(exc).__name__
    return code, out.getvalue(), err.getvalue(), raised


class CliRequests(Workload):
    """Many small CLI calls: argparse, parse, evaluate, print.

    One operation is one request; a pass is one cycle from ``cligen``.
    """

    name = "cli-requests"
    cycle = CYCLE

    def __init__(self, seed: int) -> None:
        self.requests: list[Request] = generate_requests(seed)
        # First stdout of each request that exited 0, by index in the cycle.
        self.outputs: dict[int, str] = {}

    def label(self, i: int) -> str:
        return f"cli.{self.requests[i % CYCLE].argv[0]}"

    def op(self, i: int):
        return call_cli(self.requests[i % CYCLE].argv)

    def check(self, i: int, result) -> Outcome:
        index = i % CYCLE
        request = self.requests[index]
        code, stdout, stderr, raised = result
        verdict, problems = checks.classify_cli(request, code, stdout, stderr, raised)
        if verdict == "ok" and request.expect == "ok":
            first = self.outputs.setdefault(index, stdout)
            problems = checks.check_same_text(first, stdout, " ".join(request.argv)[:80])
        out = Outcome()
        out.record(problems)
        if verdict == "known-defect":
            out.known_defects += 1
        return out

    def final_check(self) -> Outcome:
        """Normalizing a canonical print again returns the same text."""
        out = Outcome()
        for index, text in sorted(self.outputs.items()):
            request = self.requests[index]
            if request.argv[0] not in ("normalize", "curvature"):
                continue
            dim = request.argv[request.argv.index("--dim") + 1]
            # ``--expr=`` because a canonical print may start with "-".
            code, again, _, raised = call_cli(("normalize", f"--expr={text.strip()}",
                                               "--dim", dim))
            problems = [] if code == 0 and raised is None else [
                f"renormalize {text.strip()[:60]!r}: exit {code}, raised {raised}"]
            out.record(problems or checks.check_same_text(
                text, again, f"renormalize {text.strip()[:60]!r}"))
        return out


WORKLOADS = {w.name: w for w in (VerifySweep, GaugeBuild, CliRequests)}
