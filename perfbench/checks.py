"""Known-answer checks for the three workloads.

Each check takes plain values (strings, numbers, dicts of strings) and
returns a list of problems; an empty list means the answer is right.  A
problem counts the operation as failed.  The answers come from the
package's README and verify suites, not from the code under test.
"""

from __future__ import annotations

import re

from cligen import KNOWN_DEFECTS

#: The four by-design failures of the ``gauge`` verify suite: identities that
#: hold only for commuting coefficients, checked in the noncommutative algebra.
GAUGE_BY_DESIGN = frozenset({
    "dx-sector == left-ordered quadratic table (noncommutative)",
    "symmetrized curvature == cyclic adjoint-derivative combination (noncommutative)",
    "curvature of U^-1 dU (noncommutative)",
    "dx-sector transforms as Uinv (dx-sector) U (noncommutative)",
})

#: Canonical print of a zero value: forms, coefficients, scalars and
#: conjugate forms print "0"; matrices print the zero literal.
ZERO_TEXTS = frozenset({"0", "mat[0, 0, 0; 0, 0, 0; 0, 0, 0]"})

LAGRANGIAN_CONSTANTS = ("2/3", "-1/3", "1")
FIELD_EQUATION_CONSTANTS = ("2", "-4")

_GRADE_LINE = re.compile(
    r"grade (0|1|2|mixed)(, degree (\d+|mixed))?( \(conjugate side\))?"
)


def check_verify_suite(suite: str, failures: list[tuple[str, str]]) -> list[str]:
    """``verify gauge`` fails exactly the four by-design checks, each with its
    note; every other suite fails nothing.

    ``failures`` holds one ``(input, note)`` pair per reported failure.
    """
    expected = GAUGE_BY_DESIGN if suite == "gauge" else frozenset()
    problems = []
    inputs = [inp for inp, _ in failures]
    if len(inputs) != len(set(inputs)):
        problems.append(f"{suite}: duplicate failures: {sorted(inputs)}")
    for inp in sorted(set(inputs) - expected):
        problems.append(f"{suite}: unexpected failure: {inp}")
    for inp in sorted(expected - set(inputs)):
        problems.append(f"{suite}: by-design failure missing: {inp}")
    for inp, note in failures:
        if inp in expected and not note:
            problems.append(f"{suite}: by-design failure without its note: {inp}")
    return problems


def check_same_text(first: str, again: str, what: str) -> list[str]:
    """A repeated computation prints byte-identical text."""
    if first == again:
        return []
    return [f"{what}: repeated output differs"]


def check_field_strength_sector(t21: dict, field_strength: dict) -> list[str]:
    """The ddx dx curvature sector equals the field strength, entry by entry.

    Both tables map ``(i, k)`` to the canonical print of the entry; a
    missing key means a zero entry.
    """
    problems = []
    for key in sorted(set(t21) | set(field_strength)):
        got = t21.get(key, "0")
        want = field_strength.get(key, "0")
        if got != want:
            problems.append(f"ddx dx sector {key}: {got!r} != field strength {want!r}")
    return problems


def check_zero(text: str, what: str) -> list[str]:
    """A value that must vanish prints as zero."""
    if text.strip() in ZERO_TEXTS:
        return []
    return [f"{what}: expected 0, got {text.strip()[:80]!r}"]


def check_lagrangian(c1: str, c2: str, c3: str, exact: bool, n: int) -> list[str]:
    """``lagrangian_report(n)`` gives (2/3, -1/3, 1), exactly, at every n."""
    problems = []
    if (c1, c2, c3) != LAGRANGIAN_CONSTANTS:
        problems.append(f"lagrangian n={n}: (c1, c2, c3) = ({c1}, {c2}, {c3})")
    if not exact:
        problems.append(f"lagrangian n={n}: fit not exact")
    return problems


def check_field_equation(alpha: str, gamma: str, exact: bool, n: int) -> list[str]:
    """``field_equation_report(n)`` gives (alpha, gamma) = (2, -4), exactly."""
    problems = []
    if (alpha, gamma) != FIELD_EQUATION_CONSTANTS:
        problems.append(f"field equation n={n}: (alpha, gamma) = ({alpha}, {gamma})")
    if not exact:
        problems.append(f"field equation n={n}: fit not exact")
    return problems


def classify_cli(request, code: int, stdout: str, stderr: str,
                 raised: str | None) -> tuple[str, list[str]]:
    """Judge one CLI call against the request's expected outcome.

    ``raised`` names the exception that escaped ``main`` (the real CLI
    prints a traceback and exits 1), or is None.  Returns
    ``("ok", [])``, ``("known-defect", [])`` when the call hit the
    request's documented defect, or ``("failed", problems)``.
    """
    name = " ".join(request.argv)[:80]
    if request.defect is not None:
        defect_raised, defect_stderr = KNOWN_DEFECTS[request.defect]
        if raised == defect_raised and (defect_stderr is None or defect_stderr in stderr):
            return "known-defect", []
    if request.expect == "error":
        if raised is None and code == 2 and "Traceback" not in stderr:
            return "ok", []
        return "failed", [f"{name}: want exit 2, got exit {code}, raised {raised}"]
    if raised is not None or code != 0:
        return "failed", [f"{name}: want exit 0, got exit {code}, raised {raised}: "
                          f"{stderr.strip()[:80]}"]
    if not stdout.strip():
        return "failed", [f"{name}: empty output"]
    command = request.argv[0]
    if command == "d" and request.argv[request.argv.index("-n") + 1] == "3":
        problems = check_zero(stdout, f"d^3 of {name}")
        if problems:
            return "failed", problems
    if command == "grade" and not _GRADE_LINE.fullmatch(stdout.strip()):
        return "failed", [f"{name}: bad grade line {stdout.strip()!r}"]
    return "ok", []
