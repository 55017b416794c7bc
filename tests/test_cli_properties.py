"""The exit-code contract of the command-line tool, as a property.

Every ``normalize``, ``d`` and ``grade`` request exits 0 on an expression
it can evaluate and 2 on any other (a usage, parse or evaluation error),
and never prints a traceback.  The expressions are token soup: valid
atoms, operators and the inputs known to reach error paths (a zero
denominator, a 20-digit integer, a conjugate-side generator, an index out
of range, a barred coordinate and matrix literals with and without a
non-scalar entry).
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from strategies import PROPERTY  # noqa: E402

from z3forms.cli import main  # noqa: E402

TOKENS = (
    "f", "g", "U", "Uinv", "mu", "x[1]", "A[2]", "f_,1,2", "j", "j^2", "2", "2/3",
    "dx[1]", "dx[2]", "ddx[1]", "th[1]", "bth[2]", "d(", "d[1]", "delta(", "~",
    "(", ")", "+", "-", "*", "[", "]", ",", ";",
    "1/0", "12345678901234567890", "delx[1]", "th[9]", "~x[2]",
    "mat[1, j, 0; 0, 1, 0; 0, 0, 2/3]", "mat[f, 0, 0; 0, 1, 0; 0, 0, 1]",
)

requests = st.tuples(
    st.sampled_from(("normalize", "d", "grade")),
    st.integers(1, 3),
    st.integers(1, 4),
    st.booleans(),
    st.lists(st.sampled_from(TOKENS), max_size=12),
)


@settings(PROPERTY, max_examples=300)
@given(requests)
def test_cli_exits_0_or_2_without_a_traceback(request):
    command, times, dim, as_json, tokens = request
    argv = [command, "-e", " ".join(tokens), "--dim", str(dim)]
    if command == "d":
        argv += ["-n", str(times)]
    if as_json:
        argv.append("--json")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
