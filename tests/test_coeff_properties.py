"""Property tests for the coefficient algebra's canonical fast paths.

``CoeffExpr`` sums, differences, scalings and negations are built from
their operands' canonical terms without normalizing the words again, and
``normalize_word`` returns a word with no ``U``, ``Uinv`` or constant
letter as it is (sorted in the commutative mode).  These tests check both
against the normalizing constructor on the same raw items, in both modes,
with words that mix the invertible pair, ``mu``, barred symbols and
coordinates.  Example generation is derandomized so that every run checks
the same cases.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import z3forms  # noqa: E402
from z3forms.coeffs import CoeffExpr, JetSymbol, normalize_word  # noqa: E402
from z3forms.scalar import Scalar  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

LETTERS = (
    JetSymbol("f"),
    JetSymbol("g"),
    JetSymbol("f", derivs=(1,)),
    JetSymbol("A", 2, (1, 2)),
    JetSymbol("f", barred=True),
    JetSymbol("A", 1, barred=True),
    JetSymbol("x", 1),
    JetSymbol("x", 2),
    JetSymbol("U"),
    JetSymbol("Uinv"),
    JetSymbol("U", barred=True),
    JetSymbol("Uinv", barred=True),
    JetSymbol("U", derivs=(2,)),
    JetSymbol("mu"),
)
PLAIN = tuple(s for s in LETTERS if s.name not in ("U", "Uinv", "mu"))

modes = st.booleans()
scalars = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))
words = st.lists(st.sampled_from(LETTERS), max_size=4).map(tuple)
# Few distinct words, so that terms collide and cancel.
items = st.lists(st.tuples(scalars, words), max_size=5)


def canonical(expr: CoeffExpr) -> None:
    for word, coeff in expr.terms.items():
        assert not coeff.is_zero()
        assert normalize_word(word, expr.commutative) == word


@PROPERTY
@given(items, items, modes)
def test_sum_and_difference_match_constructor(xs, ys, commutative):
    a, b = CoeffExpr(xs, commutative), CoeffExpr(ys, commutative)
    total = a + b
    assert total == CoeffExpr(xs + ys, commutative)
    difference = a - b
    assert difference == CoeffExpr(xs + [(-c, w) for c, w in ys], commutative)
    for got in (total, difference):
        canonical(got)
        assert got.commutative == commutative
    assert (a - a).is_zero()


@PROPERTY
@given(items, scalars, modes)
def test_scale_and_negation_match_constructor(xs, s, commutative):
    a = CoeffExpr(xs, commutative)
    scaled = a.scale(s)
    assert scaled == CoeffExpr([(c * s, w) for c, w in xs], commutative)
    negated = -a
    assert negated == CoeffExpr([(-c, w) for c, w in xs], commutative)
    for got in (scaled, negated):
        canonical(got)
        assert got.commutative == commutative
        assert hash(got) == hash(CoeffExpr(got.terms, commutative))


@PROPERTY
@given(words, modes)
def test_normalize_word_is_idempotent(word, commutative):
    once = normalize_word(word, commutative)
    assert normalize_word(once, commutative) == once
    assert normalize_word(iter(word), commutative) == once


@PROPERTY
@given(st.lists(st.sampled_from(PLAIN), max_size=5).map(tuple), modes)
def test_normalize_word_keeps_plain_words(word, commutative):
    got = normalize_word(word, commutative)
    assert got == (tuple(sorted(word, key=JetSymbol.sort_key)) if commutative else word)


def test_normalize_word_still_rewrites_special_letters():
    f, u, uinv, mu = JetSymbol("f"), JetSymbol("U"), JetSymbol("Uinv"), JetSymbol("mu")
    assert normalize_word((f, u, uinv), False) == (f,)
    assert normalize_word((u, f, uinv), True) == (f,)
    assert normalize_word((f, mu), False) == (mu, f)
    assert normalize_word((u, f, uinv), False) == (u, f, uinv)


def test_jet_symbol_hash_survives_pickling_across_processes():
    parent_seed = os.environ.get("PYTHONHASHSEED")
    child_seed = "2" if parent_seed == "1" else "1"
    src = str(Path(z3forms.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=child_seed, PYTHONPATH=src)
    code = (
        "import pickle, sys\n"
        "from z3forms.coeffs import JetSymbol\n"
        "sym = JetSymbol('A', 2, (3, 1), barred=True)\n"
        "sys.stdout.write(repr(hash('A')) + ' ' + pickle.dumps(sym).hex())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    child_str_hash, payload = out.split()
    assert int(child_str_hash) != hash("A")  # the child hashes str differently
    sym = pickle.loads(bytes.fromhex(payload))
    fresh = JetSymbol("A", 2, (1, 3), barred=True)
    assert sym == fresh and hash(sym) == hash(fresh)
    assert {fresh: "found"}[sym] == "found"
    assert pickle.loads(pickle.dumps(fresh)) == fresh
