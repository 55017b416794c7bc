"""Property tests for the coefficient algebra's canonical fast paths.

``CoeffExpr`` sums, differences, scalings and negations are built from
their operands' canonical terms without normalizing the words again, and
``normalize_word`` returns a word with no ``U``, ``Uinv`` or constant
letter as it is (sorted in the commutative mode).  ``derive`` normalizes
only the words where a coordinate was dropped, ``_cancel_adjacent``
reduces in one stack pass and ``_cancel_counted`` pairs letters off by
count.  These tests check each against a reference written here (the
normalizing constructor on the same raw items, the fixed-point
cancellation loop, or a loop that removes one pair at a time), in both
modes, with words that mix the invertible pair, ``mu``, barred symbols
and coordinates.  The contract of ``JetSymbol`` (a tuple with
dataclass-style attributes and ``repr``) is checked too.  Example
generation is derandomized so that every run checks the same cases.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from strategies import (  # noqa: E402
    CANCEL_LETTERS,
    LETTERS,
    PROPERTY,
    coeff_items,
    coeff_words,
    derive_items,
    int_scalars,
    letter_lists,
    modes,
    plain_words,
)

import z3forms  # noqa: E402
from shared import BU, BUINV, U, UINV, X1, jet_key  # noqa: E402
from z3forms.coeffs import (  # noqa: E402
    CONSTANT_NAMES,
    CoeffExpr,
    JetSymbol,
    _cancel_adjacent,
    _cancel_counted,
    normalize_word,
)
from z3forms.scalar import ONE  # noqa: E402


def canonical(expr: CoeffExpr) -> None:
    for word, coeff in expr.terms.items():
        assert not coeff.is_zero()
        assert normalize_word(word, expr.commutative) == word


@PROPERTY
@given(coeff_items, coeff_items, modes)
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
@given(coeff_items, int_scalars, modes)
def test_scale_and_negation_match_constructor(xs, s, commutative):
    a = CoeffExpr(xs, commutative)
    scaled = a.scale(s)
    assert scaled == CoeffExpr([(c * s, w) for c, w in xs], commutative)
    negated = -a
    assert negated == CoeffExpr([(-c, w) for c, w in xs], commutative)
    for got in (scaled, negated):
        canonical(got)
        assert got.commutative == commutative
        assert hash(got) == hash(CoeffExpr([(c, w) for w, c in got.terms.items()],
                                           commutative))


@PROPERTY
@given(coeff_words, modes)
def test_normalize_word_is_idempotent(word, commutative):
    once = normalize_word(word, commutative)
    assert normalize_word(once, commutative) == once
    assert normalize_word(iter(word), commutative) == once


@PROPERTY
@given(plain_words, modes)
def test_normalize_word_keeps_plain_words(word, commutative):
    got = normalize_word(word, commutative)
    assert got == (tuple(sorted(word, key=jet_key)) if commutative else word)


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
    # With an index, without one (stored as -1) and with index 0.
    code = (
        "import pickle, sys\n"
        "from z3forms.coeffs import JetSymbol\n"
        "syms = [JetSymbol('A', 2, (3, 1), barred=True), JetSymbol('A'), JetSymbol('A', 0)]\n"
        "sys.stdout.write(repr(hash('A')) + ' ' + pickle.dumps(syms).hex())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    child_str_hash, payload = out.split()
    assert int(child_str_hash) != hash("A")  # the child hashes str differently
    syms = pickle.loads(bytes.fromhex(payload))
    fresh = [JetSymbol("A", 2, (1, 3), barred=True), JetSymbol("A"), JetSymbol("A", 0)]
    assert [s.index for s in syms] == [2, None, 0]
    for sym, want in zip(syms, fresh):
        assert sym == want and hash(sym) == hash(want)
        assert {want: "found"}[sym] == "found"
        assert pickle.loads(pickle.dumps(want)) == want
        assert want.__getnewargs__() == (want.name, want.index, want.derivs, want.barred)


# -- derive against the generic path -------------------------------------------


def ref_derive(x: CoeffExpr, m: int) -> CoeffExpr:
    """The Leibniz rule, every raw term sent through ``CoeffExpr(items, mode)``."""
    items = []
    for word, coeff in x.terms.items():
        for pos, sym in enumerate(word):
            head, tail = word[:pos], word[pos + 1:]
            if sym.name == "Uinv":
                uinv = JetSymbol("Uinv", barred=sym.barred)
                du = JetSymbol("U", derivs=(m,), barred=sym.barred)
                items.append((-coeff, head + (uinv, du, uinv) + tail))
            elif sym.is_coordinate():
                if sym.index == m:
                    items.append((coeff, head + tail))
            elif sym.name not in CONSTANT_NAMES:
                items.append((coeff, head + (sym.with_deriv(m),) + tail))
    return CoeffExpr(items, x.commutative)


@PROPERTY
@given(derive_items, st.integers(1, 3), modes)
def test_derive_matches_generic_path(xs, m, commutative):
    x = CoeffExpr(xs, commutative)
    got = x.derive(m)
    assert list(got.terms.items()) == list(ref_derive(x, m).terms.items())
    canonical(got)
    assert got.commutative == commutative


@PROPERTY
@given(derive_items, st.integers(1, 3), modes)
def test_derived_jets_are_valid_symbols(xs, m, commutative):
    # ``derive`` builds its jets without the checks of ``JetSymbol.__new__``.
    for word in CoeffExpr(xs, commutative).derive(m).terms:
        for letter in word:
            assert type(letter) is JetSymbol
            assert letter == JetSymbol(letter.name, letter.index, letter.derivs,
                                       letter.barred)


@pytest.mark.parametrize("commutative", [False, True])
def test_derive_cancels_after_dropping_a_coordinate(commutative):
    f = JetSymbol("f")
    for word in ((U, X1, UINV), (BUINV, X1, BU), (f, U, U, X1, UINV, UINV)):
        got = CoeffExpr([(ONE, word)], commutative).derive(1)
        dropped = () if word[0] != f else (f,)
        assert got.terms[dropped] == ONE


# -- one-pass cancellation against the fixed-point loop ----------------------------


def loop_cancel_adjacent(letters: list[JetSymbol]) -> list[JetSymbol]:
    """Remove adjacent bare inverse pairs, one at a time, to a fixed point."""
    def bare(s: JetSymbol) -> bool:
        return not s.derivs and s.index is None

    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            s, t = letters[i], letters[i + 1]
            if s.barred != t.barred:
                continue
            if {s.name, t.name} == {"U", "Uinv"} and bare(s) and bare(t):
                del letters[i:i + 2]
                changed = True
                break
    return letters


@PROPERTY
@given(letter_lists)
def test_cancel_adjacent_matches_fixed_point_loop(letters):
    assert _cancel_adjacent(list(letters)) == loop_cancel_adjacent(list(letters))


def loop_cancel_counted(letters: list[JetSymbol]) -> list[JetSymbol]:
    """Remove one bare U and one bare Uinv with the same bar flag while both are present."""
    for barred in (False, True):
        u, uinv = JetSymbol("U", barred=barred), JetSymbol("Uinv", barred=barred)
        while u in letters and uinv in letters:
            letters.remove(u)
            letters.remove(uinv)
    return letters


@PROPERTY
@given(letter_lists)
def test_cancel_counted_matches_pairwise_loop(letters):
    assert (sorted(_cancel_counted(list(letters)), key=jet_key)
            == sorted(loop_cancel_counted(list(letters)), key=jet_key))


def test_cancel_adjacent_nested_and_barred_pairs():
    assert _cancel_adjacent([U, U, UINV, UINV]) == []
    assert _cancel_adjacent([BU, BUINV]) == []
    assert _cancel_adjacent([UINV, BU, BUINV, U]) == []
    assert _cancel_adjacent([U, BUINV]) == [U, BUINV]
    jet_u = JetSymbol("U", derivs=(1,))
    assert _cancel_adjacent([jet_u, UINV]) == [jet_u, UINV]


# -- the JetSymbol contract ---------------------------------------------------------


def test_jet_symbol_repr_is_dataclass_style():
    assert repr(JetSymbol("f")) == (
        "JetSymbol(name='f', index=None, derivs=(), barred=False)")
    assert repr(JetSymbol("A", 2, (3, 1), barred=True)) == (
        "JetSymbol(name='A', index=2, derivs=(1, 3), barred=True)")
    assert repr(JetSymbol("f", 0)) == (
        "JetSymbol(name='f', index=0, derivs=(), barred=False)")
    assert (str(JetSymbol("f")), str(JetSymbol("f", 0))) == ("f", "f[0]")


def test_jet_symbol_fields_and_equal_routes():
    sym = JetSymbol("A", 2, (3, 1), True)
    assert (sym.name, sym.index, sym.derivs, sym.barred) == ("A", 2, (1, 3), True)
    routes = [
        JetSymbol(name="A", index=2, derivs=(1, 3), barred=True),
        JetSymbol("A", 2, barred=True).with_deriv(3).with_deriv(1),
        JetSymbol("A", 2, (1,)).with_deriv(3).bar_toggled(),
        JetSymbol("A", 2, iter([3, 1]), True),
    ]
    for other in routes:
        assert other == sym and hash(other) == hash(sym)
        assert type(other) is JetSymbol
    assert len({sym, *routes}) == 1
    assert sym != JetSymbol("A", 2, (1, 3))
    assert JetSymbol("A").index is None and JetSymbol("A", 0).index == 0


def test_jet_symbol_is_immutable():
    sym = JetSymbol("f")
    for name in ("name", "index", "derivs", "barred", "other"):
        with pytest.raises(AttributeError):
            setattr(sym, name, None)
    assert sym == JetSymbol("f")


def test_jet_symbol_pickle_and_deepcopy_keep_the_value():
    sym = JetSymbol("A", 2, (3, 1), barred=True)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(sym, protocol))
        assert back == sym and hash(back) == hash(sym) and type(back) is JetSymbol
        assert repr(back) == repr(sym)
    copied = copy.deepcopy(sym)
    assert copied == sym and type(copied) is JetSymbol and repr(copied) == repr(sym)


def test_jet_symbol_validation_errors():
    with pytest.raises(ValueError) as err:
        JetSymbol("Uinv", derivs=(1,))
    assert str(err.value) == (
        "jets of Uinv never survive normalization; use derive() instead")
    with pytest.raises(ValueError) as err:
        JetSymbol("x", 1, (2,))
    assert str(err.value) == ("coordinate symbols differentiate to constants; "
                              "jets of x[i] cannot be constructed")
    for name in ("U", "Uinv"):
        for barred in (False, True):
            with pytest.raises(ValueError) as err:
                JetSymbol(name, 1, barred=barred)
            assert str(err.value) == (
                f"{name} takes no index: U and Uinv are one invertible pair")
    for kwargs in ({"derivs": (1,)}, {"barred": True}):
        with pytest.raises(ValueError) as err:
            JetSymbol("mu", **kwargs)
        assert str(err.value) == ("mu is a real constant: it has no jets "
                                  "and no conjugate partner")
    for index in (-1, -5):
        with pytest.raises(ValueError) as err:
            JetSymbol("f", index)
        assert str(err.value) == f"symbol index {index} is negative"


def test_tuple_order_of_the_strategy_letters_is_the_reference_order():
    letters = LETTERS + CANCEL_LETTERS
    for a in letters:
        for b in letters:
            assert (a < b) == (jet_key(a) < jet_key(b))
