"""Differential tests for the lexer of ``z3forms.expr``.

``_lex`` splits a text with one ``findall`` and keeps no positions;
``_lexeme_offset`` and ``_line_col`` give the line and column of a lexeme
only when the parser raises.  These tests check both against a reference
written here: a tokenizer that matches one token at a time and tracks the
line and column as it goes.
"""

from __future__ import annotations

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from z3forms.expr import ParseError, _lex, _lexeme_offset, _line_col  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

#: Pieces of generated texts: lexemes of every kind, Unicode digits, letters
#: and whitespace, line breaks, and characters outside the grammar.
PIECES = (
    "f", "j", "x1", "dx", "ddx", "mat", "12", "0", "\u0663", "\u0660",
    "(", ")", "[", "]", "*", "+", "-", "/", "^", ",", ";", "_", "~",
    " ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u2028",
    "$", "\u00e9", "\u00b2", ".",
)

texts = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


# -- reference tokenizer ----------------------------------------------------------

_REF_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[*+\-()\[\]^/,;_~])"
)


def ref_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) of every token, then the end of input."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            kind = lexeme if m.lastgroup == "op" else m.lastgroup
            tokens.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


def kind_of(lexeme: str) -> str:
    """The token kind the parser reads off a lexeme."""
    if not lexeme:
        return "end"
    if lexeme.isdecimal():
        return "int"
    return "ident" if lexeme.isalnum() else lexeme


# -- properties -------------------------------------------------------------------


@PROPERTY
@given(texts)
def test_lexemes_match_the_reference(text):
    try:
        want = ref_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            _lex(text)
        got = info.value
        assert (str(got), got.line, got.col) == (str(exc), exc.line, exc.col)
        return
    lexemes = _lex(text)
    assert [(kind_of(t), t) for t in lexemes] == [(k, t) for k, t, _, _ in want]


@PROPERTY
@given(texts)
def test_positions_match_the_reference(text):
    try:
        want = ref_tokenize(text)
    except ParseError:
        return
    got = [_line_col(text, _lexeme_offset(text, k)) for k in range(len(want))]
    assert got == [(line, col) for _, _, line, col in want]


def test_reference_on_a_hand_checked_text():
    tokens = ref_tokenize("f\n \u0663\r\n\t(x1 + ~)")
    assert tokens == [
        ("ident", "f", 1, 1), ("int", "\u0663", 2, 2), ("(", "(", 3, 2),
        ("ident", "x1", 3, 3), ("+", "+", 3, 6), ("~", "~", 3, 8),
        (")", ")", 3, 9), ("end", "", 3, 10),
    ]
    with pytest.raises(ParseError) as info:
        ref_tokenize("f +\n\t\u00b2")
    assert (info.value.line, info.value.col) == (2, 2)
