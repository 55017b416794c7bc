"""Canonical text rendering for every algebra in the package.

One value, one string: terms are emitted in a fixed sort order with a
uniform scalar-prefix convention, so equal objects always print
identically.  The output is valid input for the expression parser:

* scalar prefixes: ``j^2 * dx[1] dx[2] dx[3]``, ``-2/3 * f g``,
  ``(1 - j) * th[2]``;
* jets with derivative indices are parenthesized to delimit the index
  list: ``(f_,1,2) dx[1]``; underived symbols print bare: ``x[2] dx[1]``;
* juxtaposition denotes multiplication throughout.
"""

from __future__ import annotations

from .forms import word_degree
from .scalar import ONE, Scalar


def _scalar_prefix(s: Scalar) -> str:
    """Multiplicative prefix for a term's scalar coefficient."""
    if s == ONE:
        return ""
    if s == -ONE:
        return "-"
    text = str(s)
    if " " in text:
        text = f"({text})"
    return f"{text} * "


def _join_terms(parts: list[str]) -> str:
    if not parts:
        return "0"
    out = [parts[0]]
    for p in parts[1:]:
        out += (" - ", p[1:]) if p.startswith("-") else (" + ", p)
    return "".join(out)


def _jet_text(sym) -> str:
    text = str(sym)
    return f"({text})" if sym.derivs else text


def _letter_text(letter) -> str:
    """A form or Grassmann letter: a generator ``kind[index]``, or a jet."""
    if type(letter) is tuple:
        return f"{letter[0]}[{letter[1]}]"
    return _jet_text(letter)


def _render_terms(terms, key, letter_text) -> str:
    """Terms sorted by ``key`` on their words: scalar prefix, then letters."""
    parts = []
    for word in sorted(terms, key=key):
        coeff = terms[word]
        body = " ".join(letter_text(letter) for letter in word)
        parts.append(_scalar_prefix(coeff) + body if body else str(coeff))
    return _join_terms(parts)


def _word_key(word) -> tuple:
    # Shorter words first, then the letters' own order: a jet's tuple is
    # its canonical order, and so is a Grassmann letter's.
    return (len(word), word)


def render_coeff(expr) -> str:
    return _render_terms(expr.terms, _word_key, _jet_text)


def render_form(form) -> str:
    # By degree and length, then coefficient letters before generators and
    # by repr text: ddx before dx, dx[10] before dx[2].  Each distinct
    # letter's key and text are made once per call.
    letters = {l for word in form.terms for l in word}
    keys = {l: (type(l) is tuple, repr(l)) for l in letters}
    texts = {l: _letter_text(l) for l in letters}
    return _render_terms(form.terms, lambda word: (word_degree(word), len(word),
                                                   tuple(map(keys.__getitem__, word))),
                         texts.__getitem__)


def render_grass(elem) -> str:
    return _render_terms(elem.terms, _word_key, _letter_text)


def render_conj_form(cf) -> str:
    """Conjugate-side values print as the delta-image of their preimage.

    ``delta(conjugate_back(cf))`` reproduces ``cf`` exactly, so this text
    round-trips through the expression language by construction.
    """
    if cf.is_zero():
        return "0"
    return f"delta({render_form(cf.conjugate_back())})"


def render_matrix(mat) -> str:
    rows = [", ".join(str(entry) for entry in row) for row in mat.rows]
    return "mat[" + "; ".join(rows) + "]"
