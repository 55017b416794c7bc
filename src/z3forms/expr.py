"""Expression language: lexer, AST, parser, evaluator, canonical printer.

Grammar (indices 1-based; juxtaposition is multiplication):

    expr  := sum
    sum   := ["-"] prod (("+" | "-") prod)*
    prod  := atom (["*"] atom)*
    atom  := rational                     e.g. 2, 2/3
           | "j" ["^" int]                the cube root of unity
           | ident                        symbol, e.g. f, U, Uinv
           | ident "[" int "]"            indexed symbol: A[1], x[2]
           | ident jetlist                jet: f_,1,2 (parenthesize in input
                                          streams where a comma follows)
           | "~" atom                     conjugate (barred) symbol
           | "dx" "[" int "]"             grade-1 generator
           | "ddx" "[" int "]"            grade-2 generator
           | "th" / "bth" "[" int "]"     ternary Grassmann generators
           | "d" "(" expr ")"             the differential
           | "d" "[" int "]" atom         a single partial derivative
           | "delta" "(" expr ")"         conjugation of a degree-3 form
           | "mat" "[" row ";" row ";" row "]"   3x3 scalar matrix
           | "(" expr ")"
    jetlist := "_" "," int ("," int)*
    row   := expr ("," expr)*

Lexing is two regular-expression calls: one search for the first
character outside the grammar, then one ``findall`` for the lexemes,
which the parser reads as plain strings.  No lexeme carries a position;
the line and column of a ``ParseError`` are computed only when it is
raised, by scanning the text again up to the lexeme it names.

Evaluation has one promotion rule for ``+`` and ``*``: a scalar scales a
value of any other kind; two kinds of scalar < coeff < form promote to
the larger one (a scalar is a constant coefficient, a coefficient a
degree-0 form); any other pair must have one kind, and conjugate values
do not multiply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn, Union

from .action import ConjForm
from .coeffs import RESERVED_NAMES, CoeffExpr, JetSymbol
from .forms import Form, coefficient_form
from .grassmann import GrassElement
from .matrices import GradedMatrix, eta_differential
from .scalar import ONE, ZERO, Scalar, jpow, scalar

Value = Union[Scalar, CoeffExpr, Form, GrassElement, GradedMatrix, ConjForm]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


# -- AST ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Scalar


@dataclass(frozen=True)
class Sym:
    name: str
    index: int | None = None
    derivs: tuple[int, ...] = ()
    barred: bool = False


@dataclass(frozen=True)
class Gen:
    kind: str  # dx | ddx | delx | del2x | th | bth
    index: int


@dataclass(frozen=True)
class DApply:
    arg: "Node"


@dataclass(frozen=True)
class DIdx:
    index: int
    arg: "Node"


@dataclass(frozen=True)
class DeltaApply:
    arg: "Node"


@dataclass(frozen=True)
class Prod:
    factors: tuple["Node", ...]


@dataclass(frozen=True)
class Sum:
    terms: tuple[tuple[str, "Node"], ...]  # sign in {"+", "-"}


@dataclass(frozen=True)
class MatLit:
    rows: tuple[tuple["Node", ...], ...]


Node = Union[Lit, Sym, Gen, DApply, DIdx, DeltaApply, Prod, Sum, MatLit]


# -- lexer -------------------------------------------------------------------------

#: The lexemes: integers, identifiers and one-character operators.  Between
#: them only whitespace may stand; ``_BAD_CHAR_RE`` finds anything else.
_LEXEME_RE = re.compile(r"[*+\-()\[\]^/,;_~]|\d+|[A-Za-z][A-Za-z0-9]*")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z*+\-()\[\]^/,;_~]")


def _lex(text: str) -> list[str]:
    """The lexemes of ``text``, then ``""`` for the end of input.

    An integer lexeme is all decimal digits (``str.isdecimal``, the same
    Unicode class as ``\\d``), an identifier starts with an ASCII letter,
    and every other lexeme is an operator character.
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad is not None:
        line, col = _line_col(text, bad.start())
        raise ParseError(f"unexpected character {bad.group()!r}", line, col)
    lexemes = _LEXEME_RE.findall(text)
    lexemes.append("")
    return lexemes


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``text[offset]``; lines end at ``\\n``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lexeme_offset(text: str, index: int) -> int:
    """Offset of lexeme ``index`` of ``text``; the end of input is ``len(text)``."""
    for k, m in enumerate(_LEXEME_RE.finditer(text)):
        if k == index:
            return m.start()
    return len(text)


# -- parser ---------------------------------------------------------------------------

#: Deepest atom nesting the parser accepts.  Every nested construct
#: (parentheses, ``~``, ``d(...)``, ``d[i]``, ``delta(...)``, matrix entries)
#: re-enters ``parse_atom``, at most five Python frames per level, so this
#: keeps the parser and the evaluator that walks the tree well inside
#: Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the lexemes; ``pos`` indexes the next one."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.lexemes = _lex(text)
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, at: int) -> NoReturn:
        line, col = _line_col(self.text, _lexeme_offset(self.text, at))
        raise ParseError(message, line, col)

    def found(self) -> str:
        return self.lexemes[self.pos] or "end of input"

    def accept(self, op: str) -> bool:
        """Step over the next lexeme if it is ``op``."""
        if self.lexemes[self.pos] == op:
            self.pos += 1
            return True
        return False

    def expect(self, op: str) -> None:
        if not self.accept(op):
            self.fail(f"expected {op!r}, found {self.found()!r}", self.pos)

    def expect_int(self) -> int:
        at = self.pos
        if not self.lexemes[at].isdecimal():
            self.fail(f"expected 'int', found {self.found()!r}", at)
        self.pos += 1
        return self.int_at(at)

    def int_at(self, at: int) -> int:
        """The value of the decimal lexeme at ``at``."""
        try:
            return int(self.lexemes[at])
        except ValueError:  # more digits than int() converts
            self.fail("integer literal too long", at)

    def index(self) -> int:
        self.expect("[")
        idx = self.expect_int()
        self.expect("]")
        return idx

    def closed_sum(self) -> Node:
        node = self.parse_sum()
        self.expect(")")
        return node

    def parse(self) -> Node:
        node = self.parse_sum()
        if self.lexemes[self.pos]:
            self.fail(f"unexpected trailing {self.lexemes[self.pos]!r}", self.pos)
        return node

    def parse_sum(self) -> Node:
        lexemes = self.lexemes
        sign = "-" if self.accept("-") else "+"
        terms = [(sign, self.parse_prod())]
        while lexemes[self.pos] in ("+", "-"):
            self.pos += 1
            terms.append((lexemes[self.pos - 1], self.parse_prod()))
        if len(terms) == 1 and sign == "+":
            return terms[0][1]
        return Sum(tuple(terms))

    def parse_prod(self) -> Node:
        lexemes = self.lexemes
        factors = [self.parse_atom()]
        while True:
            tok = lexemes[self.pos]
            if tok == "*":
                self.pos += 1
            elif not (tok.isalnum() or tok in ("(", "~")):
                break
            factors.append(self.parse_atom())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def parse_atom(self) -> Node:
        if self.depth == MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels", self.pos)
        self.depth += 1
        node = self._atom()
        self.depth -= 1
        return node

    def _atom(self) -> Node:
        at = self.pos
        tok = self.lexemes[at]
        if not (tok.isalnum() or tok in ("(", "~")):
            self.fail(f"expected an atom, found {self.found()!r}", at)
        self.pos += 1
        if tok.isdecimal():
            num = self.int_at(at)
            if not self.accept("/"):
                return Lit(scalar(num))
            den = self.expect_int()
            if den == 0:
                self.fail("zero denominator", at + 2)
            return Lit(scalar(Fraction(num, den)))
        if tok == "(":
            return self.closed_sum()
        if tok == "~":
            inner = self.parse_atom()
            if not isinstance(inner, Sym):
                self.fail("~ applies to a symbol", at)
            return Sym(inner.name, inner.index, inner.derivs, barred=True)
        if tok == "j":
            return Lit(jpow(self.expect_int() if self.accept("^") else 1))
        if tok == "d":
            if self.accept("("):
                return DApply(self.closed_sum())
            if self.lexemes[self.pos] != "[":
                self.fail("d needs '(' or '[index]'", self.pos)
            return DIdx(self.index(), self.parse_atom())
        if tok == "delta":
            self.expect("(")
            return DeltaApply(self.closed_sum())
        if tok == "mat":
            return self.parse_matrix(at)
        if RESERVED_NAMES.get(tok) == "generator":
            return Gen(tok, self.index())
        index = self.index() if self.lexemes[self.pos] == "[" else None
        derivs: tuple[int, ...] = ()
        if self.accept("_"):
            self.expect(",")
            parts = [self.expect_int()]
            while self.accept(","):
                parts.append(self.expect_int())
            derivs = tuple(parts)
        return Sym(tok, index, derivs)

    def parse_matrix(self, at: int) -> MatLit:
        self.expect("[")
        rows: list[tuple[Node, ...]] = []
        while True:
            row = [self.parse_sum()]
            while self.accept(","):
                row.append(self.parse_sum())
            rows.append(tuple(row))
            if not self.accept(";"):
                break
        self.expect("]")
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            self.fail("matrix literal must be 3x3", at)
        return MatLit(tuple(rows))


def parse(text: str) -> Node:
    """Parse an expression; raises ParseError with line/column on bad input."""
    return _Parser(text).parse()


# -- evaluation -----------------------------------------------------------------------


@dataclass(frozen=True)
class EvalContext:
    """Ambient dimension (generator/Grassmann index range) and coefficient mode."""

    n: int = 4
    commutative: bool = False


#: The kind of every value type.  Lookups are by exact type: no value type
#: has a subclass.
_KINDS: dict[type, str] = {
    Scalar: "scalar",
    CoeffExpr: "coeff",
    Form: "form",
    GrassElement: "grass",
    GradedMatrix: "matrix",
    ConjForm: "conj",
}


#: The kinds that promote into one another, smallest first.
_LADDER = ("scalar", "coeff", "form")


def _to_coeff(v: Value, ctx: EvalContext) -> CoeffExpr:
    if isinstance(v, Scalar):
        return CoeffExpr.from_scalar(v, ctx.commutative)
    if isinstance(v, CoeffExpr):
        return v
    raise EvalError(f"cannot use a {_KINDS[type(v)]} value as a coefficient")


def _to_form(v: Value, ctx: EvalContext) -> Form:
    if isinstance(v, Form):
        return v
    return coefficient_form(_to_coeff(v, ctx), ctx.n)


def _combine(op: str, a: Value, b: Value, ctx: EvalContext) -> Value:
    """``a + b`` or ``a * b`` by the promotion rule of the module docstring."""
    ka, kb = _KINDS[type(a)], _KINDS[type(b)]
    if ka != kb and op == "*" and "scalar" in (ka, kb):
        return b.scale(a) if ka == "scalar" else a.scale(b)
    if ka != kb and ka in _LADDER and kb in _LADDER:
        promote = _to_form if "form" in (ka, kb) else _to_coeff
        a, b = promote(a, ctx), promote(b, ctx)
    elif ka != kb or (op == "*" and ka == "conj"):
        verb = "add" if op == "+" else "multiply"
        raise EvalError(f"cannot {verb} a {ka} value and a {kb} value")
    return a + b if op == "+" else a * b


def evaluate(node: Node, ctx: EvalContext) -> Value:
    """Evaluate an AST to a normalized algebra value.

    The value constructors check their own inputs (symbol names, generator
    and Grassmann indices, the degree under ``delta``); a ``ValueError``
    they raise is re-raised here as an ``EvalError`` with the same text.
    """
    try:
        return _evaluate(node, ctx)
    except EvalError:
        raise
    except ValueError as exc:
        raise EvalError(str(exc)) from exc


def _evaluate(node: Node, ctx: EvalContext) -> Value:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Sym):
        sym = JetSymbol(node.name, node.index, node.derivs, node.barred)
        return CoeffExpr.from_symbol(sym, ctx.commutative)
    if isinstance(node, Gen):
        letter = (node.kind, node.index)
        if node.kind in ("th", "bth"):
            return GrassElement.word(ctx.n, (letter,))
        if node.kind in ("delx", "del2x"):
            raise EvalError(
                "conjugate-side generators are built with delta(...), not directly"
            )
        return Form(ctx.n, [(ONE, (letter,))], ctx.commutative)
    if isinstance(node, DApply):
        v = _evaluate(node.arg, ctx)
        k = _KINDS[type(v)]
        if k == "matrix":
            return eta_differential(v)
        if k == "grass":
            raise EvalError("the differential does not act on Grassmann values")
        if k == "conj":
            return v.scale(ZERO)  # d delta = 0
        return _to_form(v, ctx).d()
    if isinstance(node, DIdx):
        v = _evaluate(node.arg, ctx)
        if not 1 <= node.index <= ctx.n:
            raise EvalError(f"derivative index {node.index} out of range 1..{ctx.n}")
        return _to_coeff(v, ctx).derive(node.index)
    if isinstance(node, DeltaApply):
        v = _evaluate(node.arg, ctx)
        if isinstance(v, ConjForm):
            raise EvalError("delta applies to degree-3 forms, not conjugate values")
        return ConjForm(_to_form(v, ctx))
    if isinstance(node, Prod):
        acc = _evaluate(node.factors[0], ctx)
        for factor in node.factors[1:]:
            acc = _combine("*", acc, _evaluate(factor, ctx), ctx)
        return acc
    if isinstance(node, Sum):
        acc: Value | None = None
        for sign, term in node.terms:
            v = _evaluate(term, ctx)
            if sign == "-":
                v = _combine("*", scalar(-1), v, ctx)
            acc = v if acc is None else _combine("+", acc, v, ctx)
        assert acc is not None
        return acc
    if isinstance(node, MatLit):
        return GradedMatrix([[_evaluate(cell, ctx) for cell in row] for row in node.rows])
    raise EvalError(f"unknown AST node {type(node).__name__}")


def evaluate_text(text: str, ctx: EvalContext) -> Value:
    return evaluate(parse(text), ctx)


# -- canonical printing ------------------------------------------------------------------


def print_canonical(v: Value) -> str:
    """Deterministic canonical text for any normalized algebra value."""
    if type(v) not in _KINDS:
        raise EvalError(f"cannot print {type(v).__name__}")
    return str(v)


def grade_description(v: Value) -> str:
    """Human-readable grade/degree line used by the grade command."""
    kind = _KINDS.get(type(v))
    if kind in ("scalar", "coeff") or (kind == "conj" and v.is_zero()):
        return "grade 0, degree 0"
    if kind == "conj":
        return "grade 0, degree 3 (conjugate side)"
    if kind == "form":
        grade, degree = v.grade_and_degree()
        return f"grade {grade}, degree {degree}"
    if kind == "grass":
        return f"grade {v.grade()}"
    if kind == "matrix":
        return f"grade {v.grade_of()}"
    raise EvalError(f"no grade defined for {type(v).__name__}")
