"""Expression language: tokenizer, AST, parser, evaluator, canonical printer.

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

Evaluation promotes scalars into coefficient expressions and those into
forms as products require; Grassmann elements and matrices only combine
with scalars and among themselves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .action import ConjForm, conjugate_form
from .coeffs import CoeffExpr, JetSymbol
from .forms import Form, coefficient_form, ddx, dx
from .grassmann import GrassElement
from .matrices import GradedMatrix, eta_differential
from .scalar import ZERO, Scalar, jpow, scalar

Value = Union[Scalar, CoeffExpr, Form, GrassElement, GradedMatrix, ConjForm]

_GENERATOR_KINDS = ("dx", "ddx", "delx", "del2x")
_THETA_KINDS = ("th", "bth")


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
    value: Fraction


@dataclass(frozen=True)
class JLit:
    power: int = 1


@dataclass(frozen=True)
class Sym:
    name: str
    index: int | None = None
    derivs: tuple[int, ...] = ()
    barred: bool = False


@dataclass(frozen=True)
class Gen:
    kind: str  # dx | ddx | delx | del2x
    index: int


@dataclass(frozen=True)
class Theta:
    kind: str  # th | bth
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


Node = Union[Lit, JLit, Sym, Gen, Theta, DApply, DIdx, DeltaApply, Prod, Sum, MatLit]


# -- tokenizer -----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[*+\-()\[\]^/,;_~])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | the op character | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "int":
            tokens.append(_Token("int", lexeme, line, col))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", lexeme, line, col))
        elif m.lastgroup == "op":
            tokens.append(_Token(lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# -- parser ---------------------------------------------------------------------------

_ATOM_START = {"int", "ident", "(", "~"}

#: Deepest atom nesting the parser accepts.  Every nested construct
#: (parentheses, ``~``, ``d(...)``, ``d[i]``, ``delta(...)``, matrix entries)
#: re-enters ``parse_atom``, at most five Python frames per level, so this
#: keeps the parser and the evaluator that walks the tree well inside
#: Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def parse(self) -> Node:
        node = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return node

    def parse_sum(self) -> Node:
        terms: list[tuple[str, Node]] = []
        sign = "+"
        if self.peek().kind == "-":
            self.next()
            sign = "-"
        terms.append((sign, self.parse_prod()))
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            terms.append((op, self.parse_prod()))
        if len(terms) == 1 and terms[0][0] == "+":
            return terms[0][1]
        return Sum(tuple(terms))

    def parse_prod(self) -> Node:
        factors = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.next()
                factors.append(self.parse_atom())
            elif tok.kind in _ATOM_START:
                factors.append(self.parse_atom())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def parse_atom(self) -> Node:
        tok = self.peek()
        if self.depth == MAX_DEPTH:
            raise ParseError(
                f"expression nested deeper than {MAX_DEPTH} levels", tok.line, tok.col
            )
        self.depth += 1
        node = self._atom(tok)
        self.depth -= 1
        return node

    def _atom(self, tok: _Token) -> Node:
        if tok.kind == "int":
            self.next()
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.next()
                den = self.expect("int")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value /= int(den.text)
            return Lit(value)
        if tok.kind == "(":
            self.next()
            node = self.parse_sum()
            self.expect(")")
            return node
        if tok.kind == "~":
            self.next()
            inner = self.parse_atom()
            if not isinstance(inner, Sym):
                raise ParseError("~ applies to a symbol", tok.line, tok.col)
            return Sym(inner.name, inner.index, inner.derivs, barred=True)
        if tok.kind == "ident":
            return self.parse_ident_atom()
        raise ParseError(
            f"expected an atom, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )

    def parse_ident_atom(self) -> Node:
        tok = self.next()
        name = tok.text
        if name == "j":
            if self.peek().kind == "^":
                self.next()
                power = self.expect("int")
                return JLit(int(power.text))
            return JLit(1)
        if name == "d":
            follow = self.peek()
            if follow.kind == "(":
                self.next()
                node = self.parse_sum()
                self.expect(")")
                return DApply(node)
            if follow.kind == "[":
                self.next()
                idx = self.expect("int")
                self.expect("]")
                return DIdx(int(idx.text), self.parse_atom())
            raise ParseError("d needs '(' or '[index]'", follow.line, follow.col)
        if name == "delta":
            self.expect("(")
            node = self.parse_sum()
            self.expect(")")
            return DeltaApply(node)
        if name == "mat":
            return self.parse_matrix(tok)
        if name in _GENERATOR_KINDS or name in _THETA_KINDS:
            self.expect("[")
            idx = self.expect("int")
            self.expect("]")
            if name in _GENERATOR_KINDS:
                return Gen(name, int(idx.text))
            return Theta(name, int(idx.text))
        index: int | None = None
        if self.peek().kind == "[":
            self.next()
            idx = self.expect("int")
            self.expect("]")
            index = int(idx.text)
        derivs: tuple[int, ...] = ()
        if self.peek().kind == "_":
            self.next()
            self.expect(",")
            parts = [int(self.expect("int").text)]
            while self.peek().kind == ",":
                self.next()
                parts.append(int(self.expect("int").text))
            derivs = tuple(parts)
        return Sym(name, index, derivs)

    def parse_matrix(self, at: _Token) -> MatLit:
        self.expect("[")
        rows: list[tuple[Node, ...]] = []
        while True:
            row = [self.parse_sum()]
            while self.peek().kind == ",":
                self.next()
                row.append(self.parse_sum())
            rows.append(tuple(row))
            tok = self.peek()
            if tok.kind == ";":
                self.next()
                continue
            self.expect("]")
            break
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ParseError("matrix literal must be 3x3", at.line, at.col)
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


def _kind(v: Value) -> str:
    kind = _KINDS.get(type(v))
    if kind is None:
        raise EvalError(f"unsupported value {type(v).__name__}")
    return kind


def _to_coeff(v: Value, ctx: EvalContext) -> CoeffExpr:
    if isinstance(v, Scalar):
        return CoeffExpr.from_scalar(v, ctx.commutative)
    if isinstance(v, CoeffExpr):
        return v
    raise EvalError(f"cannot use a {_kind(v)} value as a coefficient")


def _to_form(v: Value, ctx: EvalContext) -> Form:
    if isinstance(v, Form):
        return v
    return coefficient_form(_to_coeff(v, ctx), ctx.n)


def _combine(op: str, a: Value, b: Value, ctx: EvalContext) -> Value:
    ka, kb = _kind(a), _kind(b)
    if op == "+":
        if ka == kb == "scalar":
            return a + b
        if {ka, kb} <= {"scalar", "coeff"}:
            return _to_coeff(a, ctx) + _to_coeff(b, ctx)
        if {ka, kb} <= {"scalar", "coeff", "form"}:
            return _to_form(a, ctx) + _to_form(b, ctx)
        if ka == kb:
            return a + b
        raise EvalError(f"cannot add a {ka} value and a {kb} value")
    # product; every value kind scales by a scalar the same way
    if ka == kb == "scalar":
        return a * b
    if ka == "scalar":
        return b.scale(a)
    if kb == "scalar":
        return a.scale(b)
    if ka == kb and ka != "conj":
        return a * b
    if {ka, kb} <= {"coeff", "form"}:
        return _to_form(a, ctx) * _to_form(b, ctx)
    raise EvalError(f"cannot multiply a {ka} value and a {kb} value")


def evaluate(node: Node, ctx: EvalContext) -> Value:
    """Evaluate an AST to a normalized algebra value."""
    if isinstance(node, Lit):
        return scalar(node.value)
    if isinstance(node, JLit):
        return jpow(node.power)
    if isinstance(node, Sym):
        try:
            sym = JetSymbol(node.name, node.index, node.derivs, node.barred)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc
        return CoeffExpr.from_symbol(sym, ctx.commutative)
    if isinstance(node, Gen):
        if not 1 <= node.index <= ctx.n:
            raise EvalError(
                f"generator index {node.index} out of range 1..{ctx.n}"
            )
        if node.kind == "dx":
            return dx(node.index, ctx.n, ctx.commutative)
        if node.kind == "ddx":
            return ddx(node.index, ctx.n, ctx.commutative)
        raise EvalError(
            "conjugate-side generators are built with delta(...), not directly"
        )
    if isinstance(node, Theta):
        if not 1 <= node.index <= ctx.n:
            raise EvalError(
                f"Grassmann index {node.index} out of range 1..{ctx.n}"
            )
        return GrassElement.word(ctx.n, ((node.kind, node.index),))
    if isinstance(node, DApply):
        v = evaluate(node.arg, ctx)
        k = _kind(v)
        if k == "matrix":
            return eta_differential(v)
        if k == "grass":
            raise EvalError("the differential does not act on Grassmann values")
        if k == "conj":
            return v.scale(ZERO)  # d delta = 0
        return _to_form(v, ctx).d()
    if isinstance(node, DIdx):
        v = evaluate(node.arg, ctx)
        if not 1 <= node.index <= ctx.n:
            raise EvalError(f"derivative index {node.index} out of range 1..{ctx.n}")
        return _to_coeff(v, ctx).derive(node.index)
    if isinstance(node, DeltaApply):
        v = evaluate(node.arg, ctx)
        if _kind(v) == "conj":
            raise EvalError("delta applies to degree-3 forms, not conjugate values")
        form = _to_form(v, ctx)
        try:
            return conjugate_form(form)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc
    if isinstance(node, Prod):
        acc = evaluate(node.factors[0], ctx)
        for factor in node.factors[1:]:
            acc = _combine("*", acc, evaluate(factor, ctx), ctx)
        return acc
    if isinstance(node, Sum):
        acc: Value | None = None
        for sign, term in node.terms:
            v = evaluate(term, ctx)
            if sign == "-":
                v = _combine("*", scalar(-1), v, ctx)
            acc = v if acc is None else _combine("+", acc, v, ctx)
        assert acc is not None
        return acc
    if isinstance(node, MatLit):
        entries = []
        for row in node.rows:
            out_row = []
            for cell in row:
                v = evaluate(cell, ctx)
                if not isinstance(v, Scalar):
                    raise EvalError("matrix entries must be scalars")
                out_row.append(v)
            entries.append(out_row)
        return GradedMatrix.from_rows(entries)
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
