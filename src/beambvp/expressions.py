"""Parsing and evaluation of univariate arithmetic expressions.

User-supplied nonlinearities f(u) and boundary weights a(t) are given as
text and parsed into immutable syntax trees. The grammar:

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "exp" | "sin" | "cos" | "sqrt" | "log" | "abs"

"^" is right associative and binds tighter than unary minus, so
-2^2 == -(2^2). There is no implicit multiplication. Evaluation works on
scalars and numpy arrays alike and raises DomainError as soon as any
intermediate stops being finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ParseError

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "log": np.log,
    "abs": np.abs,
}

_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    operand: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class Expression:
    """An immutable parsed expression closed over a single variable."""

    root: Node
    var_name: str

    def __call__(self, x):
        arr = np.asarray(x)
        out = np.asarray(_eval(self.root, arr))
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape)
        if arr.ndim == 0:
            return float(out)
        return np.array(out, copy=True)

    def __str__(self):
        return _render(self.root)


_TOKEN_RE = re.compile(
    r"""(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, var_name):
        self.tokens = tokens
        self.var_name = var_name
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"stray token {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right associative; exponent may carry its own unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Call(tok.text, inner)
            if self.peek().kind == "op" and self.peek().text == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.pos)
            if tok.text != self.var_name:
                raise ParseError(
                    f"unknown variable {tok.text!r}; expected {self.var_name!r}", tok.pos
                )
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str, var_name: str = "u") -> Expression:
    """Parse expression text closed over ``var_name``.

    Raises ParseError (with character offset) on malformed input, unknown
    functions, or a variable other than ``var_name``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", var_name) or var_name in FUNCTIONS:
        raise ValueError(f"invalid variable name {var_name!r}")
    tokens = _tokenize(text)
    return Expression(_Parser(tokens, var_name).parse(), var_name)


def _check_finite(value, what):
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{what!r} produced a non-finite value")


def _eval(node, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x)
    if isinstance(node, BinOp):
        left = _eval(node.left, x)
        right = _eval(node.right, x)
        with np.errstate(all="ignore"):
            value = _BINARY[node.op](left, right)
        _check_finite(value, node.op)
        return value
    with np.errstate(all="ignore"):
        value = FUNCTIONS[node.name](_eval(node.operand, x))
    _check_finite(value, node.name)
    return value


def _render(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_render(node.operand)})"
    if isinstance(node, BinOp):
        return f"({_render(node.left)}{node.op}{_render(node.right)})"
    return f"{node.name}({_render(node.operand)})"
