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
-2^2 == -(2^2). There is no implicit multiplication, every constant
must be finite, and nesting stops at MAX_DEPTH levels.

Each expression is compiled once, when it is built, into a closure of
numpy ufuncs. Evaluation works on scalars and numpy arrays alike and
raises DomainError when any intermediate stops being finite. With a
finite input and finite constants, that happens only through an
overflow, an invalid operation or a division by zero, so one
floating-point error state around the whole evaluation replaces a check
at every node. derivative() gives d/du as another Expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, Overflow, ParseError

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

# parse refuses a syntax tree deeper than MAX_DEPTH levels, and more than
# MAX_DEPTH open parentheses, calls, minus signs and powers. The parser takes
# up to 5 frames per open level, compiling and evaluating one per tree level,
# and derivative() makes a tree up to about three times as deep (u^u^...^u,
# u/(u/(...))), so the deepest expression admitted and its derivative stay
# well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


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
    """An immutable parsed expression closed over a single variable,
    compiled when built; a constant that is not finite raises ValueError."""

    root: Node
    var_name: str
    _compiled: Callable = field(init=False, repr=False, compare=False, default=None)
    _derivative: Optional["Expression"] = field(init=False, repr=False, compare=False,
                                                default=None)

    def __post_init__(self):
        object.__setattr__(self, "_compiled", _compile(self.root))

    def __call__(self, x):
        """The value at x, a scalar (returned as float) or an array.

        Raises DomainError when x is not finite or an intermediate is not:
        Overflow, a DomainError, when a value exceeds the float range.
        """
        arr = np.asarray(x)
        # nan^0 and 1^nan are 1 and raise no flag: check the input itself
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise DomainError(f"{self.var_name} is not finite")
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                out = np.asarray(self._compiled(arr))
        except FloatingPointError as exc:
            kind = Overflow if str(exc).startswith("overflow") else DomainError
            raise kind(str(exc)) from None
        if arr.ndim == 0:
            return float(out)
        if out is arr or out.shape != arr.shape:
            # the input itself, or a constant: return a fresh array
            return np.array(np.broadcast_to(out, arr.shape))
        return out

    def derivative(self) -> "Expression":
        """d/d(var) as an Expression, built on the first call and kept.

        A power with an exponent free of the variable uses
        c g^(c-1) g', so u^2 has the derivative 2*u, finite at 0. Where the
        derivative is not finite (sqrt(u) at 0) it raises DomainError like
        any other expression.
        """
        if self._derivative is None:
            object.__setattr__(self, "_derivative", Expression(_diff(self.root), self.var_name))
        return self._derivative

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
    """Recursive descent; each rule returns its node and the node's depth."""

    def __init__(self, tokens, var_name):
        self.tokens = tokens
        self.var_name = var_name
        self.i = 0
        self.open = 0

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
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"stray token {tok.text!r}", tok.pos)
        return node

    def deeper(self, tok, *depths):
        """One level above the deepest of depths, refused past MAX_DEPTH."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply", tok.pos)
        return depth

    def expr(self):
        node, depth = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            right, right_depth = self.term()
            node, depth = BinOp(tok.text, node, right), self.deeper(tok, depth, right_depth)
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, right_depth = self.unary()
            node, depth = BinOp(tok.text, node, right), self.deeper(tok, depth, right_depth)
        return node, depth

    def unary(self):
        # every open parenthesis, call, minus sign and power passes here
        tok = self.peek()
        self.open = self.deeper(tok, self.open)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand, depth = self.unary()
            node, depth = Neg(operand), self.deeper(tok, depth)
        else:
            node, depth = self.power()
        self.open -= 1
        return node, depth

    def power(self):
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right associative; exponent may carry its own unary minus
            exponent, exponent_depth = self.unary()
            return BinOp("^", base, exponent), self.deeper(tok, depth, exponent_depth)
        return base, depth

    def atom(self):
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"constant {tok.text!r} is not finite", tok.pos)
            return Num(value), 1
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                inner, depth = self.expr()
                self.expect_op(")")
                return Call(tok.text, inner), self.deeper(tok, depth)
            if self.peek().kind == "op" and self.peek().text == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.pos)
            if tok.text != self.var_name:
                raise ParseError(
                    f"unknown variable {tok.text!r}; expected {self.var_name!r}", tok.pos
                )
            return Var(tok.text), 1
        if tok.kind == "op" and tok.text == "(":
            inner, depth = self.expr()
            self.expect_op(")")
            return inner, depth
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str, var_name: str = "u") -> Expression:
    """Parse expression text closed over ``var_name``.

    Raises ParseError (with character offset) on malformed input, unknown
    functions, a variable other than ``var_name``, a constant that is
    not finite (1e999), or nesting past MAX_DEPTH.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", var_name) or var_name in FUNCTIONS:
        raise ValueError(f"invalid variable name {var_name!r}")
    tokens = _tokenize(text)
    return Expression(_Parser(tokens, var_name).parse(), var_name)


def _compile(node) -> Callable:
    """node as a closure x -> value, dispatched on the node type once.

    Only numpy ufuncs touch the values, so the caller's error state sees
    every overflow, invalid operation and division by zero; that holds for
    finite constants only, so a tree with any other constant is refused.
    """
    if isinstance(node, Num):
        value = node.value
        if not math.isfinite(value):
            raise ValueError(f"constant {value!r} is not finite")
        return lambda x: value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        inner = _compile(node.operand)
        return lambda x: -inner(x)
    if isinstance(node, BinOp):
        op, left, right = _BINARY[node.op], _compile(node.left), _compile(node.right)
        return lambda x: op(left(x), right(x))
    fn, inner = FUNCTIONS[node.name], _compile(node.operand)
    return lambda x: fn(inner(x))


# ---------------------------------------------------------------------------
# symbolic derivative

_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)


def _has_var(node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Num):
        return False
    if isinstance(node, BinOp):
        return _has_var(node.left) or _has_var(node.right)
    return _has_var(node.operand)


def _diff(node):
    """d/du of node; a subtree free of the variable has derivative 0."""
    if not _has_var(node):
        return _ZERO
    if isinstance(node, Var):
        return _ONE
    if isinstance(node, Neg):
        return _neg(_diff(node.operand))
    if isinstance(node, Call):
        g, dg = node.operand, _diff(node.operand)
        if node.name == "log":
            return _div(dg, g)
        if node.name == "sqrt":
            return _div(dg, _mul(_TWO, node))
        outer = {
            "exp": node,
            "sin": Call("cos", g),
            "cos": _neg(Call("sin", g)),
            "abs": _div(g, node),
        }[node.name]
        return _mul(outer, dg)
    g, h = node.left, node.right
    dg, dh = _diff(g), _diff(h)
    if node.op == "+":
        return _add(dg, dh)
    if node.op == "-":
        return _sub(dg, dh)
    if node.op == "*":
        return _add(_mul(dg, h), _mul(g, dh))
    if node.op == "/":
        # (g' - (g/h) h') / h: no h^2 to overflow
        return _div(_sub(dg, _mul(node, dh)), h)
    if not _has_var(h):
        # c g^(c-1) g'; the general rule's log g fails at g = 0
        c_minus_one = Num(h.value - 1.0) if isinstance(h, Num) else BinOp("-", h, _ONE)
        return _mul(_mul(h, _pow(g, c_minus_one)), dg)
    return _mul(node, _add(_mul(dh, Call("log", g)), _mul(h, _div(dg, g))))


# constructors that drop the identities x+0, x*1, x*0, x/1, x^1, x^0


def _is(node, value) -> bool:
    return isinstance(node, Num) and node.value == value


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    return a.operand if isinstance(a, Neg) else Neg(a)


def _add(a, b):
    if _is(a, 0.0):
        return b
    return a if _is(b, 0.0) else BinOp("+", a, b)


def _sub(a, b):
    if _is(b, 0.0):
        return a
    return _neg(b) if _is(a, 0.0) else BinOp("-", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    return a if _is(b, 1.0) else BinOp("*", a, b)


def _div(a, b):
    if _is(a, 0.0):
        return _ZERO
    return a if _is(b, 1.0) else BinOp("/", a, b)


def _pow(a, b):
    if _is(b, 0.0):
        return _ONE
    return a if _is(b, 1.0) else BinOp("^", a, b)


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
