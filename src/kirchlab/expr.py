"""Closed-form coefficient expressions: parsing and evaluation on node arrays.

Grammar (ASCII; Unicode whitespace separates tokens): decimal literals,
variables x and y, constants pi and e, binary + - * / ^, unary minus, and
the calls sin cos exp log sqrt abs tanh.  Precedence, tightest first:

    ^  (right associative)
    unary -
    *  /   (left)
    +  -   (left)

so "-x^2" is -(x^2) while "2^-3" still parses (the exponent starts a fresh
prefix expression).  Every syntax error carries the byte offset it was
detected at.

One evaluator walks the tree once per call and applies each node as one
numpy operation to whole coordinate arrays that broadcast against each other;
`eval_field` runs it on the grid's row of x values and column of y values, so
a subtree of x alone costs nx values, one of y alone ny and a constant one.
Values leaving the reals (log of a value <= 0, sqrt of a value < 0, division
by zero, zero to a negative power, a non-finite power, a non-finite function
value from a finite argument) raise ValueError naming the first failing node
in row-major order.  An overflow in + - * / is not checked here; ScalarField
rejects the non-finite field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .grid import Grid, KirchlabError, ScalarField


class ExprError(KirchlabError):
    """Parse error with the byte offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


# --- syntax tree ----------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x", "y", "pi" or "e"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
}
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("x", "y")

_ADD_BP = 10
_MUL_BP = 20
_NEG_BP = 30
_POW_BP = 40


# one token after optional (Unicode) whitespace; the grammar itself is ASCII
_TOKEN = re.compile(r"""\s*(?:
      (?P<num>(?:[0-9]|\.[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\))
    | (?P<end>\Z) | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


def _tokenize(src: str):
    """Yield (kind, text, offset); kinds: num, ident, op, lparen, rparen, end."""
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text, offset = m[kind], m.start(kind)
        if kind == "bad":
            raise ExprError(f"unexpected character {text!r}", offset)
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ExprError(f"malformed number {text!r}", offset) from None
        yield kind, text, offset
        if kind == "end":
            return


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = list(_tokenize(src))
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_rparen(self, open_offset: int):
        kind, _, off = self.cur
        if kind != "rparen":
            raise ExprError(f"missing ')' for '(' at offset {open_offset}", off)
        self.advance()

    def parse(self) -> Expr:
        tree = self.expression(0)
        kind, text, off = self.cur
        if kind == "rparen":
            raise ExprError("')' without matching '('", off)
        if kind != "end":
            raise ExprError(f"trailing input {text!r}", off)
        return tree

    def expression(self, min_bp: int) -> Expr:
        left = self.prefix()
        while True:
            kind, text, _ = self.cur
            if kind != "op":
                break
            lbp = _POW_BP if text == "^" else (_MUL_BP if text in "*/" else _ADD_BP)
            if lbp <= min_bp:
                break
            self.advance()
            # ^ recurses one level looser than itself, making it right-assoc
            right = self.expression(lbp - 1 if text == "^" else lbp)
            left = BinOp(text, left, right)
        return left

    def prefix(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.cur[0] == "lparen":
                if text not in FUNCTIONS:
                    raise ExprError(f"unknown function {text!r}", off)
                open_off = self.cur[2]
                self.advance()
                arg = self.expression(0)
                self.expect_rparen(open_off)
                return Call(text, arg)
            if text in VARIABLES or text in CONSTANTS:
                return Var(text)
            raise ExprError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "-":
            return Neg(self.expression(_NEG_BP))
        if kind == "lparen":
            inner = self.expression(0)
            self.expect_rparen(off)
            return inner
        if kind == "rparen":
            raise ExprError("')' without matching '('", off)
        if kind == "end":
            raise ExprError("unexpected end of input", off)
        raise ExprError(f"unexpected token {text!r}", off)


def parse(src: str) -> Expr:
    """Parse a coefficient expression; raises ExprError on bad input."""
    if not src.strip():
        raise ExprError("empty expression", 0)
    return _Parser(src).parse()


def _evaluate(expr: Expr, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate on coordinate arrays that broadcast to the node shape, one numpy
    operation per tree node; each node's value keeps the shape of its operands'
    broadcast, and the result is broadcast to the full node shape.

    Raises ValueError when the value leaves the reals at some node.  The
    message names the first such node in row-major order of the node shape
    and the reason found first there, checks taken in the order of a
    depth-first, left-to-right walk (operands before the operation that uses
    them).
    """
    shape = np.broadcast_shapes(x.shape, y.shape)
    failures = []
    with np.errstate(all="ignore"):
        values = _walk(expr, x, y, failures)
    if failures:
        k = min(int(np.argmax(np.broadcast_to(mask, shape))) for mask, _ in failures)
        node = np.unravel_index(k, shape)

        def at(v):
            return np.broadcast_to(v, shape)[node]

        reason = next(message(at) for mask, message in failures if at(mask))
        raise ValueError(f"{reason} at node ({at(x):.17g}, {at(y):.17g})")
    return np.broadcast_to(values, shape)


def _check(failures: list, mask: np.ndarray, message) -> None:
    """Record the nodes where a domain check fails; message(at) names the reason
    at the failing node, at(v) giving the value there of an operand v."""
    if mask.any():
        failures.append((mask, message))


def _walk(expr: Expr, x: np.ndarray, y: np.ndarray, failures: list) -> np.ndarray:
    if isinstance(expr, Num):
        return np.array(expr.value)
    if isinstance(expr, Var):
        if expr.name == "x":
            return x
        if expr.name == "y":
            return y
        return np.array(CONSTANTS[expr.name])
    if isinstance(expr, Neg):
        return -_walk(expr.arg, x, y, failures)
    if isinstance(expr, Call):
        v = _walk(expr.arg, x, y, failures)
        if expr.fn == "log":
            _check(failures, v <= 0.0, lambda at: f"log of non-positive value {at(v):.6g}")
        if expr.fn == "sqrt":
            _check(failures, v < 0.0, lambda at: f"sqrt of negative value {at(v):.6g}")
        r = FUNCTIONS[expr.fn](v)
        _check(failures, np.isfinite(v) & ~np.isfinite(r),
               lambda at: f"{expr.fn} overflow at argument {at(v):.6g}")
        return r
    if isinstance(expr, BinOp):
        a = _walk(expr.left, x, y, failures)
        b = _walk(expr.right, x, y, failures)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            _check(failures, b == 0.0, lambda at: "division by zero")
            return a / b
        # power: a negative base with a non-integer exponent gives nan
        _check(failures, (a == 0.0) & (b < 0.0), lambda at: "zero raised to a negative power")
        r = np.power(a, b)
        _check(failures, ~np.isfinite(r),
               lambda at: f"power {at(a):.6g}^{at(b):.6g} is not a finite real")
        return r
    raise TypeError(f"not an expression node: {expr!r}")


def eval_field(expr: Expr, grid: Grid) -> ScalarField:
    """Sample the expression at every interior node center.

    Evaluated on the (1, nx) row of x values and the (ny, 1) column of y
    values.  A ValueError names the first failing node in row-major order.
    """
    X, Y = grid.node_coords()
    return ScalarField(grid, _evaluate(expr, X[:1, :], Y[:, :1]))

