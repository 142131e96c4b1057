"""Tiny arithmetic-expression language for analytic field components.

Grammar (single-token lookahead, left-associative):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" uint)?
    atom   := number | "x"uint | "exp" "(" expr ")" | "(" expr ")" | "-" atom

Deliberately small: every field the harness needs is a polynomial times a
Gaussian, and a grammar this size can be tested exhaustively.  Numbers are
decimal with an optional exponent; no hex, no underscores.  Note "^" binds
the whole preceding atom, so "-x1^2" is (-x1)^2 -- unary minus lives in
`atom`, below the power.  Literals are stored nonnegative: a leading
minus parses to `Neg`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Const", "Coord", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Neg",
    "ExprSyntaxError", "UnknownCoordinate", "DepthExceeded", "NonFiniteResult",
    "parse_expr", "eval_expr", "compile_expr", "MAX_DEPTH",
]

MAX_DEPTH = 64  # nesting bound; also caps parser recursion on hostile input


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownCoordinate(ValueError):
    def __init__(self, j: int, d: int, offset: int):
        super().__init__(f"coordinate x{j} out of range 1..{d} (byte {offset})")
        self.offset = offset


class DepthExceeded(ValueError):
    pass


class NonFiniteResult(ArithmeticError):
    pass


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    j: int  # 1-based


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("exponent must be >= 0")


@dataclass(frozen=True)
class Exp:
    arg: object


@dataclass(frozen=True)
class Neg:
    arg: object


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _tokenize(text: str):
    """(kind, value, offset) triples; kinds: num, coord, exp, op, end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            name = m.group()
            if name == "exp":
                tokens.append(("exp", name, i))
            elif name[0] == "x" and name[1:].isdigit():
                tokens.append(("coord", int(name[1:]), i))
            else:
                raise ExprSyntaxError(f"unknown name {name!r}", i)
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, d: int):
        self.tokens = _tokenize(text)
        self.d = d
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise DepthExceeded(f"expression nests deeper than {MAX_DEPTH}")
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        self.depth -= 1
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, value, offset = self.take()
            if kind != "num" or not value.isdigit():
                raise ExprSyntaxError("expected a nonnegative integer exponent", offset)
            node = Pow(node, int(value))
        return node

    def atom(self):
        kind, value, offset = self.take()
        if kind == "num":
            return Const(float(value))
        if kind == "coord":
            if not 1 <= value <= self.d:
                raise UnknownCoordinate(value, self.d, offset)
            return Coord(value)
        if kind == "exp":
            self.expect("(")
            node = Exp(self.expr())
            self.expect(")")
            return node
        if (kind, value) == ("op", "("):
            node = self.expr()
            self.expect(")")
            return node
        if (kind, value) == ("op", "-"):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise DepthExceeded(f"expression nests deeper than {MAX_DEPTH}")
            node = Neg(self.atom())
            self.depth -= 1
            return node
        raise ExprSyntaxError(f"unexpected {value!r}" if value else "unexpected end of input", offset)

    def expect(self, op: str):
        kind, value, offset = self.take()
        if (kind, value) != ("op", op):
            raise ExprSyntaxError(f"expected {op!r}", offset)


def parse_expr(text: str, d: int) -> object:
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(text, d)
    node = p.expr()
    kind, value, offset = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {value!r}", offset)
    return node


def eval_expr(ast, xs) -> np.ndarray:
    """Evaluate with each coordinate a scalar or broadcastable array.

    Division by zero and non-finite results raise NonFiniteResult; x^0 is 1
    everywhere, including at 0.
    """
    out = _eval(ast, tuple(np.asarray(x, dtype=float) for x in xs))[0]
    if not np.all(np.isfinite(out)):
        raise NonFiniteResult("expression produced a non-finite value")
    return out


_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply}


def _eval(node, xs) -> tuple:
    """(value, owned): owned when the evaluator created the array itself, so
    that a later operation may write into it.  Each operation writes into an
    owned operand of the result's shape (ufunc `out=`), so a call allocates
    about one array per branch of the tree, not one per node; the values
    are those of the plain operators."""
    if isinstance(node, Const):
        return np.asarray(node.value), False
    if isinstance(node, Coord):
        return xs[node.j - 1], False
    if isinstance(node, Div):
        denom = _eval(node.right, xs)
        if np.any(denom[0] == 0.0):
            raise NonFiniteResult("division by zero")
        return _binary(np.divide, _eval(node.left, xs), denom)
    if isinstance(node, (Add, Sub, Mul)):
        return _binary(_UFUNCS[type(node)], _eval(node.left, xs), _eval(node.right, xs))
    if isinstance(node, Pow):
        base, owned = _eval(node.base, xs)
        if node.n == 0:
            return _owned(np.ones_like(np.asarray(base, dtype=float)))
        if not owned:
            return _owned(base ** node.n)
        if node.n == 2:  # numpy's own fast path for ** 2, to the same values
            return np.square(base, out=base), True
        return np.power(base, node.n, out=base), True
    if isinstance(node, Exp):
        with np.errstate(over="ignore"):
            return _unary(np.exp, _eval(node.arg, xs))
    if isinstance(node, Neg):
        return _unary(np.negative, _eval(node.arg, xs))
    raise TypeError(f"not an expression node: {node!r}")


def _binary(ufunc, left: tuple, right: tuple) -> tuple:
    """ufunc over two (value, owned) operands, written into the first owned
    one whose shape is the result's."""
    (a, own_a), (b, own_b) = left, right
    if own_a and _holds(a, b):
        return ufunc(a, b, out=a), True
    if own_b and _holds(b, a):
        return ufunc(a, b, out=b), True
    return _owned(ufunc(a, b))


def _holds(a, b) -> bool:
    """Whether a has the shape of a result broadcast from a and b."""
    return b.ndim == 0 or a.shape == b.shape or a.shape == np.broadcast(a, b).shape


def _unary(ufunc, arg: tuple) -> tuple:
    a, owned = arg
    return (ufunc(a, out=a), True) if owned else _owned(ufunc(a))


def _owned(value) -> tuple:
    """(value, owned) for a fresh result; a 0-d one is not reused, so that
    scalars stay numpy scalars as the plain operators leave them."""
    return value, isinstance(value, np.ndarray) and value.ndim > 0


def compile_expr(text: str, d: int):
    """Callable (x1, ..., xd) -> array, tagged with the source text."""
    ast = parse_expr(text, d)

    def body(*xs):
        return eval_expr(ast, xs)

    body.expr_text = text
    return body
