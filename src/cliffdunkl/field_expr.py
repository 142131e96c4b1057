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
minus parses to `Neg`.  `compile_expr` also splits a product-form
expression into one-coordinate factors, which explicit translation runs
one axis at a time.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property

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
    """Callable (x1, ..., xd) -> array, tagged with the source text as
    `expr_text` and, where the expression is a sum of products of
    one-coordinate factors, with that sum as `split`, else None (`_Compiled`).

    `split` is a list of terms (c, factors): a float c and a tuple of d
    one-coordinate callables x_j -> array, None for a factor that is 1, so
    that the body is sum_t c_t prod_j factor_{t,j}(x_j) up to rounding.
    A factor node that several terms share, such as the exp of a product
    with a sum, is one callable.  Products, quotients by a single term and
    integer powers of a single term split, as does exp of a sum of
    one-coordinate terms; a product with a sum expands into terms.  A sum
    under a power or a quotient, exp of a term that couples coordinates
    (exp(x1*x2)), more than `_SPLIT_TERMS` terms or a constant part that
    is not a normal float leave it None.
    """
    return _Compiled(parse_expr(text, d), text, d)


class _Compiled:
    """A compiled expression.  Its `split` is found on first read, as only
    explicit translation reads it, and is None where the expression does
    not split."""

    def __init__(self, ast, text: str, d: int):
        self.ast, self.expr_text, self.d = ast, text, d

    def __call__(self, *xs):
        return eval_expr(self.ast, xs)

    @cached_property
    def split(self):
        try:
            terms = _split(self.ast)
        except RecursionError:  # a chain deeper than the evaluator goes, too
            return None
        if terms is None:
            return None
        factors = {}  # by node identity: hashing a node walks all of it
        return [(c, tuple(None if j not in fs else factors.setdefault(id(fs[j]), _factor(fs[j], self.d))
                          for j in range(1, self.d + 1))) for c, fs in terms]


_SPLIT_TERMS = 64  # most terms a split may hold; a longer expansion keeps the whole body


def _factor(node, d: int):
    """The one-coordinate node as a callable of its coordinate's array."""
    def factor(x):
        return eval_expr(node, (x,) * d)

    return factor


def _split(node):
    """[(c, {j: node})]: node as sum_t c_t prod_j node_{t,j}, each
    node_{t,j} reading x_j alone, or None where `compile_expr` says it does
    not split.  A node reading at most one coordinate is its own factor,
    or a constant term."""
    if isinstance(node, Const):
        return [(float(node.value), {})]
    if isinstance(node, Coord):
        return [(1.0, {node.j: node})]
    if isinstance(node, (Exp, Neg)):
        kids = [_split(node.arg)]
    elif isinstance(node, Pow):
        kids = [_split(node.base)]
    else:
        kids = [_split(node.left), _split(node.right)]
    if any(kid is None for kid in kids):
        return None
    read = {j for kid in kids for _, fs in kid for j in fs}
    if not read:
        try:
            return [(float(eval_expr(node, ())), {})]
        except NonFiniteResult:
            return None
    if len(read) == 1:
        return [(1.0, {read.pop(): node})]
    try:
        terms = _combine(node, kids)
    except OverflowError:
        return None
    if terms is None or len(terms) > _SPLIT_TERMS or not all(math.isfinite(c) for c, _ in terms):
        return None
    return terms


def _combine(node, kids):
    """The terms of a node reading several coordinates from its children's."""
    if isinstance(node, Neg):
        return [(-c, fs) for c, fs in kids[0]]
    if isinstance(node, (Add, Sub)):
        sign = 1.0 if isinstance(node, Add) else -1.0
        return kids[0] + [(sign * c, fs) for c, fs in kids[1]]
    if isinstance(node, Mul):
        return [(ca * cb, _merge(Mul, fa, fb)) for ca, fa in kids[0] for cb, fb in kids[1]]
    if isinstance(node, Div):
        if len(kids[1]) != 1 or kids[1][0][0] == 0.0:
            return None
        cb, fb = kids[1][0]
        return [(ca / cb, _merge(Div, fa, fb)) for ca, fa in kids[0]]
    if isinstance(node, Pow):
        if len(kids[0]) != 1:
            return None
        c, fs = kids[0][0]
        return [(c ** node.n, {j: Pow(f, node.n) for j, f in fs.items()})]
    # Exp: a sum of constant and one-coordinate terms, exp(c0) prod_j exp(sum of x_j's terms)
    if any(len(fs) > 1 for _, fs in kids[0]):
        return None
    c0 = math.fsum(c for c, fs in kids[0] if not fs)
    scale = math.exp(c0)
    if not sys.float_info.min <= scale < math.inf:
        return None
    args = {}
    for c, fs in kids[0]:
        for j, f in fs.items():
            f = f if c == 1.0 else Mul(Const(c), f)
            args[j] = Add(args[j], f) if j in args else f
    return [(scale, {j: Exp(arg) for j, arg in args.items()})]


def _merge(op, fa: dict, fb: dict) -> dict:
    """Factors of a product (op Mul) or quotient (op Div) of two terms."""
    out = dict(fa)
    for j, f in fb.items():
        out[j] = op(fa[j], f) if j in fa else (f if op is Mul else Div(Const(1.0), f))
    return out
