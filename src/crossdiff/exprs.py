"""Symbolic expressions over the model variables (x, y, t, u, v).

A small closed language used for coefficients, reaction terms, initial data
and manufactured solutions: floating constants, the five variables, unary
neg / exp / ln / sqrt / abs / sign / sin / cos, and binary + - * / ^ where
the exponent must fold to a constant.  Restricting exponents keeps the
language closed under differentiation and pins the degenerate-diffusion
convention u^c = 0 at u = 0 for c > 0 and u^0 = 1.

Nodes are built through the module-level constructors (add, mul, pow_, ...)
which fold constant subtrees and prune algebraic identities (0 + e, 1 * e,
e ^ 1, ...).  parse(), differentiate() and substitute() build nodes only
through those constructors, so ``parse(to_string(e)) == e`` holds
structurally for every expression the library produces.

Each operator is one row of _UNARY or _BINARY, which holds its fold on a
constant (for a binary op, its folding constructor and printed symbol), its
numpy evaluation with its domain rule, and its derivative rule.  FUNCTIONS,
the parser, the printer, the compiler, differentiate() and substitute() all
read the tables: a new operator is one row, plus its entry in
docs/expression-grammar.md.

compile() turns an expression into a Program, run on a bindings mapping,
with one slot per distinct subexpression: each is evaluated once per call,
in left-to-right post-order, so a domain error names the first failing
node in that order.  A constant expression evaluates to a Python float.
Compile once and call the Program to evaluate an expression repeatedly;
evaluate() compiles on every call.  A call binds every variable the
program reads: the simulation runs its manufactured forcings once per
block of step times, on the grid's axes and t a column of the times.

Grammar (also in docs/expression-grammar.md)::

    expr    = term , { ("+" | "-") , term } ;
    term    = factor , { ("*" | "/") , factor } ;
    factor  = "-" , factor | power ;
    power   = atom , [ "^" , factor ] ;          (* right associative *)
    atom    = NUMBER | "pi" | VARIABLE | FUNCTION , "(" , expr , ")"
            | "(" , expr , ")" ;

so ^ binds tighter than unary minus: ``-u^2`` is ``-(u^2)``.
"""

from __future__ import annotations

import contextlib
import math
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

VARIABLES = ("x", "y", "t", "u", "v")

Scalar = Union[float, np.ndarray]


class ExpressionError(ValueError):
    """Base class for expression failures."""


class ParseError(ExpressionError):
    """Syntax failure; ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ExpressionError):
    """Domain or binding failure, carrying the offending node."""

    def __init__(self, reason: str, node: "Expr"):
        super().__init__(f"{reason} in '{to_string(node)}'")
        self.node = node


class Expr:
    """Immutable expression node; arithmetic operators build folded nodes."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return pow_(self, _coerce(other))

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ExpressionError("constants must be finite")


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if self.name not in VARIABLES:
            raise ExpressionError(f"unknown variable '{self.name}'")


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str
    arg: Expr

    def __post_init__(self):
        if self.op not in _UNARY:
            raise ExpressionError(f"unknown unary op '{self.op}'")


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in _BINARY:
            raise ExpressionError(f"unknown binary op '{self.op}'")
        if self.op == "pow" and not isinstance(self.rhs, Const):
            raise ExpressionError("exponent must be a constant")


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot treat {value!r} as an expression")


# ---------------------------------------------------------------------------
# folding constructors


def _const_value(e: Expr):
    return e.value if isinstance(e, Const) else None


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None and math.isfinite(ca + cb):
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None and math.isfinite(ca - cb):
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None and math.isfinite(ca * cb):
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None and cb != 0.0 and math.isfinite(ca / cb):
        return Const(ca / cb)
    if ca == 0.0 and cb != 0.0:
        return Const(0.0)
    if cb == 1.0:
        return a
    return Binary("div", a, b)


def pow_(base: Expr, exponent: Expr) -> Expr:
    exponent = _coerce(exponent)
    if not isinstance(exponent, Const):
        raise ExpressionError("exponent must be a constant")
    c = exponent.value
    if c == 0.0:
        return Const(1.0)  # includes 0^0 = 1 by convention
    if c == 1.0:
        return base
    cb = _const_value(base)
    if cb is not None:
        try:
            r = cb ** c
        except (ValueError, OverflowError, ZeroDivisionError):
            r = None
        if isinstance(r, float) and math.isfinite(r):
            return Const(r)
    return Binary("pow", base, exponent)


# ---------------------------------------------------------------------------
# the operator tables

def _ln(x, _, node):
    if np.any(x <= 0.0):
        raise EvalError("ln of a non-positive value", node)
    return np.log(x)


def _sqrt(x, _, node):
    if np.any(x < 0.0):
        raise EvalError("sqrt of a negative value", node)
    return np.sqrt(x)


def _pow(x, c, node):
    if c < 0.0 and np.any(x == 0.0):
        raise EvalError("zero base with a negative exponent", node)
    if not float(c).is_integer() and np.any(x < 0.0):
        raise EvalError("negative base with a fractional exponent", node)
    return np.power(x, c)


def _div(x, y, node):
    if np.any(y == 0.0):
        raise EvalError("division by zero", node)
    return x / y


def _elementwise(f):
    """The evaluation of a unary op without a domain rule."""
    return lambda x, _, node: f(x)


# fold: the op on a constant's Python float; apply(x, _, node): the numpy
# operation of a node, raising on a domain failure; diff(a, da): the
# derivative of op(a) given a's derivative da
_UnaryOp = namedtuple("_UnaryOp", "fold apply diff")
# build: the folding constructor; symbol: as printed and parsed;
# apply(x, y, node) and diff(lhs, rhs, dlhs, drhs) as for a unary op
_BinaryOp = namedtuple("_BinaryOp", "build symbol apply diff")

_UNARY = {
    "neg": _UnaryOp(lambda c: -c, lambda x, _, node: -x,
                    lambda a, da: neg(da)),
    "exp": _UnaryOp(math.exp, _elementwise(np.exp),
                    lambda a, da: mul(da, exp(a))),
    "ln": _UnaryOp(math.log, _ln, lambda a, da: div(da, a)),
    "sqrt": _UnaryOp(math.sqrt, _sqrt,
                     lambda a, da: div(da, mul(Const(2.0), sqrt(a)))),
    "abs": _UnaryOp(abs, _elementwise(np.abs),
                    lambda a, da: mul(sign(a), da)),
    # sign differentiates to 0, its derivative almost everywhere
    "sign": _UnaryOp(lambda c: float(np.sign(c)), _elementwise(np.sign),
                     lambda a, da: Const(0.0)),
    "sin": _UnaryOp(math.sin, _elementwise(np.sin),
                    lambda a, da: mul(cos(a), da)),
    "cos": _UnaryOp(math.cos, _elementwise(np.cos),
                    lambda a, da: neg(mul(sin(a), da))),
}

_BINARY = {
    "add": _BinaryOp(add, "+", lambda x, y, node: x + y,
                     lambda l, r, dl, dr: add(dl, dr)),
    "sub": _BinaryOp(sub, "-", lambda x, y, node: x - y,
                     lambda l, r, dl, dr: sub(dl, dr)),
    "mul": _BinaryOp(mul, "*", lambda x, y, node: x * y,
                     lambda l, r, dl, dr: add(mul(dl, r), mul(l, dr))),
    "div": _BinaryOp(div, "/", _div, lambda l, r, dl, dr: div(
        sub(mul(dl, r), mul(l, dr)), pow_(r, Const(2.0)))),
    # the exponent r is a constant c: d(l^c) = c l^(c-1) dl
    "pow": _BinaryOp(pow_, "^", _pow, lambda l, r, dl, dr: mul(
        mul(r, pow_(l, Const(r.value - 1.0))), dl)),
}

FUNCTIONS = tuple(op for op in _UNARY if op != "neg")
# op -> its apply, as the compiled program runs it
_OPS = {op: row.apply for table in (_UNARY, _BINARY)
        for op, row in table.items()}
_BY_SYMBOL = {row.symbol: row.build for row in _BINARY.values()}


def _unary(op: str, arg: Expr) -> Expr:
    """op(arg), folded when arg is a constant whose image is finite."""
    if isinstance(arg, Const):
        try:
            folded = _UNARY[op].fold(arg.value)
        except (ValueError, OverflowError):
            folded = math.inf
        if math.isfinite(folded):
            return Const(folded)
    if op == "neg" and isinstance(arg, Unary) and arg.op == "neg":
        return arg.arg
    return Unary(op, arg)


def _constructor(op: str):
    def build(e: Expr) -> Expr:
        return _unary(op, e)
    build.__name__ = build.__qualname__ = op
    return build


# one constructor per row of _UNARY, in its order
neg, exp, ln, sqrt, abs_, sign, sin, cos = map(_constructor, _UNARY)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", offset)
        return self.advance()

    def parse_expr(self) -> Expr:
        return self.parse_left_assoc("+-", self.parse_term)

    def parse_term(self) -> Expr:
        return self.parse_left_assoc("*/", self.parse_factor)

    def parse_left_assoc(self, symbols: str, operand) -> Expr:
        e = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in symbols:
                return e
            self.advance()
            e = _BY_SYMBOL[text](e, operand())

    def parse_factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            _, _, exp_offset = self.peek()
            exponent = self.parse_factor()
            if not isinstance(exponent, Const):
                raise ParseError("exponent must fold to a constant", exp_offset)
            try:
                return pow_(base, exponent)
            except ExpressionError as err:
                raise ParseError(str(err), exp_offset) from None
        return base

    def parse_atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text == "pi":
                return Const(math.pi)
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return _unary(text, arg)
            raise ParseError(f"unknown identifier '{text}'", offset)
        if kind == "op" and text == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseError("expected a number, variable or '('", offset)


def parse(text: str) -> Expr:
    """Parse source text into an expression tree.

    Raises ParseError (with a byte offset) on malformed input, unknown
    identifiers and exponents that do not fold to a constant.
    """
    parser = _Parser(text)
    e = parser.parse_expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", offset)
    return e


# ---------------------------------------------------------------------------
# printing

def to_string(e: Expr) -> str:
    """Render with full parentheses; parse(to_string(e)) == e structurally."""
    if isinstance(e, Const):
        # negative literals, -0.0 among them, are parenthesized: "-2.0 ^ 0.5"
        # would rebind as -(2.0 ^ 0.5) since ^ is tighter than unary minus
        return f"({e.value!r})" if math.copysign(1.0, e.value) < 0.0 \
            else repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_string(e.arg)})"
        return f"{e.op}({to_string(e.arg)})"
    if isinstance(e, Binary):
        sym = _BINARY[e.op].symbol
        return f"({to_string(e.lhs)} {sym} {to_string(e.rhs)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

class Program:
    """Expressions compiled by compile(): call it on a bindings mapping for
    the value, or the tuple of values when a tuple was compiled.

    len() is the number of slots, one per distinct subtree.
    """

    __slots__ = ("_slots", "_code", "_result", "_has_ops")
    _BARE = contextlib.nullcontext()  # the context of a program of loads

    def __init__(self, slots: list, code: list, result):
        # code: (slot, op, a, b, node, dead), op None loading the variable
        # node.name; the empty list dead gets the slots that it reads last
        kept = set(result) if isinstance(result, tuple) else {result}
        last = {}
        for k, (_, op, a, b, _, _) in enumerate(code):
            if op is not None:
                last[a] = last[b] = k
        for read, k in last.items():
            if slots[read] is None and read not in kept:
                code[k][5].append(read)
        self._code = tuple(code)
        self._slots = slots  # constants filled in, others None
        self._result = result  # a slot, or a tuple of slots
        # only an op can warn: loads alone skip np.errstate
        self._has_ops = any(op is not None for _, op, _, _, _, _ in code)

    def __len__(self) -> int:
        return len(self._slots)

    def __call__(self, bindings: Mapping[str, Scalar]):
        s = self._slots.copy()
        if self._code:
            with np.errstate(all="ignore") if self._has_ops else self._BARE:
                for slot, op, a, b, node, dead in self._code:
                    if op is None:
                        try:
                            s[slot] = bindings[node.name]
                        except KeyError:
                            raise EvalError(f"unbound variable '{node.name}'",
                                            node) from None
                    else:
                        s[slot] = op(s[a], s[b], node)
                    for d in dead:
                        s[d] = None
        # a result tuple is built from a list: one from a generator is resized
        r = self._result
        return tuple([s[k] for k in r]) if isinstance(r, tuple) else s[r]


def compile(e: Union[Expr, tuple, Program]) -> Program:
    """Compile e, an expression or a tuple of them, into a Program with one
    slot per distinct subtree; a Program is returned as it is.

    Structurally equal subtrees share a slot, also across the expressions
    of a tuple, so each is evaluated once per call.  The instructions run
    in the left-to-right post-order of the tree (of each tree in turn), so
    the first failing node is the one a recursive walk would reach first,
    and a slot is dropped right after its last reader, as a walk drops its
    temporaries.  Keys are built bottom-up from the children's slots and
    memoised by node identity: hashing an Expr walks its whole subtree.
    """
    if isinstance(e, Program):
        return e
    keys: dict = {}     # structural key -> slot
    seen: dict = {}     # id(inner node) -> slot
    slots: list = []    # per slot: its constant, or None
    code: list = []     # (slot, op, a, b, node, dead), in post-order

    def visit(node: Expr) -> int:
        kind = type(node)
        if kind is Const:
            # the sign keeps -0.0 apart from 0.0, which == would merge
            key = (node.value, math.copysign(1.0, node.value))
        elif kind is Var:
            key = node.name
        else:
            slot = seen.get(id(node))
            if slot is not None:
                return slot
            # a unary op reads its one operand twice; pow reads its exponent
            # from the constant's slot
            a = visit(node.arg if kind is Unary else node.lhs)
            b = a if kind is Unary else visit(node.rhs)
            key = (node.op, a, b)
        slot = keys.get(key)
        if slot is None:
            slot = keys[key] = len(slots)
            slots.append(node.value if kind is Const else None)
            if kind is Var:
                code.append((slot, None, None, None, node, []))
            elif kind is not Const:
                code.append((slot, _OPS[node.op], a, b, node, []))
        if kind is Unary or kind is Binary:
            seen[id(node)] = slot
        return slot

    result = tuple(map(visit, e)) if isinstance(e, tuple) else visit(e)
    del visit  # the closure refers to itself: free the compile state now
    return Program(slots, code, result)


def evaluate(e: Expr, bindings: Mapping[str, Scalar]) -> Scalar:
    """Evaluate over IEEE doubles; scalars and numpy arrays both work.

    Domain rules: ln needs a positive argument, sqrt a nonnegative one,
    division a nonzero denominator; b^c needs b >= 0 for fractional c and
    b != 0 for negative c (0^0 = 1, 0^c = 0 for c > 0 follow IEEE pow).
    Violations raise EvalError naming the offending node.  Compiles e on
    every call; compile() once to evaluate the same expression repeatedly.
    """
    return compile(e)(bindings)


# ---------------------------------------------------------------------------
# calculus and structure helpers

def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to one variable.

    d|f| = sign(f) df with the convention sign(0) = 0; sign itself
    differentiates to 0 (its a.e. derivative).
    """
    if var not in VARIABLES:
        raise ExpressionError(f"cannot differentiate with respect to '{var}'")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        return _UNARY[e.op].diff(e.arg, _diff(e.arg, var))
    return _BINARY[e.op].diff(e.lhs, e.rhs, _diff(e.lhs, var),
                              _diff(e.rhs, var))


def substitute(e: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, refolding through the constructors."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacements.get(e.name, e)
    if isinstance(e, Unary):
        return _unary(e.op, substitute(e.arg, replacements))
    return _BINARY[e.op].build(substitute(e.lhs, replacements),
                               substitute(e.rhs, replacements))


def variables(e: Expr) -> frozenset:
    """The set of variable names appearing in the expression."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.arg)
    return variables(e.lhs) | variables(e.rhs)


def variable_problems(name: str, e: Expr, allowed: frozenset) -> list:
    """[a message] when e uses a variable outside `allowed`, else []."""
    extra = variables(e) - allowed
    if not extra:
        return []
    return [f"{name} may only use {sorted(allowed)}; found {sorted(extra)}"]


def is_number(x) -> bool:
    """A finite real number that a float holds; True, strings and an
    integer too large for a float are not numbers here.  The rule owners
    judge config values with it."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def is_count(x, least: int = 1) -> bool:
    """An integer >= least; True is not an integer here."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= least
