"""Symbolic expressions over the model variables (x, y, t, u, v).

A small closed language used for coefficients, reaction terms, initial data
and manufactured solutions: floating constants, the five variables, unary
neg / exp / ln / sqrt / abs / sign / sin / cos, and binary + - * / ^ where
the exponent must fold to a constant.  Restricting exponents keeps the
language closed under differentiation and pins the degenerate-diffusion
convention u^c = 0 at u = 0 for c > 0 and u^0 = 1.

Nodes are built through the module-level constructors (add, mul, pow_, ...)
which fold constant subtrees and prune algebraic identities (0 + e, 1 * e,
e ^ 1, ...).  parse() and differentiate() build nodes only through those
constructors, so ``parse(to_string(e)) == e`` holds structurally for every
expression the library produces.

compile() turns an expression into a Program, run on a bindings mapping,
with one slot per distinct subexpression: each is evaluated once per call,
in left-to-right post-order, so a domain error names the first failing
node in that order.  A constant expression evaluates to a Python float.
Compile once and call the Program to evaluate an expression repeatedly;
evaluate() compiles on every call.

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

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

VARIABLES = ("x", "y", "t", "u", "v")
FUNCTIONS = ("exp", "ln", "sqrt", "abs", "sign", "sin", "cos")
_UNARY_OPS = ("neg",) + FUNCTIONS
_BINARY_OPS = ("add", "sub", "mul", "div", "pow")
_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}

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
        if self.op not in _UNARY_OPS:
            raise ExpressionError(f"unknown unary op '{self.op}'")


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
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


def _fold_unary(op: str, c: float):
    """Constant-fold a unary op; None when out of domain or non-finite."""
    try:
        if op == "neg":
            r = -c
        elif op == "exp":
            r = math.exp(c)
        elif op == "ln":
            r = math.log(c)
        elif op == "sqrt":
            r = math.sqrt(c)
        elif op == "abs":
            r = abs(c)
        elif op == "sign":
            r = float(np.sign(c))
        elif op == "sin":
            r = math.sin(c)
        else:
            r = math.cos(c)
    except (ValueError, OverflowError):
        return None
    return r if math.isfinite(r) else None


def _unary(op: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        folded = _fold_unary(op, arg.value)
        if folded is not None:
            return Const(folded)
    if op == "neg" and isinstance(arg, Unary) and arg.op == "neg":
        return arg.arg
    return Unary(op, arg)


def neg(e: Expr) -> Expr:
    return _unary("neg", e)


def exp(e: Expr) -> Expr:
    return _unary("exp", e)


def ln(e: Expr) -> Expr:
    return _unary("ln", e)


def sqrt(e: Expr) -> Expr:
    return _unary("sqrt", e)


def abs_(e: Expr) -> Expr:
    return _unary("abs", e)


def sign(e: Expr) -> Expr:
    return _unary("sign", e)


def sin(e: Expr) -> Expr:
    return _unary("sin", e)


def cos(e: Expr) -> Expr:
    return _unary("cos", e)


_FUNC_CTOR = {"exp": exp, "ln": ln, "sqrt": sqrt, "abs": abs_, "sign": sign,
              "sin": sin, "cos": cos}


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
        e = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_factor()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

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
                return _FUNC_CTOR[text](arg)
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
        # negative literals are parenthesized: "-2.0 ^ 0.5" would rebind as
        # -(2.0 ^ 0.5) since ^ is tighter than unary minus
        return f"({e.value!r})" if e.value < 0.0 else repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_string(e.arg)})"
        return f"{e.op}({to_string(e.arg)})"
    if isinstance(e, Binary):
        sym = _BINARY_SYMBOL[e.op]
        return f"({to_string(e.lhs)} {sym} {to_string(e.rhs)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def _is_integral(c: float) -> bool:
    return float(c).is_integer()


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
    if not _is_integral(c) and np.any(x < 0.0):
        raise EvalError("negative base with a fractional exponent", node)
    return np.power(x, c)


def _div(x, y, node):
    if np.any(y == 0.0):
        raise EvalError("division by zero", node)
    return x / y


# op -> f(first operand, second operand or unary op's own, node); each
# applies the numpy operation of its node and raises on a domain failure
_OPS = {
    "neg": lambda x, _, node: -x,
    "exp": lambda x, _, node: np.exp(x),
    "ln": _ln,
    "sqrt": _sqrt,
    "abs": lambda x, _, node: np.abs(x),
    "sign": lambda x, _, node: np.sign(x),
    "sin": lambda x, _, node: np.sin(x),
    "cos": lambda x, _, node: np.cos(x),
    "add": lambda x, y, node: x + y,
    "sub": lambda x, y, node: x - y,
    "mul": lambda x, y, node: x * y,
    "div": _div,
    "pow": _pow,
}


class Program:
    """Expressions compiled by compile(): call it on a bindings mapping for
    the value, or the tuple of values when a tuple was compiled.

    len() is the number of slots, one per distinct subtree.
    """

    __slots__ = ("_slots", "_code", "_result")

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

    def __len__(self) -> int:
        return len(self._slots)

    def __call__(self, bindings: Mapping[str, Scalar]):
        s = self._slots.copy()
        if self._code:
            with np.errstate(all="ignore"):
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

    def bind(self, bindings: Mapping[str, Scalar]) -> "Program":
        """This program with the variables in bindings fixed: each
        instruction whose operands depend only on them runs once, in
        post-order (the first to fail raises its EvalError), and its slot
        becomes a constant, the same object in every call's result.  Given
        the other variables it returns bitwise what this program returns."""
        s = self._slots.copy()
        rest = []  # the instructions left for the call
        with np.errstate(all="ignore"):
            for slot, op, a, b, node, _ in self._code:
                if op is None and node.name in bindings:
                    s[slot] = bindings[node.name]
                elif op is not None and s[a] is not None \
                        and s[b] is not None:
                    s[slot] = op(s[a], s[b], node)
                else:
                    rest.append((slot, op, a, b, node, []))
        # keep only the constants that the rest or the result still reads
        r = self._result
        read = set(r) if isinstance(r, tuple) else {r}
        read.update(x for _, op, a, b, _, _ in rest if op is not None
                    for x in (a, b))
        return Program([v if k in read else None for k, v in enumerate(s)],
                       rest, r)


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
    if type(e) is Const:  # the common constant coefficient: nothing to run
        return Program([e.value], [], 0)
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
        da = _diff(e.arg, var)
        if e.op == "neg":
            return neg(da)
        if e.op == "exp":
            return mul(da, exp(e.arg))
        if e.op == "ln":
            return div(da, e.arg)
        if e.op == "sqrt":
            return div(da, mul(Const(2.0), sqrt(e.arg)))
        if e.op == "abs":
            return mul(sign(e.arg), da)
        if e.op == "sign":
            return Const(0.0)
        if e.op == "sin":
            return mul(cos(e.arg), da)
        return neg(mul(sin(e.arg), da))
    if e.op == "add":
        return add(_diff(e.lhs, var), _diff(e.rhs, var))
    if e.op == "sub":
        return sub(_diff(e.lhs, var), _diff(e.rhs, var))
    if e.op == "mul":
        return add(mul(_diff(e.lhs, var), e.rhs), mul(e.lhs, _diff(e.rhs, var)))
    if e.op == "div":
        num = sub(mul(_diff(e.lhs, var), e.rhs), mul(e.lhs, _diff(e.rhs, var)))
        return div(num, pow_(e.rhs, Const(2.0)))
    c = e.rhs.value
    return mul(mul(Const(c), pow_(e.lhs, Const(c - 1.0))), _diff(e.lhs, var))


def substitute(e: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, refolding through the constructors."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacements.get(e.name, e)
    if isinstance(e, Unary):
        return _unary(e.op, substitute(e.arg, replacements))
    lhs = substitute(e.lhs, replacements)
    rhs = substitute(e.rhs, replacements)
    if e.op == "add":
        return add(lhs, rhs)
    if e.op == "sub":
        return sub(lhs, rhs)
    if e.op == "mul":
        return mul(lhs, rhs)
    if e.op == "div":
        return div(lhs, rhs)
    return pow_(lhs, rhs)


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
    """A finite real number; True and strings are not numbers here.  The
    rule owners judge config values with it."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)
