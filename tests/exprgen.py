"""Seeded random expression generators shared by the test modules.

Two vocabularies:

* ``random_ast`` draws from the full node set through the folding
  constructors, so the result is in constructor-normal form and must
  survive a print/parse round trip unchanged.
* ``smooth_expr`` draws from a guarded vocabulary whose members are smooth
  with moderate derivatives on u, v, x, t in [0.1, 10]; suitable for
  comparing symbolic derivatives against central finite differences.

``reference_evaluate`` is a plain recursive walk of the tree, the reference
the compiled evaluator is compared against.
"""

import numpy as np

from crossdiff.exprs import (Binary, Const, EvalError, Unary, Var, abs_, add,
                             cos, differentiate, div, evaluate, exp, ln, mul,
                             neg, pow_, sign, sin, sqrt, sub)

ALL_VARS = ("x", "y", "t", "u", "v")
SMOOTH_VARS = ("x", "t", "u", "v")

_CONST_POOL = (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.14159, 1e-3, 1e3)
_POW_POOL = (-2.0, -1.5, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0)


def random_ast(rng: np.random.Generator, depth: int = 4,
               variables=ALL_VARS):
    """A random valid expression in constructor-normal form."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            if rng.random() < 0.7:
                return Const(float(rng.choice(_CONST_POOL)))
            return Const(float(rng.uniform(-5.0, 5.0)))
        return Var(str(rng.choice(variables)))
    kind = rng.integers(0, 7)
    a = random_ast(rng, depth - 1, variables)
    if kind == 0:
        return add(a, random_ast(rng, depth - 1, variables))
    if kind == 1:
        return sub(a, random_ast(rng, depth - 1, variables))
    if kind == 2:
        return mul(a, random_ast(rng, depth - 1, variables))
    if kind == 3:
        return div(a, random_ast(rng, depth - 1, variables))
    if kind == 4:
        return pow_(a, Const(float(rng.choice(_POW_POOL))))
    if kind == 5:
        return neg(a)
    fn = (exp, ln, sqrt, abs_, sign, sin, cos)[int(rng.integers(0, 7))]
    return fn(a)


def _affine(rng: np.random.Generator, variables, lo: float, hi: float,
            shift: float):
    """c*var + d with c in [lo, hi] and d near shift; bounded slope."""
    var = Var(str(rng.choice(variables)))
    c = float(rng.uniform(lo, hi)) * (1.0 if rng.random() < 0.5 else -1.0)
    d = float(rng.uniform(shift, shift + 1.0))
    return add(mul(Const(c), var), Const(d))


def smooth_expr(rng: np.random.Generator, depth: int = 3,
                variables=SMOOTH_VARS):
    """A random expression that is smooth with tame derivatives when all
    variables lie in [0.1, 10]."""
    if depth <= 0:
        if rng.random() < 0.4:
            return Const(float(rng.uniform(0.5, 2.0)))
        return Var(str(rng.choice(variables)))
    kind = rng.integers(0, 9)
    if kind == 0:
        return add(smooth_expr(rng, depth - 1, variables),
                   smooth_expr(rng, depth - 1, variables))
    if kind == 1:
        return sub(smooth_expr(rng, depth - 1, variables),
                   smooth_expr(rng, depth - 1, variables))
    if kind == 2:
        return mul(smooth_expr(rng, depth - 1, variables),
                   smooth_expr(rng, depth - 1, variables))
    if kind == 3:
        inner = smooth_expr(rng, depth - 1, variables)
        # denominator >= 2, smooth everywhere
        return div(smooth_expr(rng, depth - 1, variables),
                   add(Const(2.0), mul(inner, inner)))
    if kind == 4:
        return exp(_affine(rng, variables, 0.05, 0.2, 0.0))
    if kind == 5:
        return sin(_affine(rng, variables, 0.1, 0.5, 0.0))
    if kind == 6:
        return cos(_affine(rng, variables, 0.1, 0.5, 0.0))
    if kind == 7:
        # strictly positive affine argument: |c| <= 0.15, d >= 2
        return (sqrt if rng.random() < 0.5 else ln)(
            _affine(rng, variables, 0.05, 0.15, 2.0))
    base = add(Const(1.5), mul(Const(0.2), Var(str(rng.choice(variables)))))
    return pow_(base, Const(float(rng.choice((-1.0, 0.5, 1.5, 2.0, 3.0)))))


def random_point(rng: np.random.Generator, variables=SMOOTH_VARS) -> dict:
    return {name: float(rng.uniform(0.1, 10.0)) for name in variables}


def central_difference(e, bindings: dict, var: str, h: float = 1e-5) -> float:
    up = dict(bindings)
    down = dict(bindings)
    up[var] = bindings[var] + h
    down[var] = bindings[var] - h
    return (evaluate(e, up) - evaluate(e, down)) / (2.0 * h)


def derivative_agreement_failures(seed: int, pairs: int,
                                  tol: float = 1e-6) -> list:
    """Compare symbolic and finite-difference derivatives on random smooth
    (expression, point) pairs; returns the list of disagreements."""
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(pairs):
        e = smooth_expr(rng, depth=3)
        point = random_point(rng)
        var = str(rng.choice(SMOOTH_VARS))
        sym = float(evaluate(differentiate(e, var), point))
        fd = central_difference(e, point, var)
        if abs(sym - fd) > tol * (1.0 + max(abs(sym), abs(fd))):
            failures.append((e, point, var, sym, fd))
    return failures


def reference_evaluate(e, bindings):
    """Evaluate e by walking the tree, each node after its operands, left
    to right, with the domain rules of exprs.evaluate."""
    with np.errstate(all="ignore"):
        return _walk(e, bindings)


def _walk(e, b):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return b[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'", e) from None
    if isinstance(e, Unary):
        arg = _walk(e.arg, b)
        if e.op == "neg":
            return -arg
        if e.op == "exp":
            return np.exp(arg)
        if e.op == "ln":
            if np.any(arg <= 0.0):
                raise EvalError("ln of a non-positive value", e)
            return np.log(arg)
        if e.op == "sqrt":
            if np.any(arg < 0.0):
                raise EvalError("sqrt of a negative value", e)
            return np.sqrt(arg)
        if e.op == "abs":
            return np.abs(arg)
        if e.op == "sign":
            return np.sign(arg)
        if e.op == "sin":
            return np.sin(arg)
        return np.cos(arg)
    assert isinstance(e, Binary)
    lhs = _walk(e.lhs, b)
    if e.op == "pow":
        c = e.rhs.value
        if c < 0.0 and np.any(lhs == 0.0):
            raise EvalError("zero base with a negative exponent", e)
        if not float(c).is_integer() and np.any(lhs < 0.0):
            raise EvalError("negative base with a fractional exponent", e)
        return np.power(lhs, c)
    rhs = _walk(e.rhs, b)
    if e.op == "add":
        return lhs + rhs
    if e.op == "sub":
        return lhs - rhs
    if e.op == "mul":
        return lhs * rhs
    if np.any(rhs == 0.0):
        raise EvalError("division by zero", e)
    return lhs / rhs
