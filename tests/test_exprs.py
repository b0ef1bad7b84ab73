"""Expression language: parsing, printing, evaluation, differentiation."""

import math
import operator
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crossdiff import exprs
from crossdiff.coeffs import build_preset
from crossdiff.exprs import (Binary, Const, EvalError, ExpressionError,
                             ParseError, Unary, Var, abs_, add, compile, cos,
                             differentiate, div, evaluate, exp, ln, mul, neg,
                             parse, pow_, sign, sin, sqrt, sub, substitute,
                             to_string, variables)
from crossdiff.grid import Grid
from crossdiff.solver import mms_forcing
from exprgen import (central_difference, derivative_agreement_failures,
                     random_ast, reference_evaluate)

GRAMMAR = Path(__file__).resolve().parent.parent / "docs" \
    / "expression-grammar.md"

# ---------------------------------------------------------------------------
# parsing: structure


def test_parse_minimal_product():
    assert parse("u*v") == Binary("mul", Var("u"), Var("v"))


def test_parse_taxis_coefficient_shape():
    assert parse("u^2 * v") == Binary(
        "mul", Binary("pow", Var("u"), Const(2.0)), Var("v"))


def test_parse_precedence_mul_over_add():
    e = parse("u + v*x")
    assert e == Binary("add", Var("u"), Binary("mul", Var("v"), Var("x")))


def test_parse_pow_right_associative():
    # u^2^3 groups as u^(2^3); the constant exponent folds to 8
    assert parse("u^2^3") == Binary("pow", Var("u"), Const(8.0))


def test_parse_pow_binds_tighter_than_unary_minus():
    e = parse("-u^2")
    assert e == Unary("neg", Binary("pow", Var("u"), Const(2.0)))


def test_parse_left_associative_sub_div():
    assert parse("u-v-x") == Binary("sub", Binary("sub", Var("u"), Var("v")),
                                    Var("x"))
    assert parse("u/v/x") == Binary("div", Binary("div", Var("u"), Var("v")),
                                    Var("x"))


def test_parse_pi_and_constant_folding():
    assert parse("2*pi") == Const(2.0 * math.pi)
    assert parse("(1+2)*u") == Binary("mul", Const(3.0), Var("u"))


def test_parse_functions_and_parentheses():
    e = parse("exp(-(x - 0.5)^2 / 0.1)")
    assert isinstance(e, Unary) and e.op == "exp"
    assert evaluate(e, {"x": 0.5}) == 1.0


def test_parse_scientific_literals():
    assert parse("1e-12") == Const(1e-12)
    assert parse("2.5E+3") == Const(2500.0)


# ---------------------------------------------------------------------------
# parsing: errors carry byte offsets


def test_parse_non_constant_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse("u^(1+t)")
    assert "constant" in str(err.value)
    assert err.value.offset == 2


def test_parse_python_power_operator_rejected():
    with pytest.raises(ParseError) as err:
        parse("u ** v")
    assert err.value.offset == 3


def test_parse_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("w + 1")
    assert "unknown identifier 'w'" in str(err.value)
    assert err.value.offset == 0


def test_parse_trailing_input():
    with pytest.raises(ParseError) as err:
        parse("2x")
    assert err.value.offset == 1


def test_parse_unbalanced_parenthesis():
    with pytest.raises(ParseError) as err:
        parse("(u")
    assert err.value.offset == 2


def test_parse_stray_character():
    with pytest.raises(ParseError) as err:
        parse("u?")
    assert err.value.offset == 1


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse("")


def test_parse_error_is_value_error():
    # callers may catch the generic family
    assert issubclass(ParseError, ExpressionError)
    assert issubclass(ExpressionError, ValueError)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_product():
    assert evaluate(parse("u*v"), {"u": 2.0, "v": 3.0}) == 6.0


def test_eval_fractional_power():
    assert evaluate(parse("u^1.5"), {"u": 4.0}) == 8.0


def test_eval_logistic_reaction():
    # rho*u - mu*u^kappa at rho = mu = 1, kappa = 3, u = 2
    assert evaluate(parse("1*u - 1*u^3"), {"u": 2.0}) == -6.0
    assert evaluate(parse("u - u^3"), {"u": 2.0}) == -6.0


def test_eval_power_conventions_at_zero():
    assert evaluate(parse("u^2"), {"u": 0.0}) == 0.0
    assert evaluate(parse("u^0.5"), {"u": 0.0}) == 0.0
    # zero exponent folds to the constant 1 at parse time
    assert parse("u^0") == Const(1.0)


def test_eval_arrays_elementwise():
    u = np.array([0.0, 1.0, 4.0])
    out = evaluate(parse("u^1.5 + 1"), {"u": u})
    assert np.array_equal(out, np.array([1.0, 2.0, 9.0]))


def test_eval_unbound_variable():
    with pytest.raises(EvalError) as err:
        evaluate(parse("u*v"), {"u": 1.0})
    assert "unbound variable 'v'" in str(err.value)


def test_eval_domain_errors_name_the_node():
    with pytest.raises(EvalError) as err:
        evaluate(parse("ln(u)"), {"u": 0.0})
    assert "ln" in str(err.value)
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(u - 2)"), {"u": 0.0})
    with pytest.raises(EvalError) as err:
        evaluate(parse("1/(u - 1)"), {"u": 1.0})
    assert "division by zero" in str(err.value)
    with pytest.raises(EvalError):
        evaluate(parse("u^-1"), {"u": 0.0})
    with pytest.raises(EvalError):
        evaluate(parse("u^0.5"), {"u": -2.0})


def test_eval_is_deterministic():
    e = parse("exp(0.1*u) * sin(v) - u/(2 + v^2)")
    b = {"u": 1.234, "v": 5.678}
    assert evaluate(e, b) == evaluate(e, b)


# ---------------------------------------------------------------------------
# compiled programs against the reference walk

# cell values that break every domain rule somewhere: zeros of both signs,
# negatives, values that overflow exp and powers
_SAMPLE_POOL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300,
                         700.0, -1e3, 2.0, 1e200])


def _outcome(evaluator, e, bindings):
    try:
        return "value", evaluator(e, bindings)
    except EvalError as err:
        return "error", str(err), err.node


def _random_bindings(rng, scalar: bool) -> dict:
    if scalar:
        return {name: float(rng.choice(_SAMPLE_POOL)) for name in "xytuv"}
    return {name: rng.choice(_SAMPLE_POOL, size=9) for name in "xytuv"}


def _same_value(got, want) -> bool:
    """Bitwise equal: same type, same values with NaN equal to NaN, same
    sign of every zero."""
    return type(got) is type(want) \
        and np.array_equal(got, want, equal_nan=True) \
        and np.array_equal(np.signbit(got), np.signbit(want))


def test_compiled_evaluation_matches_the_reference_walk():
    rng = np.random.default_rng(1234)
    kinds = {"value": 0, "error": 0}
    for case in range(600):
        e = random_ast(rng, depth=5)
        if case % 3 == 0:  # derivatives repeat subtrees, which share slots
            e = differentiate(e, str(rng.choice(["x", "u", "v"])))
        bindings = _random_bindings(rng, scalar=case % 4 == 0)
        if case % 10 == 0:
            del bindings[str(rng.choice(list(bindings)))]
        want = _outcome(reference_evaluate, e, bindings)
        got = _outcome(evaluate, e, bindings)
        kinds[want[0]] += 1
        assert got[0] == want[0], (to_string(e), got, want)
        if want[0] == "error":
            # the same message, naming a node equal to the walk's
            assert got[1:] == want[1:], to_string(e)
        else:
            assert _same_value(got[1], want[1]), to_string(e)
    assert min(kinds.values()) >= 100  # both outcomes are exercised


def test_compile_shares_distinct_subtrees():
    u = Var("u")
    square = pow_(u, Const(2.0))
    e = mul(square, sqrt(square)) + square  # u, 2.0, u^2, sqrt, *, +
    program = compile(e)
    assert len(program) == 6
    assert program({"u": np.array([3.0])})[0] == 9.0 * 3.0 + 9.0
    # -0.0 and 0.0 are equal as nodes, but not as constants
    assert len(compile(Binary("add", Const(-0.0), Const(0.0)))) == 3
    assert compile(program) is program


def test_constant_expressions_evaluate_to_floats():
    assert type(evaluate(Const(1.0), {})) is float
    assert type(compile(parse("2*pi"))({"u": np.ones(3)})) is float


@pytest.mark.parametrize("amplitude, sizes", [
    ("0.5", (57, 28)),    # mms_case2: u*'s 0.5 and the preset's l = 0.5 merge
    ("0.45", (58, 28)),
])
def test_mms_case2_forcings_compile_to_their_distinct_subtrees(amplitude,
                                                                sizes):
    model = build_preset(2, {"chi": 0.05, "l": 0.5})
    s1, s2 = mms_forcing(parse(f"2 + {amplitude}*exp(-t)*cos(pi*x)"),
                         parse("2 + 0.25*exp(-t)*cos(pi*x)"), model)
    assert _tree_size(s1) == 287 and _tree_size(s2) == 55
    assert (len(compile(s1)), len(compile(s2))) == sizes


def _tree_size(e) -> int:
    if isinstance(e, Unary):
        return 1 + _tree_size(e.arg)
    if isinstance(e, Binary):
        return 1 + _tree_size(e.lhs) + _tree_size(e.rhs)
    return 1


def test_compiled_evaluation_drops_each_slot_after_its_last_use():
    model = build_preset(2, {"chi": 0.05, "l": 0.5})
    s1, _ = mms_forcing(parse("2 + 0.5*exp(-t)*cos(pi*x)"),
                        parse("2 + 0.25*exp(-t)*cos(pi*x)"), model)
    n = 4096
    bindings = {"t": 0.05, "x": (np.arange(n) + 0.5) / n}
    program = compile(s1)
    program(bindings)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        program(bindings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 57 slots; holding every one until the end peaks at about 43 arrays
    assert (peak - base) / (8 * n) <= 12


# ---------------------------------------------------------------------------
# several roots in one program, and a column of step times

CASE2 = build_preset(2, {"chi": 0.05, "l": 0.5})


def test_a_tuple_compiles_to_one_program_equal_to_its_parts():
    s1, s2 = mms_forcing(parse("2 + 0.45*exp(-t)*cos(pi*x)"),
                         parse("2 + 0.25*exp(-t)*cos(pi*x)"), CASE2)
    pair = compile((s1, s2))
    assert len(pair) < len(compile(s1)) + len(compile(s2))
    bindings = {"t": 0.05, "x": (np.arange(128) + 0.5) / 128}
    got = pair(bindings)
    assert type(got) is tuple and len(got) == 2
    for value, e in zip(got, (s1, s2)):
        assert _same_value(value, compile(e)(bindings))


def test_tuple_programs_match_their_parts_on_random_trees():
    # the first failing part raises, as evaluating the parts in turn would
    rng = np.random.default_rng(2468)
    kinds = {"value": 0, "error": 0}
    for case in range(400):
        e1 = random_ast(rng, depth=5)
        # a derivative shares subtrees with e1, and the slots are shared
        e2 = differentiate(e1, "x") if case % 2 else random_ast(rng, depth=5)
        bindings = _random_bindings(rng, scalar=case % 4 == 0)
        first = _outcome(evaluate, e1, bindings)
        want = first if first[0] == "error" \
            else _outcome(evaluate, e2, bindings)
        got = _outcome(evaluate, (e1, e2), bindings)
        kinds[want[0]] += 1
        assert got[0] == want[0], (to_string(e1), to_string(e2))
        if want[0] == "error":
            assert got[1:] == want[1:]
        else:
            assert _same_value(got[1][0], first[1])
            assert _same_value(got[1][1], want[1])
    assert min(kinds.values()) >= 100


def _unread_constants(program) -> list:
    """The slots holding a constant that neither an instruction of the
    program nor its result reads."""
    r = program._result
    read = set(r) if isinstance(r, tuple) else {r}
    for _, op, a, b, _, _ in program._code:
        if op is not None:
            read.update((a, b))
    return [k for k, v in enumerate(program._slots)
            if v is not None and k not in read]


def test_compiled_programs_keep_no_unread_constant():
    # a fresh compile reads every constant it holds
    rng = np.random.default_rng(2468)
    for case in range(300):
        e = random_ast(rng, depth=5)
        if case % 3 == 0:
            e = differentiate(e, str(rng.choice(["x", "y", "t"])))
        assert _unread_constants(compile(e)) == [], to_string(e)
    forcings = compile(mms_forcing(
        parse("2 + 0.45*exp(-t)*cos(pi*x)*cos(pi*y)"),
        parse("2 + 0.25*sin(t)*cos(pi*y)"), CASE2))
    assert _unread_constants(forcings) == []


def test_evaluation_raises_for_the_first_failing_node_in_post_order():
    x = (np.arange(8) + 0.5) / 8
    # in post-order ln(t - 5) comes first, then sqrt(x - 0.5), which fails
    # before ln(x - 0.9)
    e = parse("ln(t - 5) + sqrt(x - 0.5) * ln(x - 0.9)")
    with pytest.raises(EvalError) as err:
        compile(e)({"t": 1.0, "x": x})
    assert err.value.node == parse("ln(t - 5)")
    with pytest.raises(EvalError, match="sqrt of a negative value") as err:
        compile(e)({"t": 6.0, "x": x})
    assert err.value.node == parse("sqrt(x - 0.5)")


def _cells_equal(got, want, shape) -> bool:
    """Bitwise equal once broadcast to the cells: NaN equal to NaN, the
    sign of every zero kept."""
    got, want = (np.broadcast_to(np.asarray(a, dtype=float), shape)
                 for a in (got, want))
    return np.array_equal(got, want, equal_nan=True) \
        and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("grid", [Grid((7,), (1.3,)),
                                  Grid((5, 3), (1.0, 0.8))])
def test_a_column_of_times_gives_bitwise_each_time_alone(grid):
    # the time loop calls a forcing on the cells and a column of step
    # times; each row must be the value at that time alone, and the column
    # must raise where any one time does, so that the loop can fall back
    rng = np.random.default_rng(8642)
    cells = grid.axes
    column = (-1,) + (1,) * grid.dim
    kinds = {"value": 0, "error": 0}
    for case in range(500):
        e = random_ast(rng, depth=5, variables=("t",) + tuple("xy"[:grid.dim]))
        if case % 3 == 0:
            e = differentiate(e, str(rng.choice(["x", "t"])))
        program = compile(e)
        times = [float(t) for t in rng.choice(_SAMPLE_POOL, size=4)] \
            + [float(rng.uniform(0.0, 0.3))]
        alone = [_outcome(lambda _, b: program(b), e, {**cells, "t": t})
                 for t in times]
        got = _outcome(lambda _, b: program(b), e,
                       {**cells, "t": np.reshape(times, column)})
        want = "error" if any(o[0] == "error" for o in alone) else "value"
        kinds[want] += 1
        assert got[0] == want, to_string(e)
        if want == "value":
            block = got[1]
            for i, (_, value) in enumerate(alone):
                row = block[i] if np.ndim(block) > grid.dim else block
                assert _cells_equal(row, value, grid.shape), to_string(e)
    assert min(kinds.values()) >= 50


@pytest.mark.parametrize("t", [0.25, np.reshape([0.0, 0.5, 2.0], (-1, 1, 1))],
                         ids=["scalar t", "column of t"])
def test_the_grid_axes_give_bitwise_the_meshgrid_values(t):
    # each coordinate is bound along its own axis, so a one-axis subtree
    # runs on n0 or n1 cells; each element must still be the one that a
    # full meshgrid of the cells gives, and each error the same error
    grid = Grid((5, 7), (1.0, 0.8))
    x, y = np.meshgrid(*map(np.ravel, grid.axes.values()), indexing="ij")
    rng = np.random.default_rng(1357)
    kinds = {"value": 0, "error": 0}
    for _ in range(400):
        e = random_ast(rng, depth=5, variables=("x", "y", "t"))
        run = compile(e)
        got = _outcome(lambda _, b: run(b), e, {**grid.axes, "t": t})
        want = _outcome(lambda _, b: run(b), e, {"x": x, "y": y, "t": t})
        kinds[want[0]] += 1
        assert got[0] == want[0], to_string(e)
        if want[0] == "error":
            assert got[1:] == want[1:], to_string(e)
        else:
            assert _cells_equal(got[1], want[1], np.shape(want[1])), \
                to_string(e)
    assert min(kinds.values()) >= 50


# ---------------------------------------------------------------------------
# differentiation


def test_diff_square_structure():
    assert differentiate(parse("v^2"), "v") == Binary("mul", Const(2.0),
                                                      Var("v"))


def test_diff_degenerate_power():
    # d/du u^(1+alpha) at alpha = 1 is 2u
    assert differentiate(parse("u^2"), "u") == Binary("mul", Const(2.0),
                                                      Var("u"))


def test_diff_exponential_value():
    d = differentiate(parse("exp(x*t)"), "x")
    value = evaluate(d, {"x": 0.5, "t": 2.0})
    assert value == pytest.approx(2.0 * math.e, rel=1e-12)


def test_diff_abs_uses_sign():
    assert differentiate(abs_(Var("u")), "u") == sign(Var("u"))
    assert differentiate(sign(Var("u")), "u") == Const(0.0)
    # sign(0) = 0 convention
    assert evaluate(sign(Var("u")), {"u": 0.0}) == 0.0


def test_diff_unknown_variable_rejected():
    with pytest.raises(ExpressionError):
        differentiate(parse("u"), "w")


def test_diff_quotient_rule_spot():
    e = parse("u/(2 + v^2)")
    du = evaluate(differentiate(e, "u"), {"u": 3.0, "v": 2.0})
    dv = evaluate(differentiate(e, "v"), {"u": 3.0, "v": 2.0})
    assert du == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert dv == pytest.approx(-12.0 / 36.0, rel=1e-12)


@pytest.mark.parametrize("source,var,point", [
    ("exp(x*t)", "t", {"x": 0.7, "t": 1.3}),
    ("sin(pi*x)*cos(t)", "x", {"x": 0.3, "t": 0.9}),
    ("v^3/(2 + u^2)", "v", {"u": 1.5, "v": 2.5}),
    ("sqrt(v + 2)*ln(u + 3)", "u", {"u": 0.5, "v": 1.0}),
    ("abs(u - 1)", "u", {"u": 3.0}),
])
def test_diff_matches_finite_differences_spot(source, var, point):
    e = parse(source)
    sym = evaluate(differentiate(e, var), point)
    h = 1e-6
    up, down = dict(point), dict(point)
    up[var] += h
    down[var] -= h
    fd = (evaluate(e, up) - evaluate(e, down)) / (2.0 * h)
    assert sym == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_diff_matches_finite_differences_randomized():
    failures = derivative_agreement_failures(seed=2024, pairs=300)
    assert failures == []


# ---------------------------------------------------------------------------
# printing and round trips


def test_print_minimal_product():
    assert to_string(mul(Var("u"), Var("v"))) == "(u * v)"


def test_print_derivative_reparses():
    d = differentiate(parse("v^3"), "v")
    assert parse(to_string(d)) == Binary(
        "mul", Const(3.0), Binary("pow", Var("v"), Const(2.0)))


def test_negative_constant_base_round_trip():
    e = pow_(Const(-2.0), Const(0.5))  # stays symbolic: (-2)^0.5 is complex
    assert isinstance(e, Binary)
    assert parse(to_string(e)) == e


def test_a_negative_zero_base_round_trips():
    # -0.0 is negative by its sign bit, though not < 0.0: unparenthesized,
    # "-0.0 ^ (-0.5)" would parse as -(0.0 ^ (-0.5))
    e = pow_(neg(Const(0.0)), Const(-0.5))
    assert isinstance(e, Binary)  # 0.0 ^ (-0.5) does not fold
    assert to_string(e) == "((-0.0) ^ (-0.5))"
    assert parse(to_string(e)) == e
    rng = np.random.default_rng(12345)
    trees = [random_ast(rng, depth=5) for _ in range(1664)]
    assert parse(to_string(trees[-1])) == trees[-1]  # one such tree


def test_round_trip_thousand_random_asts():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        e = random_ast(rng, depth=4)
        assert parse(to_string(e)) == e


# ---------------------------------------------------------------------------
# substitution and structure helpers


def test_substitute_structure():
    e = parse("u*v")
    out = substitute(e, {"u": parse("x^2")})
    assert out == Binary("mul", Binary("pow", Var("x"), Const(2.0)), Var("v"))


def test_substitute_refolds():
    assert substitute(parse("u*v"), {"u": Const(0.0)}) == Const(0.0)
    assert substitute(parse("u + v"), {"v": Const(0.0)}) == Var("u")


def test_variables_of_expression():
    assert variables(parse("u*exp(x*t)")) == frozenset(("u", "x", "t"))
    assert variables(Const(3.0)) == frozenset()


def test_operator_overloads_build_trees():
    u = Var("u")
    assert (u + 1.0) * 2.0 == Binary(
        "mul", Binary("add", Var("u"), Const(1.0)), Const(2.0))
    assert (u ** 2.0) == Binary("pow", Var("u"), Const(2.0))
    with pytest.raises(ExpressionError):
        pow_(u, Var("v"))


def test_sqrt_constructor_equals_half_power_semantics():
    # sqrt(u) and u^0.5 agree in value (distinct node shapes are fine)
    b = {"u": 7.3}
    assert evaluate(sqrt(Var("u")), b) == evaluate(parse("u^0.5"), b)


# ---------------------------------------------------------------------------
# the operator tables, row by row: each oracle is independent of the row

# op -> (its public constructor, its value on a Python float)
UNARY_ORACLES = {
    "neg": (neg, operator.neg),
    "exp": (exp, math.exp),
    "ln": (ln, math.log),
    "sqrt": (sqrt, math.sqrt),
    "abs": (abs_, abs),
    "sign": (sign, lambda c: math.copysign(1.0, c) if c else 0.0),
    "sin": (sin, math.sin),
    "cos": (cos, math.cos),
}
# op -> (its constructor, its symbol, its value on Python floats)
BINARY_ORACLES = {
    "add": (add, "+", operator.add),
    "sub": (sub, "-", operator.sub),
    "mul": (mul, "*", operator.mul),
    "div": (div, "/", operator.truediv),
    "pow": (pow_, "^", operator.pow),
}


def _unary_node(op):
    return UNARY_ORACLES[op][0](Var("u"))


def _binary_node(op):
    # the exponent of pow must be a constant
    rhs = Const(2.5) if op == "pow" else Var("v")
    return BINARY_ORACLES[op][0](Var("u"), rhs)


ROW_NODES = [_unary_node(op) for op in UNARY_ORACLES] \
    + [_binary_node(op) for op in BINARY_ORACLES]


def test_every_table_row_has_an_oracle():
    assert set(UNARY_ORACLES) == set(exprs._UNARY)
    assert set(BINARY_ORACLES) == set(exprs._BINARY)
    assert exprs.FUNCTIONS == tuple(op for op in UNARY_ORACLES if op != "neg")


@pytest.mark.parametrize("op", UNARY_ORACLES)
def test_unary_row_prints_and_parses_back(op):
    e = _unary_node(op)
    assert e == Unary(op, Var("u"))
    text = "(-u)" if op == "neg" else f"{op}(u)"
    assert to_string(e) == text
    assert parse(text) == e


@pytest.mark.parametrize("op", BINARY_ORACLES)
def test_binary_row_prints_and_parses_back(op):
    e = _binary_node(op)
    rhs = "2.5" if op == "pow" else "v"
    text = f"(u {BINARY_ORACLES[op][1]} {rhs})"
    assert e == Binary(op, Var("u"), parse(rhs))
    assert to_string(e) == text
    assert parse(text) == e


@pytest.mark.parametrize("op", UNARY_ORACLES)
@pytest.mark.parametrize("c", [0.7, -0.3, 0.0, 2.5])
def test_unary_row_folds_a_constant_to_its_math_value(op, c):
    build, value = UNARY_ORACLES[op]
    try:
        want = value(c)
    except ValueError:  # out of the domain: the node stays symbolic
        assert build(Const(c)) == Unary(op, Const(c))
    else:
        assert build(Const(c)) == Const(want)


def test_a_fold_that_overflows_stays_symbolic():
    assert exp(Const(1000.0)) == Unary("exp", Const(1000.0))
    assert pow_(Const(1e200), Const(2.0)) == Binary(
        "pow", Const(1e200), Const(2.0))


@pytest.mark.parametrize("op", BINARY_ORACLES)
def test_binary_row_folds_constants_to_their_math_value(op):
    build, _, value = BINARY_ORACLES[op]
    assert build(Const(1.3), Const(0.7)) == Const(value(1.3, 0.7))


# u and v take values in and out of every domain, zeros of both signs
_ROW_BINDINGS = [
    {"u": np.array([0.3, 1.9, 2.6, 7.0]),
     "v": np.array([1.1, -0.4, 3.0, 0.2])},
    {"u": np.array([-0.0, 0.0, -1.5, 4.0]),
     "v": np.array([0.0, 2.0, 1.0, -0.0])},
    {"u": 0.8, "v": 1.3},
    {"u": -2.0, "v": 0.0},
]


@pytest.mark.parametrize("node", ROW_NODES, ids=to_string)
@pytest.mark.parametrize("bindings", range(len(_ROW_BINDINGS)))
def test_row_evaluation_matches_the_reference_walk(node, bindings):
    b = _ROW_BINDINGS[bindings]
    want = _outcome(reference_evaluate, node, b)
    got = _outcome(evaluate, node, b)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1:] == want[1:]
    else:
        assert _same_value(got[1], want[1])


@pytest.mark.parametrize("node", ROW_NODES, ids=to_string)
@pytest.mark.parametrize("var", ["u", "v"])
def test_row_derivative_matches_a_central_difference(node, var):
    point = {"u": 0.8, "v": 1.3}  # inside every domain, away from kinks
    sym = evaluate(differentiate(node, var), point)
    assert sym == pytest.approx(central_difference(node, point, var),
                                rel=1e-8, abs=1e-9)


def test_the_grammar_page_names_exactly_the_functions():
    text = GRAMMAR.read_text(encoding="utf-8")
    comment = re.search(r'function "\(" expr "\)" *\(\* (.*?) \*\)', text)
    listed = re.search(r"\*\*Functions\*\* — (.*?);", text, re.S)
    assert tuple(comment.group(1).split(", ")) == exprs.FUNCTIONS
    assert tuple(re.findall(r"`(\w+)`", listed.group(1))) == exprs.FUNCTIONS
