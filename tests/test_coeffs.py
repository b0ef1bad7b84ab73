"""Coefficient models, presets, power inequalities, Lipschitz probe."""

import math
from typing import Optional

import numpy as np
import pytest

from crossdiff import coeffs, exprs
from crossdiff.coeffs import (CoefficientModel, build_preset,
                              check_finite_gamma_lipschitz,
                              dissipation_density)
from crossdiff.exprs import Const, Expr, Var, evaluate, parse


def r2_values(m: CoefficientModel, u, v):
    """R2 = u q2(v) + R~2(u, v) from the model's parts."""
    return u * m.q2_values(v) + m.r2_tilde_values(u, v)


def power_gap_inequality_check(u1, u2, alpha: float, rel_tol: float = 1e-12):
    """Check (u1^(1+a/2) - u2^(1+a/2))^2 <= (1+a/2)^2/(1+a) * D.

    The constant is sharp (Cauchy-Schwarz in the segment parametrization of
    the power gap against the dissipation density).  Returns (lhs, rhs,
    holds), elementwise for array input.
    """
    half = 1.0 + 0.5 * alpha
    gap = np.power(u1, half) - np.power(u2, half)
    lhs = gap * gap
    rhs = (half * half / (1.0 + alpha)) * dissipation_density(u1, u2, alpha)
    holds = lhs <= rhs + rel_tol * (1.0 + np.abs(rhs))
    return lhs, rhs, holds


def mean_power_bounds_check(u1, u2, alpha: float, m_bound: float,
                            rel_tol: float = 1e-12):
    """Check (u1^(1+a) - u2^(1+a))^2 <= (1+a) M^a * D for 0 <= u_i <= M.
    Returns elementwise booleans."""
    e = 1.0 + alpha
    gap = np.power(u1, e) - np.power(u2, e)
    lhs = gap * gap
    rhs = e * (m_bound ** alpha) * dissipation_density(u1, u2, alpha)
    return lhs <= rhs + rel_tol * (1.0 + np.abs(rhs))


# ---------------------------------------------------------------------------
# presets


def test_case2_preset_shape():
    m = build_preset(2, {"chi": 1.0, "beta": 2.0, "l": 1.0})
    assert m.alpha == 1.0
    assert m.gamma == 1.5
    u, v = 3.0, 2.0
    assert m.a11_values(u, v) == pytest.approx(u * v)          # p(v) u
    assert m.a12_values(u, v) == pytest.approx(-(u ** 2) * v)  # -chi u^2 v
    assert m.a22_values(u, v) == 1.0
    assert evaluate(m.r1_linear, {"v": v}) == v                # q1 = l v
    assert evaluate(m.r1_tilde, {"u": u, "v": v}) == 0.0
    assert m.r1_values(u, v) == pytest.approx(u * v)           # R1 = l u v
    assert r2_values(m, u, v) == pytest.approx(-u * v)         # R2 = -u v


def test_case4_preset_reaction_split():
    m = build_preset(4, {"chi": 0.5})
    u, v = 3.0, 7.0
    assert evaluate(m.r1_linear, {"v": v}) == 1.0
    assert evaluate(m.r1_tilde, {"u": u, "v": v}) == -9.0
    assert m.r1_values(u, v) == pytest.approx(u - u ** 2)
    assert m.a12_values(u, v) == pytest.approx(-0.5 * u ** 2 * v)


def test_case6_logistic_preset():
    m = build_preset(6, {"chi": 1.0, "rho": 1.0, "mu": 1.0, "kappa": 3.0})
    assert m.r1_values(2.0, 5.0) == pytest.approx(2.0 - 8.0)


def test_case1_fixes_l_to_one():
    m = build_preset(1, {"chi": 2.0})
    assert m.r1_values(3.0, 2.0) == pytest.approx(6.0)  # f = u v


def test_preset_beta_below_three_halves_rejected():
    with pytest.raises(ValueError, match="3/2"):
        build_preset(1, {"chi": 1.0, "beta": 1.0})


def test_preset_open_beta_range_cases():
    # cases 3 and 5 require beta in [3/2, 2)
    build_preset(3, {"chi": 1.0, "beta": 1.5, "l": 1.0})
    with pytest.raises(ValueError):
        build_preset(3, {"chi": 1.0, "beta": 2.0, "l": 1.0})
    with pytest.raises(ValueError, match="beta"):
        build_preset(5, {"chi": 1.0, "l": 1.0})  # beta has no default here


def test_preset_missing_and_unknown_params():
    with pytest.raises(ValueError, match="'l'"):
        build_preset(2, {"chi": 1.0, "beta": 2.0})
    with pytest.raises(ValueError, match="unknown parameters"):
        build_preset(4, {"chi": 1.0, "rho": 2.0})
    with pytest.raises(ValueError, match="valid cases are 1-6"):
        build_preset(7, {"chi": 1.0})
    with pytest.raises(ValueError, match="chi"):
        build_preset(2, {"chi": -1.0, "l": 1.0})


def test_presets_satisfy_structural_invariants():
    presets = [
        build_preset(1, {"chi": 1.0}),
        build_preset(2, {"chi": 1.0, "l": 2.0}),
        build_preset(3, {"chi": 1.0, "beta": 1.75, "l": 1.0}),
        build_preset(4, {"chi": 1.0}),
        build_preset(5, {"chi": 1.0, "beta": 1.5, "l": 0.0}),
        build_preset(6, {"chi": 1.0, "rho": 0.5, "mu": 1.0, "kappa": 2.5}),
    ]
    for m in presets:
        m.check_positivity()  # p > 0, q_lower > 0, A22 >= q_lower, sampled
        assert m.gamma == 1.0 + m.alpha / 2.0


def reaction_mismatch(m: CoefficientModel, r1_direct: Optional[Expr] = None,
                      r2_direct: Optional[Expr] = None, u_max: float = 10.0,
                      v_max: float = 10.0, samples: int = 64,
                      seed: int = 0) -> float:
    """Max |split reaction - directly supplied reaction| over random samples."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, u_max, samples)
    v = rng.uniform(0.0, v_max, samples)
    worst = 0.0
    if r1_direct is not None:
        direct = evaluate(r1_direct, {"u": u, "v": v})
        worst = max(worst, float(np.max(np.abs(m.r1_values(u, v) - direct))))
    if r2_direct is not None:
        direct = evaluate(r2_direct, {"u": u, "v": v})
        worst = max(worst,
                    float(np.max(np.abs(r2_values(m, u, v) - direct))))
    return worst


def test_reaction_split_matches_direct_expressions():
    m = build_preset(2, {"chi": 1.0, "beta": 2.0, "l": 3.0})
    mismatch = reaction_mismatch(m, r1_direct=parse("3*u*v"),
                                 r2_direct=parse("-(u*v)"))
    assert mismatch <= 1e-12

    m4 = build_preset(4, {"chi": 1.0})
    assert reaction_mismatch(m4, r1_direct=parse("u - u^2")) <= 1e-12


def test_coefficient_model_rejects_negative_alpha():
    with pytest.raises(ValueError):
        CoefficientModel(alpha=-1.0, p=Const(1.0), a12=Const(0.0),
                         a22=Const(1.0), q_lower=Const(1.0),
                         r1_linear=Const(0.0), r1_tilde=Const(0.0),
                         r2_linear=Const(0.0), r2_tilde=Const(0.0))


def test_check_positivity_flags_bad_lower_bound():
    m = CoefficientModel(alpha=0.0, p=Const(1.0), a12=Const(0.0),
                         a22=Const(1.0), q_lower=Const(2.0),
                         r1_linear=Const(0.0), r1_tilde=Const(0.0),
                         r2_linear=Const(0.0), r2_tilde=Const(0.0))
    with pytest.raises(ValueError, match="q_lower"):
        m.check_positivity()


def test_check_positivity_samples_u_and_v_on_their_own_axes():
    # with q_lower = v, A22 = v + c u stays above the floor exactly when
    # c >= 0; sampling u along the v axis would miss the sign
    def model(a22):
        return CoefficientModel(alpha=0.0, p=Const(1.0), a12=Const(0.0),
                                a22=parse(a22), q_lower=parse("v"),
                                r1_linear=Const(0.0), r1_tilde=Const(0.0),
                                r2_linear=Const(0.0), r2_tilde=Const(0.0))
    model("v + 0.001*u").check_positivity()
    with pytest.raises(ValueError, match="A22"):
        model("v - 0.001*u").check_positivity()


def test_coefficient_model_reports_every_misplaced_variable():
    with pytest.raises(ValueError) as err:
        CoefficientModel(alpha=0.0, p=parse("u"), a12=Const(0.0),
                         a22=parse("1 + x"), q_lower=Const(1.0),
                         r1_linear=Const(0.0), r1_tilde=Const(0.0),
                         r2_linear=Const(0.0), r2_tilde=Const(0.0))
    assert str(err.value) == ("p may only use ['v']; found ['u']; "
                              "a22 may only use ['u', 'v']; found ['x']")


# ---------------------------------------------------------------------------
# dissipation density and the two power inequalities


def test_dissipation_density_oracle():
    assert dissipation_density(4.0, 1.0, 1.0) == 45.0  # (16-1)(3)


def test_dissipation_density_symmetry_and_unit():
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.0):
        assert dissipation_density(2.7, 2.7, alpha) == 0.0
        assert dissipation_density(1.0, 0.0, alpha) == 1.0


def test_dissipation_density_nonnegative_randomized():
    rng = np.random.default_rng(13)
    u1 = rng.uniform(0.0, 10.0, 20000)
    u2 = rng.uniform(0.0, 10.0, 20000)
    alpha = rng.uniform(0.0, 4.0, 20000)
    assert np.all(dissipation_density(u1, u2, alpha) >= 0.0)


def test_power_gap_inequality_oracle():
    lhs, rhs, holds = power_gap_inequality_check(4.0, 1.0, 1.0)
    assert lhs == 49.0              # (8 - 1)^2
    assert rhs == pytest.approx(50.625, rel=1e-15)  # 1.125 * 45
    assert bool(holds)


def test_power_gap_equal_arguments():
    lhs, rhs, holds = power_gap_inequality_check(3.3, 3.3, 2.0)
    assert lhs == 0.0 and rhs == 0.0 and bool(holds)


def test_power_gap_randomized_sweep():
    rng = np.random.default_rng(2718)
    u1 = rng.uniform(0.0, 10.0, 100000)
    u2 = rng.uniform(0.0, 10.0, 100000)
    alpha = rng.uniform(0.0, 4.0, 100000)
    _, _, holds = power_gap_inequality_check(u1, u2, alpha)
    assert np.all(holds)


def test_power_gap_exhaustive_rational_grid():
    pts = np.round(np.arange(0.0, 10.05, 0.1), 1)
    u1, u2 = np.meshgrid(pts, pts, indexing="ij")
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.0):
        _, _, holds = power_gap_inequality_check(u1, u2, alpha)
        assert np.all(holds), f"violated at alpha = {alpha}"


def test_mean_power_bound_oracle():
    # lhs = (16-1)^2 = 225 <= (1+1) 4^1 * 45 = 360
    assert np.all(mean_power_bounds_check(4.0, 1.0, 1.0, 4.0))
    lhs = (4.0 ** 2 - 1.0) ** 2
    bound = 2.0 * 4.0 * dissipation_density(4.0, 1.0, 1.0)
    assert lhs == 225.0 and bound == 360.0


def test_mean_power_bound_degenerate():
    assert np.all(mean_power_bounds_check(0.0, 0.0, 2.0, 5.0))


def test_mean_power_bound_randomized_sweep():
    rng = np.random.default_rng(3141)
    u1 = rng.uniform(0.0, 10.0, 100000)
    u2 = rng.uniform(0.0, 10.0, 100000)
    alpha = rng.uniform(0.0, 4.0, 100000)
    assert np.all(mean_power_bounds_check(u1, u2, alpha, 10.0))
    # sharper bound: M equal to the pairwise max
    assert np.all(mean_power_bounds_check(u1, u2, alpha,
                                          np.maximum(u1, u2)))


# ---------------------------------------------------------------------------
# Lipschitz probe


def test_lipschitz_exact_power_calibration():
    for gamma in (1.0, 1.5, 2.0):
        verdict = check_finite_gamma_lipschitz(
            parse(f"y^{gamma}"), gamma, 1.0, 1.0)
        assert verdict.verdict == "plausible"
        assert abs(verdict.estimated_constant - 1.0) <= 1e-3


def test_lipschitz_flags_square_root_divergence():
    verdict = check_finite_gamma_lipschitz(parse("y^0.5"), 1.5, 1.0, 1.0)
    assert verdict.verdict == "diverging"
    # the per-scale trace must actually show the blow-up it claims
    ratios = [r for _, r in verdict.max_ratio_trace]
    assert ratios[-1] / ratios[0] >= 1e5


def test_lipschitz_verdict_is_budget_robust():
    # the corner ladder is deterministic: the verdict must not flip with
    # the sampling budget or the seed
    for budget in (1000, 2000, 20000):
        for seed in (0, 3):
            verdict = check_finite_gamma_lipschitz(
                parse("y^0.5"), 1.5, 1.0, 1.0, budget=budget, seed=seed)
            assert verdict.verdict == "diverging"
            good = check_finite_gamma_lipschitz(
                parse("y^1.5"), 1.5, 1.0, 1.0, budget=budget, seed=seed)
            assert good.verdict == "plausible"


def test_lipschitz_example_product_powers_plausible():
    # f = y^a z^b with a >= gamma
    verdict = check_finite_gamma_lipschitz(parse("y^2 * v"), 1.5, 1.0, 1.0)
    assert verdict.verdict == "plausible"
    assert math.isfinite(verdict.estimated_constant)


def test_lipschitz_z_only_constant_at_most_one():
    verdict = check_finite_gamma_lipschitz(Var("v"), 2.0, 1.0, 1.0)
    assert verdict.verdict == "plausible"
    assert verdict.estimated_constant <= 1.0 + 1e-9


def test_lipschitz_domain_failure_reports_diverging():
    verdict = check_finite_gamma_lipschitz(parse("ln(y)"), 1.5, 1.0, 1.0)
    assert verdict.verdict == "diverging"
    assert verdict.witness_pair is not None


def test_lipschitz_compiles_f_once_per_call(monkeypatch):
    # sqrt(y - 0.5) fails on part of every batch, so each scan falls back
    # to evaluating its pairs one by one, with the same program
    f = parse("sqrt(y - 0.5)")
    compiled = []

    def counting_compile(e):
        compiled.append(e)
        return exprs.compile(e)
    monkeypatch.setattr(coeffs, "compile", counting_compile)
    verdict = check_finite_gamma_lipschitz(f, 1.5, 1.0, 1.0, budget=1000)
    assert verdict.verdict == "diverging"
    assert compiled == [f]


def test_lipschitz_witness_attains_estimate():
    verdict = check_finite_gamma_lipschitz(parse("y^1.5 * v"), 1.5, 1.0, 1.0)
    (y1, z1), (y2, z2) = verdict.witness_pair
    num = abs(evaluate(parse("y^1.5 * v"), {"y": y1, "v": z1})
              - evaluate(parse("y^1.5 * v"), {"y": y2, "v": z2}))
    den = abs(y1 ** 1.5 - y2 ** 1.5) + abs(z1 - z2)
    assert num / den == pytest.approx(verdict.estimated_constant, rel=1e-12)


def test_lipschitz_is_deterministic():
    a = check_finite_gamma_lipschitz(parse("y^2*v"), 1.5, 1.0, 1.0, seed=5)
    b = check_finite_gamma_lipschitz(parse("y^2*v"), 1.5, 1.0, 1.0, seed=5)
    assert a == b


def test_lipschitz_trace_scales_descend():
    verdict = check_finite_gamma_lipschitz(parse("y^1.5"), 1.5, 1.0, 1.0)
    scales = [s for s, _ in verdict.max_ratio_trace]
    assert scales == sorted(scales, reverse=True)
    assert len(scales) >= 4


def test_lipschitz_argument_validation():
    f = parse("y")
    with pytest.raises(ValueError, match="gamma"):
        check_finite_gamma_lipschitz(f, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="box"):
        check_finite_gamma_lipschitz(f, 1.5, -1.0, 1.0)
    with pytest.raises(ValueError, match="budget"):
        check_finite_gamma_lipschitz(f, 1.5, 1.0, 1.0, budget=10)
    with pytest.raises(ValueError):
        check_finite_gamma_lipschitz(parse("x"), 1.5, 1.0, 1.0)
