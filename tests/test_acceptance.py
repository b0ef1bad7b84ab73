"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with -v for a per-criterion pass/fail line; every test also
prints the measured quantities against their bounds."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from crossdiff import solver
from crossdiff.cli import load_config, main
from crossdiff.coeffs import CoefficientModel, check_finite_gamma_lipschitz
from crossdiff.exprs import parse
from crossdiff.grid import Grid
from crossdiff.poisson import poincare_ratio, solve_neumann_zero_mean
from crossdiff.stability import perturbed, run_pair

from exprgen import derivative_agreement_failures
from test_coeffs import mean_power_bounds_check, power_gap_inequality_check
from test_poisson import SMALL_GRIDS, dense_pinned_solve
from test_solver import record
from test_stability import energy_identity_check

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCENARIOS = ("case2_run_1d", "case4_run_1d", "case2_run_2d",
             "heat_stability", "case2_sweep_1d")


@pytest.fixture(scope="session")
def shipped():
    return {path.stem: load_config(path)
            for path in sorted(CONFIG_DIR.glob("*.json"))}


@pytest.fixture(scope="session")
def scenario_runs(shipped):
    """Base simulation of every shipped scenario config."""
    return {name: record(shipped[name].sim) for name in SCENARIOS}


@pytest.fixture(scope="session")
def heat_report(shipped):
    """The shipped heat stability pair (amplitude 0.01, dense cadence)."""
    cfg = shipped["heat_stability"]
    return run_pair(cfg.sim, *perturbed(cfg.sim, cfg.du, cfg.dv,
                                        cfg.amplitudes[0]))


@pytest.fixture(scope="session")
def heat_tiny_report(shipped):
    """The same pair at amplitude 1e-8."""
    cfg = shipped["heat_stability"]
    return run_pair(cfg.sim, *perturbed(cfg.sim, cfg.du, cfg.dv, 1e-8))


def test_criterion_01_poisson_dense_oracle_and_eigenmode_convergence():
    start = time.monotonic()
    worst = 0.0
    for grid in SMALL_GRIDS:  # every shape is at most 32 cells per axis
        rng = np.random.default_rng(grid.cell_count)
        w = rng.standard_normal(grid.shape)
        expected = dense_pinned_solve(grid, w)
        sol = solve_neumann_zero_mean(grid, w)
        worst = max(worst, float(np.max(np.abs(sol.psi - expected))))
    assert worst <= 1e-10

    errors = {}
    for n in (64, 128, 256):
        g = Grid((n,), (1.0,))
        x = g.axes["x"]
        w = np.cos(math.pi * x)
        sol = solve_neumann_zero_mean(g, w)
        errors[n] = float(np.max(np.abs(sol.psi - w / math.pi ** 2)))
        assert sol.iterations <= 5
    orders = [math.log(errors[64] / errors[128], 2.0),
              math.log(errors[128] / errors[256], 2.0)]
    elapsed = time.monotonic() - start
    print(f"criterion 1: dense-oracle max error {worst:.2e} <= 1e-10; "
          f"eigen error(n=256) {errors[256]:.2e} <= 5e-4; "
          f"orders {orders[0]:.3f}, {orders[1]:.3f} in [1.8, 2.2]; "
          f"{elapsed:.2f}s < 5s")
    assert errors[256] <= 5e-4
    for order in orders:
        assert 1.8 <= order <= 2.2
    assert elapsed < 5.0


def test_criterion_02_sharp_inequalities_random_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    n = 10 ** 5
    u1 = rng.uniform(0.0, 10.0, n)
    u2 = rng.uniform(0.0, 10.0, n)
    alpha = rng.uniform(0.0, 4.0, n)
    alpha[:2] = (0.0, 4.0)  # pin the endpoints of the exponent range

    lhs, rhs, holds = power_gap_inequality_check(u1, u2, alpha)
    gap_violations = int(np.sum(~holds))
    m = np.maximum(u1, u2)
    mean_holds = mean_power_bounds_check(u1, u2, alpha, m)
    mean_violations = int(np.sum(~mean_holds))
    elapsed = time.monotonic() - start
    print(f"criterion 2: {n} samples u in [0,10]^2, alpha in [0,4]; "
          f"power-gap violations {gap_violations} = 0, "
          f"mean-power violations {mean_violations} = 0 "
          f"(1e-12 relative slack); {elapsed:.2f}s < 1s")
    assert gap_violations == 0
    assert mean_violations == 0
    assert np.all(lhs >= 0.0) and np.all(rhs >= 0.0)
    assert elapsed < 1.0


def test_criterion_03_conservation_clip_ledger_positivity(scenario_runs):
    # (a) zero reactions: exact mass conservation over 1000 steps at n = 64
    model = CoefficientModel(
        alpha=1.0, p=parse("v"), a12=parse("-0.25*u^2*v"), a22=parse("1"),
        q_lower=parse("1"), r1_linear=parse("0"), r1_tilde=parse("0"),
        r2_linear=parse("0"), r2_tilde=parse("0"))
    cfg = solver.SimConfig(grid=Grid((64,), (1.0,)), model=model, dt=2.5e-4,
                           t_end=0.25, ic_u=parse("1 + 0.5*cos(pi*x)"),
                           ic_v=parse("1 + 0.2*cos(pi*x)"), output_every=50,
                           lin_tol=1e-11)
    result = record(cfg)
    mass0 = result.diagnostics[0].mass_u
    drift = max(abs(row.mass_u - mass0) for row in result.diagnostics)
    assert drift <= 1e-12 * mass0

    # (b) clip ledger on every shipped scenario's base run
    worst_clip = 0.0
    for name, run in scenario_runs.items():
        m0 = run.diagnostics[0].mass_u
        assert run.clipped_total <= 1e-10 * m0, name
        worst_clip = max(worst_clip, run.clipped_total / m0)

    # (c) v stays positive (and u nonnegative) throughout, including the
    # case-2 and case-4 scenarios integrated to T = 1
    for name in ("case2_run_1d", "case4_run_1d"):
        assert scenario_runs[name].diagnostics[-1].t == 1.0, name
    min_v = min(row.min_v for run in scenario_runs.values()
                for row in run.diagnostics)
    min_u = min(row.min_u for run in scenario_runs.values()
                for row in run.diagnostics)
    print(f"criterion 3: R=0 mass drift {drift / mass0:.2e} <= 1e-12 "
          f"(1000 steps, n=64); worst clip ledger {worst_clip:.2e} <= 1e-10; "
          f"min v over all scenarios {min_v:.4f} > 0; min u {min_u:.2e} >= 0")
    assert min_v > 0.0
    assert min_u >= 0.0


def test_criterion_04_manufactured_solution_orders(tmp_path):
    start = time.monotonic()
    measured = {}
    for name in ("mms_heat", "mms_case2"):
        out = tmp_path / name
        rc = main([str(CONFIG_DIR / f"{name}.json"),
                   "--output-dir", str(out)])
        assert rc == 0
        measured[name] = json.loads((out / "summary.json").read_text(
            encoding="utf-8"))
    elapsed = time.monotonic() - start
    for name, summary in measured.items():
        print(f"criterion 4 [{name}]: spatial orders "
              f"u {summary['spatial_order_u']:.3f}, "
              f"v {summary['spatial_order_v']:.3f} in [1.8, 2.2]; temporal "
              f"u {summary['temporal_order_u']:.3f}, "
              f"v {summary['temporal_order_v']:.3f} in [0.8, 1.2]")
        for key in ("spatial_order_u", "spatial_order_v"):
            assert 1.8 <= summary[key] <= 2.2, (name, key)
        for key in ("temporal_order_u", "temporal_order_v"):
            assert 0.8 <= summary[key] <= 1.2, (name, key)
    print(f"criterion 4: levels 32/64/128 with dt ~ h^2; "
          f"{elapsed:.1f}s < 120s")
    assert elapsed < 120.0


def test_criterion_05_energy_identity(heat_report):
    worst = 0.0
    for shape, lengths, seed in (((48,), (1.0,), 5), ((12, 9), (1.0, 2.0), 6)):
        grid = Grid(shape, lengths)
        rng = np.random.default_rng(seed)
        dus = [rng.normal(loc=rng.uniform(-1, 1), scale=1.0, size=shape)
               for _ in range(16)]
        lhs, _, diff = energy_identity_check(grid, dus)
        assert diff <= 1e-10 * (1.0 + abs(lhs))
        worst = max(worst, diff / (1.0 + abs(lhs)))

    pair_lhs = abs(0.5 * heat_report.comp_hm1[-1]
                   - 0.5 * heat_report.comp_hm1[0])
    pair_res = heat_report.energy_identity_residual
    print(f"criterion 5: synthetic-sequence residual {worst:.2e} <= 1e-10; "
          f"heat-pair residual {pair_res:.2e} <= "
          f"{1e-10 * (1.0 + pair_lhs):.2e}")
    assert pair_res <= 1e-10 * (1.0 + pair_lhs)


def test_criterion_06_uniqueness_of_discrete_solutions(shipped,
                                                       heat_tiny_report):
    sim = shipped["heat_stability"].sim
    identical = run_pair(sim, sim.ic_u, sim.ic_v)
    print(f"criterion 6: identical data sup E = {identical.sup_e!r} "
          f"(exactly 0.0); amplitude 1e-8 sup E = "
          f"{heat_tiny_report.sup_e:.2e} <= 1e-12")
    assert identical.sup_e == 0.0
    assert all(e == 0.0 for e in identical.energy)
    assert heat_tiny_report.sup_e <= 1e-12


def test_criterion_07_stability_sweep_and_decay_rate(
        tmp_path, heat_report, heat_tiny_report):
    start = time.monotonic()
    out = tmp_path / "sweep"
    rc = main([str(CONFIG_DIR / "case2_sweep_1d.json"),
               "--output-dir", str(out)])
    assert rc == 0
    elapsed = time.monotonic() - start
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["bounded"] is True
    assert summary["spread"] <= 4.0

    # the heat pair ratio sup E / Q is amplitude-independent (linearity)
    ratios = {}
    for eps, report in ((1e-2, heat_report), (1e-8, heat_tiny_report)):
        q0 = eps ** 2 * 0.5  # integral of (eps cos(pi x))^2 on [0, 1]
        ratios[eps] = report.sup_e / q0
    drift = abs(ratios[1e-2] - ratios[1e-8]) / ratios[1e-2]
    rate = heat_report.lambda_hat
    expected = -2.0 * math.pi ** 2
    rate_err = abs(rate - expected) / abs(expected)
    print(f"criterion 7: case-2 sweep ratio spread {summary['spread']:.3f} "
          f"<= 4 over amplitudes 1e-2/5e-3/2.5e-3; heat ratio drift "
          f"{drift:.2e} <= 1e-6; decay rate {rate:.3f} vs -2pi^2 "
          f"({100 * rate_err:.2f}% <= 5%); sweep {elapsed:.1f}s < 300s")
    assert drift <= 1e-6
    assert rate_err <= 5e-2
    assert elapsed < 300.0


def test_criterion_08_lipschitz_verdict_trio():
    calibrated = check_finite_gamma_lipschitz(parse("y^1.5"), 1.5, 1.0, 1.0)
    sqrt = check_finite_gamma_lipschitz(parse("y^0.5"), 1.5, 1.0, 1.0)
    product = check_finite_gamma_lipschitz(parse("y^2 * v"), 1.5, 1.0, 1.0)
    print(f"criterion 8: y^1.5 -> {calibrated.verdict}, constant "
          f"{calibrated.estimated_constant:.6f} in 1 +/- 1e-3; "
          f"y^0.5 -> {sqrt.verdict}; y^2*v -> {product.verdict}")
    assert calibrated.verdict == "plausible"
    assert abs(calibrated.estimated_constant - 1.0) <= 1e-3
    assert sqrt.verdict == "diverging"
    assert product.verdict == "plausible"


def test_criterion_09_symbolic_derivatives_match_finite_differences():
    failures = derivative_agreement_failures(seed=0, pairs=1000, tol=1e-6)
    print(f"criterion 9: {len(failures)} of 1000 random "
          f"(expression, variable) pairs disagree beyond 1e-6 relative")
    assert failures == []


def test_criterion_10_poincare_constant_and_length_scaling():
    base = poincare_ratio(Grid((256,), (1.0,)))
    expected = 1.0 / math.pi ** 2
    base_err = abs(base - expected) / expected
    doubled = poincare_ratio(Grid((256,), (2.0,)))
    scaling_err = abs(doubled / base - 4.0) / 4.0
    print(f"criterion 10: Poincare ratio {base:.6f} vs 1/pi^2 "
          f"({100 * base_err:.3f}% <= 2%); L=2 scaling "
          f"{doubled / base:.4f} vs 4 ({100 * scaling_err:.3f}% <= 2%)")
    assert base_err <= 0.02
    assert scaling_err <= 0.02
