"""Stability harness: energy triple, identity, Gronwall balances, sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest

from crossdiff import stability
from crossdiff.coeffs import CoefficientModel, build_preset
from crossdiff.exprs import parse
from crossdiff.grid import Grid
from crossdiff.poisson import poincare_ratio, solve_neumann_zero_mean
from crossdiff.solver import PositivityError, SimConfig, Simulation
from crossdiff.stability import (GronwallTrace, gronwall_trace,
                                 perturbation_sweep, run_pair)
from test_solver import record


def energy_identity_check(grid, delta_us):
    """Discrete energy identity on a sequence of du snapshots at every step
    boundary (dense cadence): returns (lhs, rhs, |lhs - rhs|).

    lhs = 1/2 ||grad dpsi||^2 at the ends, rhs the trapezoidal duality sum,
    formed from the whole sequence at once; the sequence need not come from
    a PDE.  Raises ValueError when fewer than two snapshots are supplied.
    """
    if len(delta_us) < 2:
        raise ValueError("energy identity needs du at every step boundary; "
                         "rerun with dense cadence (output cadence 1)")
    delta_us = [np.asarray(du, dtype=float) for du in delta_us]
    sols = [solve_neumann_zero_mean(grid, du) for du in delta_us]
    lhs = 0.5 * sols[-1].grad_sq - 0.5 * sols[0].grad_sq
    rhs = 0.0
    for k in range(len(delta_us) - 1):
        rhs += float(np.sum((delta_us[k + 1] - delta_us[k])
                            * 0.5 * (sols[k].psi + sols[k + 1].psi))) \
            * grid.cell_volume
    return lhs, rhs, abs(lhs - rhs)


def make_model(alpha=0.0, p="1", a12="0", a22="1", q_lower="1",
               r1_linear="0", r1_tilde="0", r2_linear="0", r2_tilde="0"):
    return CoefficientModel(
        alpha=float(alpha), p=parse(p), a12=parse(a12), a22=parse(a22),
        q_lower=parse(q_lower), r1_linear=parse(r1_linear),
        r1_tilde=parse(r1_tilde), r2_linear=parse(r2_linear),
        r2_tilde=parse(r2_tilde))


HEAT = make_model()


def heat_config(n=64, dt=2e-4, t_end=0.05, cadence=1):
    return SimConfig(grid=Grid((n,), (1.0,)), model=HEAT, dt=dt, t_end=t_end,
                     ic_u=parse("1.5"), ic_v=parse("1"),
                     output_every=cadence, lin_tol=1e-12)


@pytest.fixture(scope="module")
def heat_pair():
    cfg = heat_config()
    return cfg, run_pair(cfg, parse("1.5 + 0.01*cos(pi*x)"), parse("1"))


def case2_config(n=48, dt=2.5e-4, t_end=0.02, cadence=8):
    return SimConfig(grid=Grid((n,), (1.0,)),
                     model=build_preset(2, {"chi": 0.25, "l": 0.5}),
                     dt=dt, t_end=t_end,
                     ic_u=parse("1 + 0.5*cos(pi*x)"),
                     ic_v=parse("1 + 0.2*cos(pi*x)"),
                     output_every=cadence, lin_tol=1e-12)


# ---------------------------------------------------------------------------
# pair runs


def test_identical_data_gives_exactly_zero_energy():
    cfg = heat_config(n=32, dt=1e-3, t_end=0.01)
    report = run_pair(cfg, cfg.ic_u, cfg.ic_v)
    assert all(e == 0.0 for e in report.energy)
    assert all(d == 0.0 for d in report.dissipation)
    assert report.sup_e == 0.0
    assert report.e0 == 0.0
    assert report.c_hat == 0.0
    assert report.lambda_hat == 0.0
    assert report.energy_identity_residual == 0.0


def test_energy_equals_sum_of_components(heat_pair):
    _, report = heat_pair
    for e, a, b, c in zip(report.energy, report.comp_mass, report.comp_hm1,
                          report.comp_v):
        assert e == a + b + c


def test_heat_pair_initial_energy_matches_eigenmode_value(heat_pair):
    # du0 = 0.01 cos(pi x): ||grad dpsi||^2 = eps^2/(2 pi^2), zero mass/v parts
    _, report = heat_pair
    expected = 1e-4 / (2.0 * math.pi ** 2)
    assert report.e0 == pytest.approx(expected, rel=1e-3)
    assert report.comp_mass[0] <= 1e-30
    assert report.comp_v[0] == 0.0


def test_heat_pair_decay_rate_is_twice_the_eigenvalue(heat_pair):
    _, report = heat_pair
    expected = -2.0 * math.pi ** 2
    assert report.lambda_hat == pytest.approx(expected, rel=5e-2)
    assert report.sup_e == report.energy[0]  # monotone decay
    assert report.c_hat == 1.0


def test_heat_pair_energy_identity_is_tight(heat_pair):
    _, report = heat_pair
    lhs = abs(0.5 * report.comp_hm1[-1] - 0.5 * report.comp_hm1[0])
    assert report.energy_identity_residual <= 1e-10 * (1.0 + lhs)


def test_dense_pair_at_n_1024_with_step_tol_1e_12():
    # the delta-psi solves take no tolerance, so a step tolerance that the
    # stiff step solves attain no longer has to suit the Poisson solves too
    cfg = heat_config(n=1024, dt=1e-5, t_end=2e-4)
    report = run_pair(cfg, parse("1.5 + 0.01*cos(pi*x)"), parse("1"))
    lhs = abs(0.5 * report.comp_hm1[-1] - 0.5 * report.comp_hm1[0])
    assert report.energy_identity_residual <= 1e-10 * (1.0 + lhs)
    assert 0.0 < report.energy[-1] < report.energy[0]


def test_initial_energy_obeys_quadratic_control(heat_pair):
    # ||grad dpsi0||^2 <= C_P ||du0||^2 with C_P the Poincare ratio
    cfg, report = heat_pair
    g = cfg.grid
    x = g.axes["x"]
    du0 = 0.01 * np.cos(math.pi * x)
    q = float(np.sum(du0 ** 2)) * g.cell_volume
    ratio = poincare_ratio(g)
    assert report.comp_hm1[0] <= ratio * q * (1.0 + 1e-6)


def test_mass_component_persists_under_zero_reactions():
    cfg = heat_config(n=32, dt=1e-3, t_end=0.02, cadence=4)
    report = run_pair(cfg, parse("1.6"), parse("1"))
    for m in report.comp_mass:
        assert m == pytest.approx(0.01, rel=1e-10)


def test_case2_pair_dissipation_is_nonnegative_and_accumulates():
    cfg = case2_config()
    report = run_pair(cfg, parse("1.01 + 0.5*cos(pi*x)"),
                      parse("1 + 0.2*cos(pi*x)"))
    assert all(d >= 0.0 for d in report.dissipation)
    assert report.cum_dissipation == sorted(report.cum_dissipation)
    assert report.cum_dissipation[0] == 0.0
    assert report.dissipation[0] > 0.0
    assert report.v_range[0] > 0.0
    assert report.times[0] == 0.0 and report.times[-1] == cfg.t_end
    assert report.energy_identity_residual is None  # coarse cadence


def test_run_and_pair_tick_at_the_same_times():
    # 11 steps, the last one shortened to 0.05; cadence 4 does not divide 11
    cfg = SimConfig(grid=Grid((16,), (1.0,)), model=HEAT, dt=0.1, t_end=1.05,
                    ic_u=parse("1 + 0.1*cos(pi*x)"), ic_v=parse("1"),
                    output_every=4)
    run_times = [row.t for row in record(cfg).diagnostics]
    pair = run_pair(cfg, parse("1 + 0.2*cos(pi*x)"), parse("1"))
    assert pair.times == run_times == [0.0, 0.4, 0.8, 1.05]


def test_run_pair_tags_the_failing_trajectory():
    m = make_model(r2_tilde="-2")
    cfg = SimConfig(grid=Grid((8,), (1.0,)), model=m, dt=0.05, t_end=0.1,
                    ic_u=parse("1"), ic_v=parse("3"))
    with pytest.raises(PositivityError, match="second trajectory") as err:
        run_pair(cfg, parse("1"), parse("0.05"))
    assert "first" not in str(err.value)


def test_run_pair_rejects_manufactured_configs():
    # a manufactured config has one forcing for one solution; no twin
    cfg = SimConfig(grid=Grid((16,), (1.0,)), model=HEAT, dt=1e-3,
                    t_end=1e-2, mms_u=parse("2 + exp(-t)*cos(pi*x)"),
                    mms_v=parse("2"))
    with pytest.raises(ValueError, match="manufactured"):
        run_pair(cfg, parse("2 + 1.01*cos(pi*x)"), parse("2"))


# ---------------------------------------------------------------------------
# energy identity on synthetic sequences


def synthetic_sequence(grid, steps, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(loc=rng.uniform(-1, 1), scale=1.0, size=grid.shape)
            for _ in range(steps)]


@pytest.mark.parametrize("shape,lengths", [((48,), (1.0,)),
                                           ((12, 9), (1.0, 2.0))])
def test_energy_identity_on_synthetic_sequences(shape, lengths):
    grid = Grid(shape, lengths)
    dus = synthetic_sequence(grid, 15, seed=hash(shape) % 1000)
    lhs, rhs, diff = energy_identity_check(grid, dus)
    assert diff <= 1e-10 * (1.0 + abs(lhs))
    assert diff == abs(lhs - rhs)


def test_energy_identity_requires_dense_sequences():
    grid = Grid((16,), (1.0,))
    with pytest.raises(ValueError, match="dense"):
        energy_identity_check(grid, [np.ones(16)])


@pytest.mark.parametrize("model", [HEAT, build_preset(2, {"chi": 0.25,
                                                          "l": 0.5})])
def test_streaming_identity_residual_equals_the_whole_sequence_check(
        monkeypatch, model):
    # the pair keeps only the last (du, dpsi) of each tick; the reference
    # solves every recorded du again and sums over the whole sequence
    dus = []
    solve = stability.solve_neumann_zero_mean

    def recording(grid, du):
        dus.append(du.copy())
        return solve(grid, du)
    monkeypatch.setattr(stability, "solve_neumann_zero_mean", recording)
    cfg = replace(heat_config(n=48, dt=5e-4, t_end=0.02), model=model)
    report = run_pair(cfg, parse("1.5 + 0.01*cos(pi*x) + 0.02*cos(3*pi*x)"),
                      parse("1 + 0.01*cos(2*pi*x)"))
    assert len(dus) == len(report.times) == 41
    assert report.energy_identity_residual == \
        energy_identity_check(cfg.grid, dus)[2]
    assert report.energy_identity_residual > 0.0


# ---------------------------------------------------------------------------
# Gronwall balances


def test_gronwall_identical_pair_is_all_zero():
    cfg = heat_config(n=32, dt=1e-3, t_end=0.01)
    report = run_pair(cfg, cfg.ic_u, cfg.ic_v)
    trace = gronwall_trace(report, cfg.model)
    assert all(b == 0.0 for b in trace.balance)
    assert all(b == 0.0 for b in trace.balance_dissipative)
    assert trace.defect == 0.0
    assert trace.defect_dissipative == 0.0
    assert trace.gronwall_constant == 0.0


def test_gronwall_heat_balance_closes(heat_pair):
    cfg, report = heat_pair
    trace = gronwall_trace(report, cfg.model)
    assert isinstance(trace, GronwallTrace)
    assert trace.c0 == 1.0  # p = 1, alpha = 0
    assert trace.defect <= 1e-3
    assert trace.gronwall_constant == 0.0  # strict decay needs no constant
    assert len(trace.times) == len(report.times)
    for b, bd in zip(trace.balance, trace.balance_dissipative):
        assert bd >= b  # dissipation only adds


def test_gronwall_case2_constant_and_c0():
    cfg = case2_config()
    report = run_pair(cfg, parse("1.01 + 0.5*cos(pi*x)"),
                      parse("1 + 0.2*cos(pi*x)"))
    trace = gronwall_trace(report, cfg.model)
    # p(v) = v, alpha = 1: c0 = v_min / 2
    assert trace.c0 == pytest.approx(report.v_range[0] / 2.0, rel=1e-12)
    assert trace.defect >= 0.0
    assert trace.defect_dissipative >= trace.defect - 1e-15
    assert trace.gronwall_constant >= 0.0


# ---------------------------------------------------------------------------
# perturbation sweep


def test_sweep_linear_problem_has_flat_ratios():
    cfg = heat_config(n=48, dt=5e-4, t_end=0.02, cadence=5)
    result = perturbation_sweep(cfg, parse("cos(pi*x)"), parse("0"),
                                [1e-2, 1e-3, 1e-4])
    assert len(result.rows) == 3
    ratios = [row.ratio for row in result.rows]
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-6)
    assert result.spread <= 1.0 + 1e-6
    assert result.bounded
    for row in result.rows:
        assert row.q0 == pytest.approx(row.amplitude ** 2 / 2.0, rel=1e-12)


def test_sweep_zero_amplitude_row_is_zero():
    cfg = heat_config(n=32, dt=1e-3, t_end=0.01, cadence=5)
    result = perturbation_sweep(cfg, parse("cos(pi*x)"), parse("0"),
                                [1e-2, 0.0])
    zero = result.rows[-1]
    assert zero.q0 == 0.0
    assert zero.e0 == 0.0
    assert zero.sup_e == 0.0
    assert zero.ratio == 0.0
    assert result.spread == 1.0  # single positive row


def test_sweep_batch_matches_single_amplitude_sweeps():
    # the batch shares its CG steps; each row must still be the pair's own
    cfg = case2_config()
    du, dv = parse("cos(pi*x)"), parse("0.5*cos(2*pi*x)")
    amps = [1e-2, 1e-3, 1e-4]
    batch = perturbation_sweep(cfg, du, dv, amps)
    for row, eps in zip(batch.rows, amps):
        alone = perturbation_sweep(cfg, du, dv, [eps]).rows[0]
        assert row.amplitude == alone.amplitude
        assert row.q0 == alone.q0
        assert row.e0 == alone.e0
        for name in ("sup_e", "ratio", "c_hat", "lambda_hat"):
            assert getattr(row, name) == pytest.approx(
                getattr(alone, name), rel=1e-6, abs=0.0), name


def test_identical_members_stay_bitwise_identical_at_odd_n():
    cfg = case2_config(n=33, cadence=4)
    u0, v0 = cfg.initial_fields()
    sim = Simulation(cfg, members=[(u0, v0), (1.01 * u0, v0), (u0, v0)])
    for _ in range(20):
        sim.step(cfg.dt)
        assert np.array_equal(sim.u[0], sim.u[2])
        assert np.array_equal(sim.v[0], sim.v[2])
    assert not np.array_equal(sim.u[0], sim.u[1])
    result = perturbation_sweep(cfg, parse("cos(pi*x)"), parse("0"),
                                [1e-2, 0.0])
    zero = result.rows[-1]
    assert (zero.q0, zero.e0, zero.sup_e, zero.ratio, zero.c_hat,
            zero.lambda_hat) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert result.rows[0].sup_e > 0.0


def test_sweep_positivity_failure_names_the_amplitude():
    m = make_model(r2_tilde="-2")
    cfg = SimConfig(grid=Grid((8,), (1.0,)), model=m, dt=0.05, t_end=0.1,
                    ic_u=parse("1"), ic_v=parse("3"))
    with pytest.raises(PositivityError, match="amplitude 2.95") as err:
        perturbation_sweep(cfg, parse("0"), parse("-1"), [2.95, 0.5])
    assert "amplitude 0.5" not in str(err.value)
    assert "base" not in str(err.value)


def test_sweep_argument_validation():
    cfg = heat_config(n=16, dt=1e-3, t_end=0.01)
    du, dv = parse("cos(pi*x)"), parse("0")
    with pytest.raises(ValueError, match="nonempty"):
        perturbation_sweep(cfg, du, dv, [])
    with pytest.raises(ValueError, match="strictly decreasing"):
        perturbation_sweep(cfg, du, dv, [1e-3, 1e-2])
    with pytest.raises(ValueError, match="nonnegative"):
        perturbation_sweep(cfg, du, dv, [1e-2, -1e-3])
    with pytest.raises(ValueError, match="nonnegative"):
        perturbation_sweep(cfg, du, dv, [1e-2, math.nan])
    mms_cfg = replace(cfg, ic_u=None, ic_v=None,
                      mms_u=parse("2 + exp(-t)*cos(pi*x)"), mms_v=parse("2"))
    with pytest.raises(ValueError, match="not pairable"):
        perturbation_sweep(mms_cfg, du, dv, [1e-2])
