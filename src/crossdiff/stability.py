"""Paired-trajectory stability harness.

Trajectories from nearby initial data advance as one batch (one
Simulation with a leading member axis), and the difference between each
perturbed member and the base member is measured in the triple the
continuous theory controls,

    E(t) = (integral du)^2 + ||grad dpsi||^2 + ||dv||_2^2,

where -lap(dpsi) = du - mean(du) with no-flux boundaries and zero mean,
together with the degenerate-diffusion dissipation

    D(t) = integral (u1^(1+alpha) - u2^(1+alpha)) (u1 - u2) >= 0.

The harness reports the empirical stability constant C_hat(T) =
sup_t E(t)/E(0), a least-squares exponential rate lambda_hat for E, and in
dense-cadence mode the exact discrete energy identity

    1/2 ||grad dpsi(T)||^2 - 1/2 ||grad dpsi(0)||^2
        = sum_k < du^{k+1} - du^k, (dpsi^k + dpsi^{k+1})/2 >,

which holds algebraically for the discrete zero-mean operator (the mean
shifts pair to zero against the zero-mean dpsi).  dpsi is solved directly
from du, never by differencing two large solves, so the result is accurate
relative to the perturbation size rather than the solution size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .coeffs import CoefficientModel, dissipation_density
from .exprs import Const, Expr, evaluate, mul
from .grid import Field, Grid, grad_sq_sum
from .poisson import solve_neumann_zero_mean
from .solver import PositivityError, SimConfig, Simulation, time_grid

FIT_FLOOR_FRACTION = 1e-2   # fit lambda_hat only where E > this fraction of E(0)
RATIO_SPREAD_BOUND = 4.0    # acceptance bound for the sweep ratio spread


@dataclass
class StabilityReport:
    times: list
    energy: list            # E(t) per tick
    comp_mass: list         # (integral du)^2
    comp_hm1: list          # ||grad dpsi||^2
    comp_v: list            # ||dv||_2^2
    dissipation: list       # D(t)
    cum_dissipation: list   # trapezoidal integral of D up to each tick
    e0: float
    sup_e: float
    c_hat: float            # sup_t E / E(0); 0 when E(0) = 0
    lambda_hat: float       # OLS slope of log E over the fit window
    energy_identity_residual: Optional[float]  # dense cadence only
    v_range: tuple          # (min, max) of v over both trajectories and ticks


def _ols_log_rate(times: Sequence[float], energy: Sequence[float],
                  e0: float) -> float:
    """Least-squares slope of log E(t) where E exceeds the fit floor."""
    ts, ys = [], []
    floor = FIT_FLOOR_FRACTION * e0
    for t, e in zip(times, energy):
        if e > floor and e > 0.0:
            ts.append(t)
            ys.append(math.log(max(e, 1e-300)))
    if len(ts) < 2 or e0 <= 0.0:
        return 0.0
    t_arr = np.asarray(ts)
    y_arr = np.asarray(ys)
    t_arr = t_arr - t_arr.mean()
    denom = float(np.sum(t_arr * t_arr))
    if denom == 0.0:
        return 0.0
    return float(np.sum(t_arr * (y_arr - y_arr.mean())) / denom)


def _trapezoid_cumulative(times: Sequence[float],
                          values: Sequence[float]) -> list:
    out = [0.0]
    for k in range(1, len(times)):
        out.append(out[-1] + 0.5 * (times[k] - times[k - 1])
                   * (values[k] + values[k - 1]))
    return out


def run_pair(cfg: SimConfig, ic2_u: Expr, ic2_v: Expr) -> StabilityReport:
    """Evolve (u1, v1) from cfg's initial data and (u2, v2) from (ic2_u,
    ic2_v) with identical discretization, as one batch of two; measure E, D
    at every cadence tick.

    The energy identity residual is computed when cfg.output_every == 1
    (dense mode) and is None otherwise.  A positivity failure is re-raised
    tagged with the trajectory that failed.  Manufactured-solution configs
    are rejected with ValueError.
    """
    if cfg.ic_u is None or cfg.ic_v is None:
        raise ValueError("a paired run perturbs explicit initial data; "
                         "manufactured-solution configs are not pairable")
    return _run_batch(cfg, [(ic2_u, ic2_v)],
                      ("first trajectory", "second trajectory"))[0]


def _run_batch(cfg: SimConfig, others: Sequence[tuple],
               labels: Sequence[str]) -> list:
    """Step cfg's initial data (member 0, the base) and each (ic_u, ic_v) of
    `others` as one batch; return one StabilityReport per other member,
    measured against the base at every cadence tick.

    Each member's data is validated as its own config.  A PositivityError
    is re-raised naming the failing members by their `labels`.
    """
    cfg.validate()
    members = [cfg.initial_fields()]
    for ic_u, ic_v in others:
        cfg_i = replace(cfg, ic_u=ic_u, ic_v=ic_v)
        cfg_i.validate()
        members.append(cfg_i.initial_fields())
    sim = Simulation(cfg, validate=False,
                     members=[(u.values, v.values) for u, v in members])
    grid = cfg.grid
    vol = grid.cell_volume
    alpha = cfg.model.alpha
    dense = cfg.output_every == 1

    times = [0.0]
    names = ("energy", "comp_mass", "comp_hm1", "comp_v", "dissipation",
             "delta_u", "psi")
    series = [{name: [] for name in names} for _ in others]
    v_min = np.full(len(members), math.inf)
    v_max = np.full(len(members), -math.inf)

    def tick():
        u, v = sim.u, sim.v
        for j, rec in enumerate(series, start=1):
            du = u[0] - u[j]
            dv = v[0] - v[j]
            sol = solve_neumann_zero_mean(grid, Field(grid, du))
            mass_sq = (float(np.sum(du)) * vol) ** 2
            hm1_sq = grad_sq_sum(grid, sol.psi.values)
            v_sq = float(np.sum(dv * dv)) * vol
            rec["comp_mass"].append(mass_sq)
            rec["comp_hm1"].append(hm1_sq)
            rec["comp_v"].append(v_sq)
            rec["energy"].append(mass_sq + hm1_sq + v_sq)
            rec["dissipation"].append(float(np.sum(
                dissipation_density(u[0], u[j], alpha))) * vol)
            if dense:
                rec["delta_u"].append(du)
                rec["psi"].append(sol.psi.values)
        flat = v.reshape(len(v), -1)
        np.minimum(v_min, flat.min(axis=1), out=v_min)
        np.maximum(v_max, flat.max(axis=1), out=v_max)

    tick()
    step_times = time_grid(cfg.dt, cfg.t_end)
    t_prev = 0.0
    for k, t_next in enumerate(step_times):
        try:
            sim.step(t_next - t_prev, t_next)
        except PositivityError as err:
            failing = " and ".join(labels[i] for i in err.members)
            err.args = (f"{failing}: {err.args[0]}",) + err.args[1:]
            raise
        t_prev = t_next
        if (k + 1) % cfg.output_every == 0 or k + 1 == len(step_times):
            times.append(t_next)
            tick()

    reports = []
    for j, rec in enumerate(series, start=1):
        energy = rec["energy"]
        e0 = energy[0]
        sup_e = max(energy)
        residual = None
        if dense:
            residual = _identity_residual(grid, rec["delta_u"],
                                          rec["psi"])[2]
        reports.append(StabilityReport(
            times=list(times), energy=energy, comp_mass=rec["comp_mass"],
            comp_hm1=rec["comp_hm1"], comp_v=rec["comp_v"],
            dissipation=rec["dissipation"],
            cum_dissipation=_trapezoid_cumulative(times, rec["dissipation"]),
            e0=e0, sup_e=sup_e,
            c_hat=(sup_e / e0 if e0 > 0.0 else 0.0),
            lambda_hat=_ols_log_rate(times, energy, e0),
            energy_identity_residual=residual,
            v_range=(float(min(v_min[0], v_min[j])),
                     float(max(v_max[0], v_max[j]))),
        ))
    return reports


def _identity_residual(grid: Grid, delta_us: Sequence[np.ndarray],
                       psis: Sequence[np.ndarray]) -> tuple:
    """(lhs, rhs, |lhs - rhs|) of the discrete energy identity: lhs is
    1/2 ||grad dpsi||^2 at the ends, rhs the trapezoidal duality sum."""
    vol = grid.cell_volume
    lhs = 0.5 * grad_sq_sum(grid, psis[-1]) - 0.5 * grad_sq_sum(grid, psis[0])
    rhs = 0.0
    for k in range(len(delta_us) - 1):
        rhs += float(np.sum((delta_us[k + 1] - delta_us[k])
                            * 0.5 * (psis[k] + psis[k + 1]))) * vol
    return lhs, rhs, abs(lhs - rhs)


def energy_identity_check(grid: Grid, delta_us: Sequence[np.ndarray]):
    """Discrete energy identity on a sequence of du snapshots at every step
    boundary (dense cadence): returns (lhs, rhs, |lhs - rhs|).

    lhs = 1/2 ||grad dpsi||^2 at the ends, rhs the trapezoidal duality sum;
    the sequence need not come from a PDE.  Raises ValueError when fewer
    than two snapshots are supplied (cadence too coarse: dense mode with
    every step boundary recorded is required).
    """
    if len(delta_us) < 2:
        raise ValueError("energy identity needs du at every step boundary; "
                         "rerun with dense cadence (output cadence 1)")
    delta_us = [np.asarray(du, dtype=float) for du in delta_us]
    psis = [solve_neumann_zero_mean(grid, Field(grid, du)).psi.values
            for du in delta_us]
    return _identity_residual(grid, delta_us, psis)


# ---------------------------------------------------------------------------
# Gronwall balances

@dataclass
class GronwallTrace:
    times: list
    balance: list               # B(t) = E - E0 - lambda_hat * int E
    balance_dissipative: list   # E + (3 c0/8) int D - E0 - lambda_hat * int E
    c0: float                   # min p(v)/(1+alpha) over the observed v range
    defect: float               # max positive B relative to E0
    defect_dissipative: float
    gronwall_constant: float    # least C with E + (3c0/8) int D <= E0 + C int E


def gronwall_trace(report: StabilityReport,
                   model: CoefficientModel) -> GronwallTrace:
    """Per-time Gronwall balances for a completed report.

    The plain balance uses the fitted rate; for an exact exponential E it
    vanishes identically.  The dissipation-weighted balance adds the
    coercive term with c0 = min p(v)/(1 + alpha) sampled over the observed
    v range; the least constant closing that estimate is reported too.
    """
    e = report.energy
    e0 = report.e0
    lam = report.lambda_hat
    cum_e = _trapezoid_cumulative(report.times, e)
    cum_d = report.cum_dissipation

    v_lo, v_hi = report.v_range
    vv = np.linspace(v_lo, v_hi, 257)
    c0 = float(np.min(np.broadcast_to(evaluate(model.p, {"v": vv}),
                                      vv.shape))) / (1.0 + model.alpha)

    weight = 0.375 * c0
    balance = [ek - e0 - lam * ck for ek, ck in zip(e, cum_e)]
    balance_d = [ek + weight * dk - e0 - lam * ck
                 for ek, dk, ck in zip(e, cum_d, cum_e)]
    scale = e0 if e0 > 0.0 else 1.0
    constant = 0.0
    for ek, dk, ck in zip(e, cum_d, cum_e):
        if ck > 0.0:
            constant = max(constant, (ek + weight * dk - e0) / ck)
    return GronwallTrace(
        times=list(report.times),
        balance=balance,
        balance_dissipative=balance_d,
        c0=c0,
        defect=max(0.0, max(balance)) / scale,
        defect_dissipative=max(0.0, max(balance_d)) / scale,
        gronwall_constant=constant,
    )


# ---------------------------------------------------------------------------
# perturbation sweep

@dataclass
class SweepRow:
    amplitude: float
    q0: float        # integral (du0)^2 + integral (dv0)^2, discrete
    e0: float
    sup_e: float
    ratio: float     # sup_t E / q0; 0 for the zero-amplitude row
    c_hat: float
    lambda_hat: float


@dataclass
class SweepResult:
    rows: list
    ratio_min: float
    ratio_max: float
    spread: float    # ratio_max / ratio_min over positive-amplitude rows
    bounded: bool    # spread <= RATIO_SPREAD_BOUND


def perturbation_sweep(cfg: SimConfig, du_expr: Expr, dv_expr: Expr,
                       amplitudes: Sequence[float]) -> SweepResult:
    """For each amplitude eps compare ic + eps * direction with ic and
    record the quadratic initial size Q = integral (du0)^2 + (dv0)^2 against
    sup_t E.  Continuous-dependence stability predicts sup E / Q bounded
    across the sweep; the spread over positive rows is checked against the
    factor-4 acceptance bound.  Amplitudes must be nonnegative and strictly
    decreasing; a zero amplitude contributes an all-zero row.

    All trajectories advance as one batch: the unperturbed one is stepped
    once, and each perturbed one is measured against it.
    """
    if cfg.ic_u is None or cfg.ic_v is None:
        raise ValueError("the sweep perturbs explicit initial data; "
                         "manufactured-solution configs are not sweepable")
    amps = [float(a) for a in amplitudes]
    if not amps:
        raise ValueError("amplitudes must be a nonempty decreasing list")
    for a in amps:
        if not (math.isfinite(a) and a >= 0.0):
            raise ValueError("amplitudes must be finite and nonnegative")
    if any(b >= a for a, b in zip(amps, amps[1:])):
        raise ValueError("amplitudes must be strictly decreasing")
    others = [(cfg.ic_u + mul(Const(eps), du_expr),
               cfg.ic_v + mul(Const(eps), dv_expr)) for eps in amps]
    labels = ["base trajectory"] + [f"amplitude {eps:g}" for eps in amps]
    reports = _run_batch(cfg, others, labels)
    grid = cfg.grid
    vol = grid.cell_volume
    b = grid.coordinate_bindings(0.0)
    rows = []
    for eps, report in zip(amps, reports):
        du0 = np.broadcast_to(np.asarray(
            evaluate(mul(Const(eps), du_expr), b), dtype=float), grid.shape)
        dv0 = np.broadcast_to(np.asarray(
            evaluate(mul(Const(eps), dv_expr), b), dtype=float), grid.shape)
        q0 = float(np.sum(du0 * du0) + np.sum(dv0 * dv0)) * vol
        rows.append(SweepRow(
            amplitude=eps, q0=q0, e0=report.e0, sup_e=report.sup_e,
            ratio=(report.sup_e / q0 if q0 > 0.0 else 0.0),
            c_hat=report.c_hat, lambda_hat=report.lambda_hat,
        ))
    ratios = [r.ratio for r in rows if r.q0 > 0.0]
    if ratios:
        ratio_min, ratio_max = min(ratios), max(ratios)
        spread = ratio_max / ratio_min if ratio_min > 0.0 else math.inf
    else:
        ratio_min = ratio_max = 0.0
        spread = 1.0
    return SweepResult(rows=rows, ratio_min=ratio_min, ratio_max=ratio_max,
                       spread=spread, bounded=spread <= RATIO_SPREAD_BOUND)
