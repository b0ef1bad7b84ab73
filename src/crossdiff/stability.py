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
shifts pair to zero against the zero-mean dpsi).  The sum is accumulated
tick by tick from the last (du, dpsi) of each member, so no history is
kept.  A tick measures every perturbed member at once, in array sums over
the batch du = u[0] - u[1:], with one Poisson solve for all their dpsi.
dpsi is solved directly from du, never by differencing two large solves, so
the result is accurate relative to the perturbation size rather than the
solution size; the solve cross-checks each member's ||grad dpsi||^2 against
the duality <du - mean(du), dpsi> (poisson.solve_neumann_zero_mean), so
every tick of every pair runs that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .coeffs import CoefficientModel, dissipation_density
from .exprs import Const, Expr, is_number, mul
from .grid import member_sums
from .poisson import solve_neumann_zero_mean
from .solver import ConvergenceError, PositivityError, SimConfig, Simulation

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


def perturbed(cfg: SimConfig, du: Expr, dv: Expr, eps: float) -> tuple:
    """(u0, v0) expressions of the trajectory perturbed by eps along the
    direction (du, dv): cfg's initial data plus eps times the direction."""
    return cfg.ic_u + mul(Const(eps), du), cfg.ic_v + mul(Const(eps), dv)


def run_pair(cfg: SimConfig, ic2_u: Expr, ic2_v: Expr) -> StabilityReport:
    """Evolve (u1, v1) from cfg's initial data and (u2, v2) from (ic2_u,
    ic2_v) with identical discretization, as one batch of two; measure E, D
    at every cadence tick.

    The energy identity residual is computed when cfg.output_every == 1
    (dense mode) and is None otherwise.  A positivity or step-solve
    failure is re-raised tagged with the trajectory that failed.  A config
    that breaks the pairing rule is rejected with ValueError.
    """
    return _run_batch(cfg, [(ic2_u, ic2_v)],
                      ("first trajectory", "second trajectory"))[0]


def _run_batch(cfg: SimConfig, others: Iterable[tuple],
               labels: Sequence[str]) -> list:
    """Step cfg's initial data (member 0, the base) and each (ic_u, ic_v) of
    `others` as one batch; return one StabilityReport per other member,
    measured against the base at every tick of Simulation.march, the same
    ticks as solver.run.

    This entry point validates every paired run: cfg must hold no
    manufactured pair, which would replace the base's data and force every
    member (the pairing rule), and is validated in full; only then is
    `others` read and each member's data checked, dt advisory included.
    A PositivityError, or a ConvergenceError that names members, is
    re-raised with the failing members' `labels` first.
    """
    if cfg.mms_u is not None or cfg.mms_v is not None:
        raise ValueError("a paired run perturbs explicit initial data; "
                         "manufactured-solution configs are not pairable")
    cfg.validate()
    grid = cfg.grid
    members = [cfg.initial_fields()]
    for (ic_u, ic_v), label in zip(others, labels[1:]):
        u0, v0 = grid.cell_values(ic_u), grid.cell_values(ic_v)
        problems = cfg.data_problems(u0, v0)
        if problems:
            raise ValueError(f"{label}: invalid data: " + "; ".join(problems))
        cfg.warn_if_dt_large(u0, v0)
        members.append((u0, v0))
    sim = Simulation(cfg, members=members)
    vol = grid.cell_volume
    alpha = cfg.model.alpha
    dense = cfg.output_every == 1

    times, ticks = [], []  # per tick, the members' (E, its parts, D)
    # dense cadence: (du, dpsi) at the last tick, and the trapezoidal
    # duality sum of the energy identity up to it
    last, duality = None, np.zeros(len(members) - 1)
    v_min = np.full(len(members), math.inf)
    v_max = np.full(len(members), -math.inf)

    def tick():
        nonlocal last, duality
        u, v = sim.u, sim.v
        du = u[:1] - u[1:]
        dv = v[:1] - v[1:]
        sol = solve_neumann_zero_mean(grid, du)
        mass = member_sums(du) * vol
        mass_sq = mass * mass
        v_sq = member_sums(dv * dv) * vol
        ticks.append((mass_sq + sol.grad_sq + v_sq, mass_sq, sol.grad_sq,
                      v_sq, member_sums(dissipation_density(
                          u[:1], u[1:], alpha)) * vol))
        if dense:
            if last is not None:
                du_prev, psi_prev = last
                duality += member_sums(
                    (du - du_prev) * 0.5 * (psi_prev + sol.psi)) * vol
            last = du, sol.psi
        flat = v.reshape(len(v), -1)
        np.minimum(v_min, flat.min(axis=1), out=v_min)
        np.maximum(v_max, flat.max(axis=1), out=v_max)

    try:
        for t in sim.march():
            times.append(t)
            tick()
    except (ConvergenceError, PositivityError) as err:
        if err.members:
            failing = " and ".join(labels[i] for i in err.members)
            err.args = (f"{failing}: {err.args[0]}",) + err.args[1:]
        raise

    # per member, each quantity's series over the ticks, as Python floats
    reports = []
    for e, mass, hm1, v_sq, d, dual, v_lo, v_hi in zip(
            *(np.array(series).T.tolist() for series in zip(*ticks)),
            duality.tolist(), np.minimum(v_min[0], v_min[1:]).tolist(),
            np.maximum(v_max[0], v_max[1:]).tolist()):
        e0, sup_e = e[0], max(e)
        reports.append(StabilityReport(
            times=list(times), energy=e, comp_mass=mass, comp_hm1=hm1,
            comp_v=v_sq, dissipation=d,
            cum_dissipation=_trapezoid_cumulative(times, d),
            e0=e0, sup_e=sup_e,
            c_hat=(sup_e / e0 if e0 > 0.0 else 0.0),
            lambda_hat=_ols_log_rate(times, e, e0),
            energy_identity_residual=(
                abs(0.5 * hm1[-1] - 0.5 * hm1[0] - dual) if dense else None),
            v_range=(v_lo, v_hi),
        ))
    return reports


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
    c0 = float(np.min(np.broadcast_to(model.p_values(vv),
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


def amplitude_problems(amplitudes, key: str = "amplitudes",
                       one: bool = False) -> list:
    """The rule on the amplitudes of a sweep, or of a pair as a list of
    one: a nonempty list of finite, nonnegative, strictly decreasing
    numbers.  Any value is judged, and the first broken part is named;
    each message starts with key, the name the value has where it came
    from, and with one a pair's amplitude is named a number."""
    if not (isinstance(amplitudes, (list, tuple)) and amplitudes
            and all(is_number(a) and a >= 0.0 for a in amplitudes)):
        return [f"{key} must be a finite, nonnegative number" if one else
                f"{key} must be a nonempty list of finite, nonnegative "
                "numbers"]
    if any(b >= a for a, b in zip(amplitudes, amplitudes[1:])):
        return [f"{key} must be strictly decreasing"]
    return []


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
    problems = amplitude_problems(amplitudes)
    if problems:
        raise ValueError("; ".join(problems))
    amps = [float(a) for a in amplitudes]
    labels = ["base trajectory"] + [f"amplitude {eps:g}" for eps in amps]
    # lazy: _run_batch reads the members only once cfg has passed the
    # pairing rule, so a config without initial data never reaches perturbed
    reports = _run_batch(
        cfg, (perturbed(cfg, du_expr, dv_expr, eps) for eps in amps), labels)
    grid = cfg.grid
    vol = grid.cell_volume
    rows = []
    for eps, report in zip(amps, reports):
        du0 = grid.cell_values(mul(Const(eps), du_expr))
        dv0 = grid.cell_values(mul(Const(eps), dv_expr))
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
