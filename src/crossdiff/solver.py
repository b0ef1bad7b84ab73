"""Semi-implicit finite-volume time stepping for the triangular system.

Each step advances the pair (u, v) by the splitting

    v step:  (I + dt C - dt div(M22 grad)) v' = v + dt (u q2+(v) + R~2 + S2)
    u step:  (I - dt div(M11 grad)) u' = u + dt (div(A12(u, v') grad v')
                                              + R1(u, v') + S1)

solved with matrix-free CG.  The v diffusion uses face-averaged cell values
of A22(u, v); the absorbing part of the v reaction (q2 <= 0, as in -u v) is
taken implicitly through the ratio form u q2(v) v'/v with the diagonal
C = u max(-q2(v), 0)/v >= 0, which keeps v positive for positive data.  The
u mobility is lagged: M11 on a face is p(v'_face) (u_face)^alpha with
arithmetic face means, so the degenerate diffusion is linearly implicit
while cross-diffusion and reaction stay explicit.  S1, S2 are optional
manufactured-solution forcings, built symbolically by mms_forcing.

Batches: the state carries a leading member axis, u and v having shape
(B, *grid.shape) with one row per trajectory.  The members share the grid,
the model, the time grid and any manufactured forcing, and do not couple.
A run is a batch of one; the stability harness steps a pair, or a whole
amplitude sweep, as one batch, so each step is one set of array operations
and one CG solve of the block-diagonal system.  Every per-member quantity
(mass shift, ledgers, clip budget) is reduced per row, bitwise as it would
be for that member alone.

Conservation: fluxes vanish on boundary faces, so the flux divergence sums
to zero and the only mass sources are reactions, forcing and clipping.
After each CG solve each member is shifted by a constant so the analytic
mass balance holds exactly (the shift is below solver tolerance; iterative
truncation would otherwise leak mass).  Negative u cells are clipped to
zero and the added mass is ledgered, giving the exact discrete identity

    integral u(t_n) - integral u(0)
        = sum_k dt [ integral R1(u^k, v^{k+1}) + integral S1 ] + clipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import exprs
from .coeffs import CoefficientModel
from .exprs import Const, Expr, differentiate, evaluate, mul, substitute
from .grid import (FACE_SLICES, Field, Grid, divergence_arrays,
                   face_average_arrays, gradient_arrays, member_sums)
from .poisson import ConvergenceError

CLIP_BUDGET = 1e-8  # largest tolerated clipped mass per step, relative to mass


class PositivityError(RuntimeError):
    """A step produced nonpositive v or clipped more u mass than allowed;
    members holds the indices of the failing members of the batch."""

    def __init__(self, message: str, members: tuple = ()):
        super().__init__(message)
        self.members = members


@dataclass
class SimState:
    t: float
    u: Field
    v: Field


@dataclass
class DiagnosticsRow:
    t: float
    mass_u: float
    mass_v: float
    min_u: float
    max_u: float
    min_v: float
    max_v: float
    max_grad_v: float
    cum_grad_u_sq: float
    f_energy: float
    clipped_mass: float


DIAGNOSTICS_COLUMNS = ("t", "mass_u", "mass_v", "min_u", "max_u", "min_v",
                       "max_v", "max_grad_v", "cum_grad_u_sq", "f_energy",
                       "clipped_mass")


@dataclass
class SimConfig:
    """Everything one run needs; validate() reports all problems at once."""

    grid: Grid
    model: CoefficientModel
    dt: float
    t_end: float
    ic_u: Optional[Expr] = None
    ic_v: Optional[Expr] = None
    output_every: int = 1
    lin_tol: float = 1e-10
    lin_max_iter: Optional[int] = None
    mms_u: Optional[Expr] = None
    mms_v: Optional[Expr] = None
    f_energy_gamma: Optional[float] = None
    f_energy_ks: Optional[float] = None

    def validate(self) -> None:
        problems = []
        if not (isinstance(self.dt, float) and self.dt > 0.0
                and math.isfinite(self.dt)):
            problems.append("time.dt must be a positive finite number")
        if not (isinstance(self.t_end, float) and math.isfinite(self.t_end)
                and self.t_end >= (self.dt if self.dt > 0 else 0.0)):
            problems.append("time.t_end must be finite and at least dt")
        if not (isinstance(self.output_every, int) and self.output_every >= 1):
            problems.append("time.cadence must be an integer >= 1")
        if not (0.0 < self.lin_tol < 1.0):
            problems.append("solver.tol must lie in (0, 1)")
        if self.lin_max_iter is not None and self.lin_max_iter < 1:
            problems.append("solver.max_iter must be >= 1 when given")
        if (self.f_energy_gamma is None) != (self.f_energy_ks is None):
            problems.append("fenergy needs both gamma and ks")
        if self.f_energy_gamma is not None and not self.f_energy_gamma > 0.0:
            problems.append("fenergy.gamma must be positive")

        spatial = frozenset(("x", "y")) if self.grid.dim == 2 \
            else frozenset(("x",))
        if self.mms_u is not None or self.mms_v is not None:
            if self.mms_u is None or self.mms_v is None:
                problems.append("mms needs both u and v expressions")
        for name, e, allowed in (("initial.u", self.ic_u, spatial),
                                 ("initial.v", self.ic_v, spatial),
                                 ("mms.u", self.mms_u, spatial | {"t"}),
                                 ("mms.v", self.mms_v, spatial | {"t"})):
            if e is None:
                continue
            extra = exprs.variables(e) - allowed
            if extra:
                problems.append(
                    f"{name} may only use {sorted(allowed)}; found {sorted(extra)}")
        if self.mms_u is None and (self.ic_u is None or self.ic_v is None):
            problems.append("initial data (or a manufactured pair) is required")

        try:
            self.model.check_positivity()
        except ValueError as err:
            problems.append(f"model: {err}")

        if not problems:
            # sampled sign conditions on the actual cells this run will use
            try:
                u0, v0 = self.initial_fields()
            except (exprs.EvalError, ValueError) as err:
                problems.append(f"initial data: {err}")
            else:
                if np.any(u0.values < 0.0):
                    problems.append("initial u must be nonnegative")
                elif not np.any(u0.values > 0.0):
                    problems.append("initial u must not vanish identically")
                if np.any(v0.values <= 0.0):
                    problems.append("initial v must be positive")
                if self.mms_u is not None and not problems:
                    for frac in (0.25, 0.5, 0.75, 1.0):
                        tt = frac * self.t_end
                        us = Field.from_expr(self.grid, self.mms_u, tt).values
                        vs = Field.from_expr(self.grid, self.mms_v, tt).values
                        if np.any(us <= 0.0) or np.any(vs <= 0.0):
                            problems.append("manufactured solutions must stay "
                                            "positive on [0, t_end]")
                            break
        if problems:
            raise ValueError("invalid configuration: " + "; ".join(problems))
        self._warn_if_dt_large(u0.values, v0.values)

    def initial_fields(self):
        if self.mms_u is not None:
            return (Field.from_expr(self.grid, self.mms_u, 0.0),
                    Field.from_expr(self.grid, self.mms_v, 0.0))
        return (Field.from_expr(self.grid, self.ic_u, 0.0),
                Field.from_expr(self.grid, self.ic_v, 0.0))

    def _warn_if_dt_large(self, u0: np.ndarray, v0: np.ndarray) -> None:
        """Advisory explicit-term bound dt <= h^2 / max |A12 grad v| at t=0."""
        a12 = np.broadcast_to(self.model.a12_values(u0, v0), self.grid.shape)
        worst = 0.0
        for a12_f, dv_f in zip(face_average_arrays(self.grid, a12),
                               gradient_arrays(self.grid, v0)):
            worst = max(worst, float(np.max(np.abs(a12_f * dv_f))))
        h2 = min(self.grid.spacing) ** 2
        if worst > 0.0 and self.dt > h2 / worst:
            warnings.warn(
                f"dt = {self.dt:g} exceeds the explicit cross-diffusion "
                f"guideline h^2/max|A12 grad v| = {h2 / worst:g}; expect "
                "instability or positivity loss", RuntimeWarning)


def conjugate_gradient(apply_a: Callable, b: np.ndarray, x0: np.ndarray,
                       tol: float, max_iter: int):
    """Matrix-free CG for SPD operators, on a batch of independent members.

    The leading axis of b indexes members whose systems do not couple (the
    operator is block diagonal); they are solved as one system with shared
    alpha and beta, so identical members get identical iterates.  Stops
    when the true residual satisfies ||b - A x|| <= tol min_i ||b_i||, the
    minimum over members with a nonzero right-hand side; since ||r_i|| <=
    ||r||, every such member's relative residual is then at most tol.  With
    one member this is the stop ||r|| <= tol ||b||.  The recurrence residual
    triggers the check and is refreshed from the true one if roundoff made
    them drift apart.  Returns (x, iterations, ||r|| / min_i ||b_i||), a
    bound on every member's relative residual.  A zero right-hand side
    returns zeros immediately with zero iterations.  apply_a may return the
    same array on every call: its result is consumed before the next call.
    """
    norm_b = math.sqrt(float(np.vdot(b, b)))  # bitwise np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    if len(b) > 1:
        member_norms = np.linalg.norm(b.reshape(len(b), -1), axis=1)
        norm_b = float(np.min(member_norms[member_norms > 0.0]))
    x = np.array(x0, dtype=float, copy=True)
    r = b - apply_a(x)
    p = r.copy()
    rs = float(np.vdot(r, r))
    iterations = 0
    target = tol * norm_b
    while True:
        if math.sqrt(rs) <= target:
            true_r = b - apply_a(x)
            true_norm = math.sqrt(float(np.vdot(true_r, true_r)))
            if true_norm <= target:
                return x, iterations, true_norm / norm_b
            r = true_r
            p = r.copy()
            rs = float(np.vdot(r, r))
        if iterations >= max_iter:
            raise ConvergenceError(
                f"CG did not reach tol {tol:g} in {max_iter} iterations "
                f"(residual {math.sqrt(rs) / norm_b:.3e})",
                x, math.sqrt(rs) / norm_b, iterations)
        ap = apply_a(p)
        p_ap = float(np.vdot(p, ap))
        if p_ap <= 0.0:
            raise ConvergenceError(
                "CG broke down: operator is not positive definite on the "
                "search space", x, math.sqrt(rs) / norm_b, iterations)
        alpha = rs / p_ap
        x += alpha * p
        r -= alpha * ap
        rs_next = float(np.vdot(r, r))
        p *= rs_next / rs
        p += r
        rs = rs_next
        iterations += 1


def step_operator(grid: Grid, mob: tuple, dt: float,
                  c: Optional[np.ndarray] = None) -> Callable:
    """The implicit step matrix x -> x + dt c x - dt div(mob grad x).

    mob holds one face-mobility array per axis; c (the v step's absorption
    diagonal) may be omitted.  The arrays may carry a leading member axis,
    (B, *faces); x then has shape (B, *grid.shape), and the members do not
    couple.  Each call performs the same floating-point
    operations, in the same order, as

        x + dt * c * x
          - dt * divergence_arrays(grid, mob * gradient_arrays(grid, x))

    so the result is bitwise identical, but the face slices are taken once
    and every call writes into the same preallocated arrays: the returned
    array is overwritten by the next call.
    """
    axes = []
    for h, m, (hi, lo, inner, _, _) in zip(grid.spacing, mob,
                                          FACE_SLICES[grid.dim]):
        flux = np.zeros(m.shape)  # boundary faces carry no flux
        axes.append((h, hi, lo, flux[inner], m[inner], flux[hi], flux[lo]))
    shape = mob[0].shape[:mob[0].ndim - grid.dim] + grid.shape
    div = np.empty(shape)
    part = np.empty(shape)
    out = np.empty(shape)
    dtc = None if c is None else dt * c

    def apply_a(x):
        for axis, (h, x_hi, x_lo, f_in, m_in, f_hi, f_lo) in enumerate(axes):
            np.subtract(x[x_hi], x[x_lo], out=f_in)
            np.divide(f_in, h, out=f_in)
            np.multiply(m_in, f_in, out=f_in)
            target = div if axis == 0 else part
            np.subtract(f_hi, f_lo, out=target)
            np.divide(target, h, out=target)
            if axis:
                np.add(div, part, out=div)
        np.multiply(div, dt, out=div)
        if dtc is None:
            return np.subtract(x, div, out=out)
        np.multiply(dtc, x, out=out)
        np.add(x, out, out=out)
        return np.subtract(out, div, out=out)
    return apply_a


def _cells(values, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


class Simulation:
    """Mutable stepper over a batch of members; run() and the stability
    harness drive it.

    The members share the grid, the model, the time grid and any
    manufactured forcing; only their data differ.  u and v have shape
    (B, *grid.shape), member i being (u[i], v[i]), and the per-member
    ledgers clipped_total, cum_grad_u_sq and reaction_mass_total are lists
    of B floats.  members lists the (u0, v0) cell arrays, one pair per
    member; when it is omitted, cfg's own initial data form a batch of one.
    """

    def __init__(self, cfg: SimConfig, validate: bool = True,
                 members: Optional[Sequence] = None):
        if validate:
            cfg.validate()
        self.cfg = cfg
        self.grid = cfg.grid
        self.model = cfg.model
        if members is None:
            u0, v0 = cfg.initial_fields()
            members = [(u0.values, v0.values)]
        self.u = np.array([u for u, _ in members], dtype=float)
        self.v = np.array([v for _, v in members], dtype=float)
        if self.u.shape[1:] != self.grid.shape \
                or self.v.shape != self.u.shape:
            raise ValueError(f"member data must have the grid shape "
                             f"{self.grid.shape}")
        count = len(self.u)
        # shape of one value per member, broadcast against the cells
        self._per_cell = (count,) + (1,) * self.grid.dim
        self.t = 0.0
        self.clipped_total = [0.0] * count
        self.cum_grad_u_sq = [0.0] * count
        self.reaction_mass_total = [0.0] * count  # sum_k dt integral(R1+S1)
        if cfg.mms_u is not None:
            self.forcing_u, self.forcing_v = mms_forcing(
                cfg.mms_u, cfg.mms_v, cfg.model)
        else:
            self.forcing_u = self.forcing_v = None
        if cfg.lin_max_iter is not None:
            self._max_iter = cfg.lin_max_iter
        else:
            self._max_iter = max(200, 10 * self.grid.cell_count)

    def state(self, i: int = 0) -> SimState:
        return SimState(self.t, Field(self.grid, self.u[i].copy()),
                        Field(self.grid, self.v[i].copy()))

    def _forcing(self, e: Expr, t: float) -> np.ndarray:
        b = self.grid.coordinate_bindings(t)
        return _cells(evaluate(e, b), self.grid.shape)

    def step(self, dt: float, t_next: Optional[float] = None) -> None:
        """Advance every member by dt.  A PositivityError carries the
        indices of the failing members in .members."""
        if t_next is None:
            t_next = self.t + dt
        v_new = self._step_v(dt, t_next)
        self._step_u(dt, t_next, v_new)
        # per member, the same sums in the same order as grad_sq_sum
        vol = self.grid.cell_volume
        grad_sq = [0.0] * len(self.u)
        for gf in gradient_arrays(self.grid, self.u):
            grad_sq = [q + s * vol for q, s
                       in zip(grad_sq, member_sums(gf * gf))]
        self.cum_grad_u_sq = [c + dt * q for c, q
                              in zip(self.cum_grad_u_sq, grad_sq)]
        self.v = v_new
        self.t = t_next

    def _step_v(self, dt: float, t_next: float) -> np.ndarray:
        g, m = self.grid, self.model
        u, v = self.u, self.v
        a22 = _cells(m.a22_values(u, v), u.shape)
        mob = face_average_arrays(g, a22)
        q2 = _cells(m.q2_values(v), u.shape)
        c_abs = u * np.maximum(-q2, 0.0) / v
        explicit = u * np.maximum(q2, 0.0) \
            + _cells(evaluate(m.r2_tilde, {"u": u, "v": v}), u.shape)
        if self.forcing_v is not None:
            explicit = explicit + self._forcing(self.forcing_v, t_next)
        rhs = v + dt * explicit

        v_new, _, _ = conjugate_gradient(step_operator(g, mob, dt, c_abs),
                                         rhs, v, self.cfg.lin_tol,
                                         self._max_iter)
        # analytic mass balance: sum v' = sum rhs - dt sum(C v'); restore it
        cells = g.cell_count
        shift = [(r - dt * c - s) / cells for r, c, s in zip(
            member_sums(rhs), member_sums(c_abs * v_new), member_sums(v_new))]
        v_new += np.array(shift).reshape(self._per_cell)
        bad = v_new <= 0.0
        if bad.any():
            failing = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))
            raise PositivityError(
                f"positivity lost in the v step at t = {t_next:g}; reduce dt",
                tuple(failing.tolist()))
        return v_new

    def _step_u(self, dt: float, t_next: float, v_new: np.ndarray) -> None:
        g, m = self.grid, self.model
        u = self.u
        vol = g.cell_volume
        mass_pre = [s * vol for s in member_sums(u)]

        u_faces = face_average_arrays(g, u)
        v_faces = face_average_arrays(g, v_new)
        mob = tuple(
            np.broadcast_to(np.asarray(m.p_values(vf), dtype=float), uf.shape)
            * np.power(uf, m.alpha)
            for uf, vf in zip(u_faces, v_faces))

        a12 = _cells(m.a12_values(u, v_new), u.shape)
        a12_faces = face_average_arrays(g, a12)
        cross = tuple(af * gf for af, gf
                      in zip(a12_faces, gradient_arrays(g, v_new)))
        reaction = u * _cells(m.q1_values(v_new), u.shape) \
            + _cells(evaluate(m.r1_tilde, {"u": u, "v": v_new}), u.shape)
        if self.forcing_u is not None:
            reaction = reaction + self._forcing(self.forcing_u, t_next)
        rhs = u + dt * (divergence_arrays(g, cross) + reaction)

        u_new, _, _ = conjugate_gradient(step_operator(g, mob, dt), rhs, u,
                                         self.cfg.lin_tol, self._max_iter)
        # flux divergences carry no net mass; reactions and forcing do
        reaction_mass = [dt * s * vol for s in member_sums(reaction)]
        cells = g.cell_count
        shift = [(mp + r - s * vol) / (cells * vol) for mp, r, s
                 in zip(mass_pre, reaction_mass, member_sums(u_new))]
        u_new += np.array(shift).reshape(self._per_cell)
        clipped = [-s * vol for s in member_sums(np.minimum(u_new, 0.0))]
        over = [i for i, (c, mp) in enumerate(zip(clipped, mass_pre))
                if c > CLIP_BUDGET * max(mp, 1e-300)]
        if over:
            raise PositivityError(
                f"positivity budget exceeded at t = {t_next:g}: clipped "
                f"{max(clipped[i] for i in over):.3e} > {CLIP_BUDGET:g} * "
                "mass; reduce dt", tuple(over))
        np.clip(u_new, 0.0, None, out=u_new)
        self.clipped_total = [a + c for a, c
                              in zip(self.clipped_total, clipped)]
        self.reaction_mass_total = [a + r for a, r in zip(
            self.reaction_mass_total, reaction_mass)]
        self.u = u_new

    def diagnostics_row(self, i: int = 0) -> DiagnosticsRow:
        g = self.grid
        u, v = self.u[i], self.v[i]
        vol = g.cell_volume
        max_grad_v = max(float(np.max(np.abs(gf)))
                         for gf in gradient_arrays(g, v))
        if self.cfg.f_energy_gamma is not None:
            fe = f_energy(self.state(i), self.cfg.f_energy_gamma,
                          self.cfg.f_energy_ks)
        else:
            fe = float("nan")
        return DiagnosticsRow(
            t=self.t,
            mass_u=float(np.sum(u)) * vol,
            mass_v=float(np.sum(v)) * vol,
            min_u=float(np.min(u)),
            max_u=float(np.max(u)),
            min_v=float(np.min(v)),
            max_v=float(np.max(v)),
            max_grad_v=max_grad_v,
            cum_grad_u_sq=self.cum_grad_u_sq[i],
            f_energy=fe,
            clipped_mass=self.clipped_total[i],
        )


def time_grid(dt: float, t_end: float):
    """Step times 0 < t_1 < ... < t_N = t_end with fixed dt and a shortened
    final step; built multiplicatively so times carry no accumulation drift."""
    n_full = int(math.floor(t_end / dt + 1e-9))
    times = [k * dt for k in range(1, n_full + 1)]
    if not times or t_end - times[-1] > 1e-9 * dt:
        times.append(t_end)
    else:
        times[-1] = t_end
    return times


@dataclass
class RunResult:
    states: list
    diagnostics: list
    clipped_total: float
    reaction_mass_total: float


def run(cfg: SimConfig, record_states: bool = True,
        validate: bool = True) -> RunResult:
    """March the configured system to t_end, recording every cadence-th
    step boundary plus t = 0 and the final time."""
    sim = Simulation(cfg, validate=validate)
    states = [sim.state()] if record_states else []
    diagnostics = [sim.diagnostics_row()]
    times = time_grid(cfg.dt, cfg.t_end)
    t_prev = 0.0
    for k, t_next in enumerate(times):
        try:
            sim.step(t_next - t_prev, t_next)
        except Exception as err:
            if err.args and isinstance(err.args[0], str):
                err.args = (f"step {k + 1} (t = {t_next:g}): "
                            f"{err.args[0]}",) + err.args[1:]
            raise
        t_prev = t_next
        if (k + 1) % cfg.output_every == 0 or k + 1 == len(times):
            if record_states:
                states.append(sim.state())
            diagnostics.append(sim.diagnostics_row())
    return RunResult(states, diagnostics, sim.clipped_total[0],
                     sim.reaction_mass_total[0])


# ---------------------------------------------------------------------------
# diagnostics and manufactured solutions

def f_energy(s: SimState, gamma_param: float, ks: float) -> float:
    """integral( u ln u + gamma/4 |grad v|^4 / v^3 + ks^2/6 v^3 ), with the
    convention 0 ln 0 = 0 and face gradients averaged back to centers."""
    g = s.u.grid
    u, v = s.u.values, s.v.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ulnu = np.where(u > 0.0, u * np.log(np.maximum(u, 1e-300)), 0.0)
    grad_sq = np.zeros(g.shape)
    for axis, gf in enumerate(gradient_arrays(g, v)):
        centered = 0.5 * (np.take(gf, range(0, g.shape[axis]), axis=axis)
                          + np.take(gf, range(1, g.shape[axis] + 1), axis=axis))
        grad_sq = grad_sq + centered * centered
    vol = g.cell_volume
    return (float(np.sum(ulnu)) * vol
            + 0.25 * gamma_param * float(np.sum(grad_sq ** 2 / v ** 3)) * vol
            + (ks * ks / 6.0) * float(np.sum(v ** 3)) * vol)


def mms_forcing(u_star: Expr, v_star: Expr, m: CoefficientModel):
    """Symbolic forcings (S1, S2) that make (u*, v*) an exact solution:

        S1 = u*_t - div(A11(u*,v*) grad u*) - div(A12(u*,v*) grad v*) - R1
        S2 = v*_t - div(A22(u*,v*) grad v*) - R2

    u*, v* must be smooth and positive (fractional powers of u* appear when
    alpha is not an integer).  Derivatives in y vanish for y-free inputs,
    so the same expression serves 1D and 2D grids.
    """
    subs = {"u": u_star, "v": v_star}
    a11 = mul(substitute(m.p, subs), exprs.pow_(u_star, Const(m.alpha)))
    a12 = substitute(m.a12, subs)
    a22 = substitute(m.a22, subs)
    r1 = mul(u_star, substitute(m.r1_linear, subs)) + substitute(m.r1_tilde, subs)
    r2 = mul(u_star, substitute(m.r2_linear, subs)) + substitute(m.r2_tilde, subs)

    def div_flux(coeff: Expr, w: Expr) -> Expr:
        total = Const(0.0)
        for s in ("x", "y"):
            total = total + differentiate(mul(coeff, differentiate(w, s)), s)
        return total

    s1 = differentiate(u_star, "t") - div_flux(a11, u_star) \
        - div_flux(a12, v_star) - r1
    s2 = differentiate(v_star, "t") - div_flux(a22, v_star) - r2
    return s1, s2
