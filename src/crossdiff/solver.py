"""Semi-implicit finite-volume time stepping for the triangular system.

Each step advances the pair (u, v) by the splitting

    v step:  (I + dt C - dt div(M22 grad)) v' = v + dt (u q2+(v) + R~2 + S2)
    u step:  (I - dt div(M11 grad)) u' = u + dt (div(A12(u, v') grad v')
                                              + R1(u, v') + S1)

solved with matrix-free CG on one StepOperator per Simulation, which both
solves reassemble in place; that invalidates its last apply, and each apply
overwrites the one before.  The v diffusion uses face-averaged cell values of
A22(u, v); the absorbing part of the v reaction (q2 <= 0, as in -u v) is
taken implicitly through the ratio form u q2(v) v'/v with the diagonal
C = u max(-q2(v), 0)/v >= 0, which keeps v positive for positive data.  The
u mobility is lagged: M11 on a face is p(v'_face) (u_face)^alpha with
arithmetic face means, so the degenerate diffusion is linearly implicit
while cross-diffusion and reaction stay explicit.  S1, S2 are optional
manufactured-solution forcings, built symbolically by mms_forcing and
compiled together once per Simulation.  march runs that program once per
block of step times, on the grid's axes and t a column of the block's
times, and hands each step its rows, bitwise the values at its time alone.
A forcing that does not vary along an axis stays of length 1 there, as
(n0, 1) for one without y, and broadcasts against the cells in the step.

Batches: the state carries a leading member axis, u and v having shape
(B, *grid.shape) with one row per trajectory.  The members share the grid,
the model, the time grid and any manufactured forcing, and do not couple.
A run is a batch of one; the stability harness steps a pair, or a whole
amplitude sweep, as one batch, so each step is one set of array operations
and one CG solve of the block-diagonal system.  Every per-member quantity
(mass shift, ledgers, clip budget) is a (B,) array reduced per row,
bitwise as it would be for that member alone.

Buffers: a Simulation allocates its state, its StepOperator and one
StepWorkspace for its batch shape, and a step after the first allocates no
cell- or face-sized array of its own; only the coefficient and forcing
programs return fresh arrays.  The step's kernels and arithmetic write
through numpy's out=, with the ufuncs, operands and order of the plain
expressions, so every value is bitwise theirs.  Face data, the operator's
included, has the grid's flat layout, and every vector inside a solve is
flat (conjugate_gradient), so no kernel pass is strided and no iteration
reshapes an array.  Each solve writes its solution into the workspace's
spare state, which the step then swaps with u or v: the arrays sim.u and
sim.v are overwritten by later steps, so a caller that keeps them copies
them, as state() does.  Each owner cuts its buffers from one block with
aligned_zeros, each on a cache line.  The ledger cum_grad_u_sq, a gradient
of u' per step, is kept only with grad_ledger, which run sets for its
diagnostics; a sweep or an MMS level reads nan.

Ticks and validation: Simulation.march is the one time loop.  It steps
time_grid(dt, t_end) and yields at t = 0, after every output_every-th step
and after the final, possibly shortened, step; run yields its Simulation,
and the stability harness records, at exactly those ticks.  Every entry
point that steps a config validates it first (run here, _run_batch in
stability, the CLI's MMS study every level before the first steps);
Simulation itself never does.

Conservation: fluxes vanish on boundary faces, so the flux divergence sums
to zero and the only mass sources are reactions, forcing and clipping.
After each CG solve each member is shifted by a constant so the analytic
mass balance holds exactly (iterative truncation would otherwise leak
mass).  The shift is the mean of the member's CG residual r_i, so it is at
most ||r_i|| / sqrt(cells) <= tol ||b_i|| / sqrt(cells), tol times the RMS
of its right-hand side, up to roundoff.  Negative u cells are clipped to
zero (a step with every cell positive skips the clip) and the added mass is
ledgered: every Simulation keeps reaction_mass_total and clipped_total per
member, the terms of the exact discrete identity

    integral u(t_n) - integral u(0)
        = sum_k dt [ integral R1(u^k, v^{k+1}) + integral S1 ] + clipped.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import exprs
from .coeffs import CoefficientModel
from .exprs import (Const, Expr, compile, differentiate, is_count, is_number,
                    mul, substitute)
from .grid import (FaceData, Grid, as_cells, divergence_arrays,
                   face_average_arrays, grad_sq_sum, gradient_arrays,
                   last_positions, member_sums)

CLIP_BUDGET = 1e-8  # largest tolerated clipped mass per step, relative to mass
# most steps a config may ask for: 200 times the 5,000 of the largest shipped
# config, case2_sweep_1d
MAX_STEPS = 10 ** 6
# consecutive true-residual checks that fail to lower CG's best true residual
# before the solve is declared stagnated
STAGNATION_CHECKS = 3
# cells per slot of one block evaluation of the forcing: 32 KiB, under
# glibc's mmap threshold, so a block's slots are reused heap, not fresh maps
FORCING_BLOCK_CELLS = 4096
# bytes of a cache line, and of an AVX-512 vector: every step buffer starts
# on such a boundary, so that each of a ufunc's vector stores fills one line
CACHE_LINE = 64


class ConvergenceError(RuntimeError):
    """A step solve failed; carries the best iterate seen and, as lines of
    details, the solve's statistics, with members (the indices of those
    above tol at that iterate) where it ran out of iterations or stagnated."""

    def __init__(self, message: str, best: np.ndarray, residual_norm: float,
                 iterations: int, members: Optional[tuple] = None):
        super().__init__(message)
        self.best = best
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.members = members or ()
        self.details = [f"iterations: {iterations}",
                        f"relative residual: {residual_norm:.1e}"]
        if members is not None:
            self.details.append(f"members: {', '.join(map(str, members))}")


class PositivityError(RuntimeError):
    """A step produced nonpositive v or clipped more u mass than allowed;
    members holds the indices of the failing members of the batch, details
    them as a line."""

    def __init__(self, message: str, members: tuple = ()):
        super().__init__(message)
        self.members = members
        self.details = [f"members: {', '.join(map(str, members))}"]


@dataclass
class SimState:
    t: float
    u: np.ndarray  # cell values, grid shape
    v: np.ndarray


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


DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))


@dataclass
class SimConfig:
    """Everything one run needs, and the owner of every rule on it:
    problems() lists all that are broken, validate() raises on them."""

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

    def problems(self) -> list:
        """Every broken rule of this config, one message each.

        Each rule checks type as well as range, so a config built from a
        file may carry any value the file gave (None where it gave none).
        A grid or model that failed to parse is None; the checks that need
        it are skipped and every other rule is still checked.  When nothing
        is wrong, warns if dt exceeds the explicit cross-diffusion
        guideline.
        """
        problems = []
        dt_ok = is_number(self.dt) and self.dt > 0.0
        if not dt_ok:
            problems.append("time.dt must be a positive finite number")
        if not (is_number(self.t_end)
                and self.t_end >= (self.dt if dt_ok else 0.0)):
            problems.append("time.t_end must be finite and at least dt")
        elif dt_ok and self.t_end / self.dt > MAX_STEPS:  # inf on overflow
            problems.append(f"time.t_end / time.dt must not exceed "
                            f"MAX_STEPS = {MAX_STEPS}, the most steps a run "
                            "may take")
        if not is_count(self.output_every):
            problems.append("time.cadence must be an integer >= 1")
        if not (is_number(self.lin_tol) and 0.0 < self.lin_tol < 1.0):
            problems.append("solver.tol must lie in (0, 1)")
        if self.lin_max_iter is not None and not is_count(self.lin_max_iter):
            problems.append("solver.max_iter must be an integer >= 1")
        if (self.f_energy_gamma is None) != (self.f_energy_ks is None):
            problems.append("fenergy needs both gamma and ks")
        if self.f_energy_gamma is not None and not (
                is_number(self.f_energy_gamma) and self.f_energy_gamma > 0.0):
            problems.append("fenergy.gamma must be a positive number")
        if self.f_energy_ks is not None and not is_number(self.f_energy_ks):
            problems.append("fenergy.ks must be a finite number")
        incomplete = True
        if (self.mms_u is None) != (self.mms_v is None):
            problems.append("mms needs both u and v expressions")
        elif self.mms_u is None and (self.ic_u is None or self.ic_v is None):
            problems.append("initial data (or a manufactured pair) is required")
        else:
            incomplete = False
        if self.model is not None:
            try:
                self.model.check_positivity()
            except ValueError as err:
                problems.append(f"model: {err}")
        if self.grid is None:
            return problems

        spatial = self.grid.coordinates
        wrong_variables = [
            problem for name, e, allowed in (
                ("initial.u", self.ic_u, spatial),
                ("initial.v", self.ic_v, spatial),
                ("mms.u", self.mms_u, spatial | {"t"}),
                ("mms.v", self.mms_v, spatial | {"t"})) if e is not None
            for problem in exprs.variable_problems(name, e, allowed)]
        problems += wrong_variables
        if incomplete or wrong_variables:
            return problems
        # sampled sign conditions on the actual cells this run will use
        try:
            pair = self.initial_pair()
            u0, v0 = (self.grid.cell_values(p) for p in pair)
            problems += self.data_problems(u0, v0)
            if self.mms_u is not None and not problems and any(
                    np.any(self.grid.cell_values(p, frac * self.t_end) <= 0.0)
                    for frac in (0.25, 0.5, 0.75, 1.0) for p in pair):
                problems.append("manufactured solutions must stay positive "
                                "on [0, t_end]")
        except exprs.EvalError as err:
            return problems + [f"initial data: {err}"]
        if not problems and self.model is not None:
            self.warn_if_dt_large(u0, v0)
        return problems

    def validate(self) -> None:
        """Raise ValueError listing every problem; see problems()."""
        problems = self.problems()
        if problems:
            raise ValueError("invalid configuration: " + "; ".join(problems))

    @staticmethod
    def data_problems(u0: np.ndarray, v0: np.ndarray) -> list:
        """The rules on one member's initial cell values."""
        if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(v0))):
            return ["field values must be finite"]
        problems = []
        if np.any(u0 < 0.0):
            problems.append("initial u must be nonnegative")
        elif not np.any(u0 > 0.0):
            problems.append("initial u must not vanish identically")
        if np.any(v0 <= 0.0):
            problems.append("initial v must be positive")
        return problems

    def initial_pair(self) -> tuple:
        """The initial data, or the manufactured pair, compiled."""
        pair = (self.ic_u, self.ic_v) if self.mms_u is None \
            else (self.mms_u, self.mms_v)
        return tuple(compile(e) for e in pair)

    def initial_fields(self) -> tuple:
        """(u0, v0) on the cells: initial_pair() at t = 0."""
        return tuple(self.grid.cell_values(p) for p in self.initial_pair())

    def warn_if_dt_large(self, u0: np.ndarray, v0: np.ndarray) -> None:
        """Advisory explicit-term bound dt <= h^2 / max |A12 grad v| at t=0."""
        worst = _max_cross_rate(self.grid, as_cells(
            self.model.a12_values(u0, v0), self.grid.shape), v0)
        h2 = min(self.grid.spacing) ** 2
        if worst > 0.0 and self.dt > h2 / worst:
            warnings.warn(
                f"dt = {self.dt:g} exceeds the explicit cross-diffusion "
                f"guideline h^2/max|A12 grad v| = {h2 / worst:g}; expect "
                "instability or positivity loss", RuntimeWarning)


def _max_cross_rate(grid: Grid, a12: np.ndarray, v: np.ndarray) -> float:
    """max over the interior faces of |A12 grad v|, A12 averaged onto the
    faces; a boundary face adds 0.  A non-finite a12 on a cell first or last
    along an axis hides that axis, as the nan its boundary face would add
    does."""
    worst = 0.0
    for n, s, h in zip(grid.shape, grid.strides, grid.spacing):
        a, x = a12.reshape(-1, n, s), v.reshape(-1, n, s)
        worst = max(worst, float(np.max(np.abs(
            0.5 * (a[:, 1:] + a[:, :-1]) * ((x[:, 1:] - x[:, :-1]) / h))))
            if np.isfinite(a[:, ::n - 1]).all() else math.nan)
    return worst


def conjugate_gradient(apply_a: Callable, b: np.ndarray, x0: np.ndarray,
                       tol: float, max_iter: int, out: np.ndarray,
                       work: tuple):
    """Matrix-free CG for SPD operators, on a batch of independent members.

    The leading axis of b indexes members whose systems do not couple (the
    operator is block diagonal); they are solved as one system with shared
    alpha and beta, so identical members get identical iterates.  Stops
    when the true residual satisfies ||b - A x|| <= tol min_i ||b_i||, the
    minimum over members with a nonzero right-hand side; since ||r_i|| <=
    ||r||, every such member's relative residual is then at most tol.  With
    one member this is the stop ||r|| <= tol ||b||.  The recurrence residual
    triggers the check and is restarted from the true one if roundoff made
    them drift apart.  Returns (out, iterations, ||r|| / min_i ||b_i||), a
    bound on every member's relative residual.

    The iterate is out, started from x0; work is three more arrays of b's
    shape (r, p and scratch), so an iteration allocates no array.  All
    five are flattened once per solve, so out and work must be contiguous,
    and from then on every vector is flat: apply_a receives flat vectors
    only, its result is used as one, and every update writes through a
    positional out.  Dots are ndarray.dot, np.vdot's BLAS dot bitwise;
    member norms are sqrt(member_sums(b * b)), np.linalg.norm's.  apply_a
    is called with one argument, its result used, so a plain wrapper can
    stand in for it; it may return the same array every call.  The
    iterate returned, and every one an error carries, has b's shape.

    A solve fails with ConvergenceError, carrying a copy of the checked
    iterate with the smallest true residual and that residual on the scale
    above, at max_iter, or once STAGNATION_CHECKS checks in a row fail to
    lower it: the true residual then sits at its roundoff floor, which
    further iterations do not lower (Greenbaum 1997), and the message names
    that floor; its members are those with ||r_i|| > tol ||b_i||, or a nan
    residual, at that iterate (one more apply for an earlier one).  A
    breakdown fails with the current iterate.  A zero right-hand side
    returns zeros with zero iterations, and a non-finite one fails at once
    with a copy of x0.
    """
    bf, x, r, p, scratch = (a.reshape(-1) for a in (b, out, *work))
    norm_b = math.sqrt(float(bf.dot(bf)))  # bitwise np.linalg.norm(b)
    if not math.isfinite(norm_b):
        raise ConvergenceError("CG right-hand side is not finite", x0.copy(),
                               math.nan, 0)
    if norm_b == 0.0:
        x.fill(0.0)
        return out, 0, 0.0
    if len(b) > 1:
        member_norms = np.sqrt(member_sums(np.multiply(b, b, out=work[2])))
        norm_b = float(np.minimum.reduce(member_norms[member_norms > 0.0]))
    # local names: at 1-D sizes an iteration is bound by dispatch
    add, subtract, multiply, sqrt = np.add, np.subtract, np.multiply, math.sqrt
    np.copyto(x, x0.reshape(-1))
    subtract(bf, apply_a(x), r)
    np.copyto(p, r)
    rs = float(r.dot(r))
    iterations = 0
    target = tol * norm_b
    best, best_norm, stale = None, math.inf, 0
    while True:
        if sqrt(rs) <= target or iterations >= max_iter:
            subtract(bf, apply_a(x), scratch)
            true_norm = sqrt(float(scratch.dot(scratch)))
            if true_norm <= target:
                return out, iterations, true_norm / norm_b
            improved = not true_norm >= best_norm  # a nan is reported
            if improved:
                best_norm, stale = true_norm, 0
            else:
                stale += 1
            if iterations >= max_iter or stale >= STAGNATION_CHECKS:
                floor = best_norm / norm_b
                if improved:
                    best = out.copy()
                else:  # the true residual of the best iterate
                    subtract(bf, apply_a(best.reshape(-1)), scratch)
                r = scratch.reshape(b.shape)
                above = ~(np.sqrt(member_sums(r * r))  # a nan is above
                          <= tol * np.sqrt(member_sums(b * b)))
                raise ConvergenceError(
                    f"CG did not reach tol {tol:g} in {max_iter} iterations "
                    f"(residual {floor:.3e})" if iterations >= max_iter else
                    f"CG stagnated above tol {tol:g}: its true residual "
                    f"reached a floor of {floor:.3e} and the next "
                    f"{STAGNATION_CHECKS} checks did not lower it "
                    f"({iterations} iterations)", best, floor, iterations,
                    tuple(np.flatnonzero(above).tolist()))
            if improved:  # restarts are rare; keep it to report a failure
                best = out.copy()
            r, scratch = scratch, r
            np.copyto(p, r)
            rs = float(r.dot(r))
        ap = apply_a(p)
        p_ap = float(p.dot(ap))
        if not p_ap > 0.0:
            raise ConvergenceError(
                "CG broke down: operator is not positive definite on the "
                "search space", out.copy(), sqrt(rs) / norm_b, iterations)
        alpha = rs / p_ap
        add(x, multiply(alpha, p, scratch), x)
        subtract(r, multiply(alpha, ap, scratch), r)
        rs_next = float(r.dot(r))
        multiply(p, rs_next / rs, p)
        add(p, r, p)
        rs = rs_next
        iterations += 1


class StepOperator:
    """The step matrix x -> x + dt c x - dt div(M grad x) of a batch shape.

    An apply is diag x - sum over axes of D(w G x): G x = x[s:] - x[:-s],
    D f = f[s:] - f[:-s], diag = 1 + dt c (or 1), w = (dt/h^2) M; it equals
    the grid kernels' composition to roundoff, not bitwise.  Its flux is
    face data: w[k] weighs the face of flat cells k and k + s, zero where
    k is last along the axis, so no flux wraps between rows or members.

    CG calls it with flat vectors of B * cells values and gets back its
    one flat result buffer, the same object every call.
    """

    def __init__(self, grid: Grid, shape: tuple):
        cells, strides = math.prod(shape), grid.strides
        self._out, self._diag, self._part, *axes = aligned_zeros(
            [(cells,)] * 3
            + [size for s in strides for size in ((cells,), (s + cells,))],
            [0, 0, 0] + [lead for s in strides for lead in (0, s)])
        self._absorbs = False
        self._weights, self._axes = [], []  # per axis, to assemble, apply
        for n, s, h, w, flux in zip(grid.shape, strides, grid.spacing,
                                    axes[::2], axes[1::2]):
            self._weights.append((h * h, w, last_positions(w, n, s)))
            self._axes.append((s, w[:-s], flux[s:-s], flux[s:], flux[:-s]))

    def assemble(self, mob: Sequence, dt: float,
                 c: Optional[np.ndarray] = None) -> None:
        """Set w from dt and the face mobilities mob, per axis a value per
        flat cell (FaceData.data) or a constant, and diag from c."""
        for (h2, w, last), m in zip(self._weights, mob):
            np.multiply(m, dt / h2, out=w)
            last.fill(0.0)
        self._absorbs = c is not None
        if self._absorbs:
            np.add(np.multiply(c.reshape(-1), dt, out=self._diag), 1.0,
                   out=self._diag)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out, part = self._out, self._part
        subtract, multiply = np.subtract, np.multiply
        acc = x  # without diag the first axis subtracts straight from x
        if self._absorbs:
            acc = multiply(self._diag, x, out)
        for s, w, f_in, f_hi, f_lo in self._axes:
            subtract(x[s:], x[:-s], f_in)
            multiply(f_in, w, f_in)
            subtract(f_hi, f_lo, part)
            acc = subtract(acc, part, out)
        return out


class StepWorkspace:
    """Every cell- and face-sized array a step writes outside its
    StepOperator, allocated once for a batch shape and reused by every step.

    The v and the u step take turns with the same buffers:
      u_faces   FaceData: A22's face means (v step); u's face means,
                then A12's (u step); grad u' (the step's closing sum)
      v_faces   FaceData: v''s face means, then grad v', overwritten by
                the cross flux A12 grad v' (u step)
      aux       C = u max(-q2, 0)/v, then C v' (v step); the reaction plus
                the forcing, when there is a forcing (u step)
      rhs       the right-hand side of each solve; min(u', 0) after the
                u solve, when a cell is to be clipped
      cg        CG's r, p and scratch; r also holds the divergence's
                second-axis term before the u solve
      u, v      the spare state: each solve writes its solution here, and
                Simulation.step swaps it with the current state

    They are views of one block, mapped and returned to the system as a
    whole, each on a cache line (a face vector at entry s, the first the
    kernels write, so its s leading zeros stay zero).
    """

    def __init__(self, grid: Grid, shape: tuple):
        cells, d = math.prod(shape), grid.dim
        views = aligned_zeros([(s + cells,) for s in grid.strides] * 2
                              + [shape] * 7, grid.strides * 2)
        self.u_faces, self.v_faces = (FaceData(grid, shape, views[i:i + d])
                                      for i in (0, d))
        self.aux, self.rhs, self.u, self.v, *cg = views[2 * d:]
        self.cg = tuple(cg)


def aligned_zeros(shapes: Sequence, leads: Sequence = ()) -> list:
    """Zeroed float64 arrays of the given shapes, views of one fresh block
    that do not overlap.  Each starts on a CACHE_LINE boundary, or, where
    leads gives an index, has that element of its flat order there."""
    starts, end = [], 0
    for shape, lead in itertools.zip_longest(shapes, leads, fillvalue=0):
        end += -(end + lead) % (CACHE_LINE // 8)
        starts.append(end)
        end += math.prod(shape)
    block = np.zeros(end + CACHE_LINE // 8 - 1)
    skip = -block.ctypes.data % CACHE_LINE // 8
    return [block[skip + start:skip + start + math.prod(shape)].reshape(shape)
            for shape, start in zip(shapes, starts)]


class Simulation:
    """Mutable stepper over a batch of members; run() and the stability
    harness drive it through march().  It never validates, and its buffers
    are those the module docstring describes.

    u and v have shape (B, *grid.shape), member i being (u[i], v[i]), and
    the per-member ledgers clipped_total, reaction_mass_total and
    cum_grad_u_sq are float64 arrays of shape (B,).  members lists the
    (u0, v0) cell arrays, one pair per member; when it is omitted, cfg's
    own initial data form a batch of one.  cum_grad_u_sq, the sum of
    dt ||grad u||^2, is kept only with grad_ledger and reads nan otherwise.
    """

    def __init__(self, cfg: SimConfig, members: Optional[Sequence] = None,
                 grad_ledger: bool = False):
        self.cfg = cfg
        self.grid = cfg.grid
        self.model = cfg.model
        if members is None:
            members = [cfg.initial_fields()]
        if not members or any(np.shape(a) != self.grid.shape
                              for pair in members for a in pair):
            raise ValueError(f"member data must have the grid shape "
                             f"{self.grid.shape}")
        count = len(members)
        # copied in, so that both slots of step's u/v swap are aligned
        self.u, self.v = aligned_zeros([(count,) + self.grid.shape] * 2)
        for i, (u0, v0) in enumerate(members):
            self.u[i], self.v[i] = u0, v0
        # shape of one value per member, broadcast against the cells
        self._per_cell = (count,) + (1,) * self.grid.dim
        self.t = 0.0
        self.steps = 0
        self.clipped_total = np.zeros(count)
        self.reaction_mass_total = np.zeros(count)  # sum_k dt integral(R1+S1)
        self._grad_ledger = grad_ledger
        self.cum_grad_u_sq = np.full(count, 0.0 if grad_ledger else math.nan)
        # (S1, S2), run on the grid's axes and the step times
        self._forcing = None if cfg.mms_u is None else compile(mms_forcing(
            cfg.mms_u, cfg.mms_v, cfg.model))
        # a constant A12 or A22 is its own face mean, (c + c) / 2 = c
        self._a12_faces, self._a22_faces = (
            (e.value,) * self.grid.dim if isinstance(e, Const) else None
            for e in (cfg.model.a12, cfg.model.a22))
        self._max_iter = cfg.lin_max_iter or max(200, 10 * self.grid.cell_count)
        self.operator = StepOperator(self.grid, self.u.shape)
        self.work = StepWorkspace(self.grid, self.u.shape)

    def march(self):
        """Step cfg's time grid from t = 0 to t_end, yielding the time at
        every tick: t = 0, after every output_every-th step, and after the
        final step.  This is the one tick rule of every entry point.  It
        holds one step time at a time, or one block of them with a
        forcing, so its memory does not grow with the number of steps."""
        times = time_grid(self.cfg.dt, self.cfg.t_end)
        steps = zip(times, itertools.repeat(None)) if self._forcing is None \
            else self._forcing_rows(times)
        every = self.cfg.output_every
        yield self.t
        k = 0
        for k, (t_next, forcing) in enumerate(steps, 1):
            self.step(t_next - self.t, t_next, forcing)
            if k % every == 0:
                yield self.t
        if k % every:  # the final step, off the cadence
            yield self.t

    def _forcing_rows(self, times):
        """Per step time t of the iterator times, the pair (t, forcing):
        forcing is (S1, S2) at t, or None where step() is to evaluate it.

        The program runs once per block of max(1, FORCING_BLOCK_CELLS //
        cells) times, t a column of shape (k, 1) in 1-D and (k, 1, 1) in 2-D
        that broadcasts against the grid's axes.  Each element of a value
        that depends on t comes from the same ufunc on the same operands as
        at its time alone, so its row is bitwise that value.  A block that
        raises is left to step(): the steps before the failing time run,
        and that step fails with its own message."""
        column = (-1,) + (1,) * self.grid.dim
        k = max(1, FORCING_BLOCK_CELLS // self.grid.cell_count)
        while block := list(itertools.islice(times, k)):
            try:
                pair = self._forcing({**self.grid.axes,
                                      "t": np.reshape(block, column)})
            except exprs.EvalError:
                yield from zip(block, itertools.repeat(None))
                continue
            for i, t in enumerate(block):
                yield t, tuple(s[i] if np.ndim(s) > self.grid.dim else s
                               for s in pair)

    def state(self, i: int = 0) -> SimState:
        return SimState(self.t, self.u[i].copy(), self.v[i].copy())

    def step(self, dt: float, t_next: Optional[float] = None,
             forcing: Optional[tuple] = None) -> None:
        """Advance every member by dt.  forcing is the pair (S1, S2) at
        t_next, as march hands it; without it the step evaluates its own.
        A failure's message starts with the step number and its time; a
        PositivityError carries the indices of the failing members in
        .members."""
        if t_next is None:
            t_next = self.t + dt
        try:
            if forcing is None and self._forcing is not None:
                forcing = self._forcing({**self.grid.axes, "t": t_next})
            s1, s2 = forcing or (None, None)
            v_new = self._step_v(dt, s2)
            u_new = self._step_u(dt, v_new, s1)
        except (RuntimeError, ValueError) as err:  # solves, positivity, domains
            if err.args and isinstance(err.args[0], str):
                err.args = (f"step {self.steps + 1} (t = {t_next:g}): "
                            f"{err.args[0]}",) + err.args[1:]
            raise
        self.steps += 1
        ws = self.work
        self.u, ws.u = u_new, self.u
        self.v, ws.v = v_new, self.v
        if self._grad_ledger:
            self.cum_grad_u_sq += dt * grad_sq_sum(self.grid, self.u,
                                                   out=ws.u_faces)
        self.t = t_next

    def _solve(self, name: str, rhs: np.ndarray, x0: np.ndarray,
               out: np.ndarray) -> np.ndarray:
        """CG on the assembled operator, into out; errors name the solve."""
        try:
            return conjugate_gradient(self.operator, rhs, x0, self.cfg.lin_tol,
                                      self._max_iter, out, self.work.cg)[0]
        except ConvergenceError as err:
            err.args = (f"{name} solve: {err.args[0]}",) + err.args[1:]
            raise

    def _step_v(self, dt: float, s2) -> np.ndarray:
        g, m, ws = self.grid, self.model, self.work
        u, v = self.u, self.v
        mob = self._a22_faces or face_average_arrays(
            g, as_cells(m.a22_values(u, v), u.shape), out=ws.u_faces).data
        q2 = m.q2_values(v)
        c_abs = np.negative(q2, out=ws.aux)  # u max(-q2, 0) / v
        np.maximum(c_abs, 0.0, out=c_abs)
        np.multiply(u, c_abs, out=c_abs)
        np.divide(c_abs, v, out=c_abs)
        rhs = np.maximum(q2, 0.0, out=ws.rhs)  # v + dt (u max(q2, 0) + R~2)
        np.multiply(u, rhs, out=rhs)
        r2 = m.r2_tilde_values(u, v)
        # a constant 0 adds nothing that survives v + dt (...) with v > 0
        if type(r2) is not float or r2 != 0.0:
            np.add(rhs, r2, out=rhs)
        if s2 is not None:
            np.add(rhs, s2, out=rhs)
        np.multiply(dt, rhs, out=rhs)
        np.add(v, rhs, out=rhs)

        self.operator.assemble(mob, dt, c_abs)
        v_new = self._solve("v", rhs, v, ws.v)
        # analytic mass balance: sum v' = sum rhs - dt sum(C v'); restore it
        np.multiply(c_abs, v_new, out=c_abs)  # C v'
        shift = (member_sums(rhs) - dt * member_sums(c_abs)
                 - member_sums(v_new)) / g.cell_count
        v_new += shift.reshape(self._per_cell)
        if np.fmin.reduce(v_new, axis=None) <= 0.0:  # fmin skips a nan
            failing = np.flatnonzero(member_sums(v_new <= 0.0)).tolist()
            raise PositivityError("positivity lost in the v step; reduce dt",
                                  tuple(failing))
        return v_new

    def _step_u(self, dt: float, v_new: np.ndarray, s1) -> np.ndarray:
        g, m, ws = self.grid, self.model, self.work
        u = self.u
        vol = g.cell_volume
        mass_pre = member_sums(u) * vol

        # assembled first: the face buffers are reused for the cross flux
        u_faces = face_average_arrays(g, u, out=ws.u_faces)
        v_faces = face_average_arrays(g, v_new, out=ws.v_faces)
        self.operator.assemble(tuple(m.a11_values(uf, vf) for uf, vf
                                     in zip(u_faces.data, v_faces.data)), dt)

        a12_faces = self._a12_faces or face_average_arrays(
            g, as_cells(m.a12_values(u, v_new), u.shape), out=ws.u_faces).data
        cross = gradient_arrays(g, v_new, out=ws.v_faces)
        for af, gf in zip(a12_faces, cross.data):
            np.multiply(af, gf, out=gf)
        reaction = m.r1_values(u, v_new)
        if s1 is not None:
            reaction = np.add(reaction, s1, out=ws.aux)
        # u + dt (div(A12 grad v') + R1 + S1)
        rhs = divergence_arrays(g, cross, out=ws.rhs, scratch=ws.cg[0])
        np.add(rhs, reaction, out=rhs)
        np.multiply(dt, rhs, out=rhs)
        np.add(u, rhs, out=rhs)

        u_new = self._solve("u", rhs, u, ws.u)
        # flux divergences carry no net mass; reactions and forcing do
        reaction_mass = dt * member_sums(reaction) * vol
        shift = (mass_pre + reaction_mass - member_sums(u_new) * vol) \
            / (g.cell_count * vol)
        u_new += shift.reshape(self._per_cell)
        # with every cell positive the clipped mass is -0.0, which leaves
        # the ledger as it is; a zero, a negative cell or a nan clips
        if not np.minimum.reduce(u_new, axis=None) > 0.0:
            clipped = member_sums(np.minimum(u_new, 0.0, out=rhs)) * -vol
            over = clipped > CLIP_BUDGET * np.maximum(mass_pre, 1e-300)
            if over.any():
                raise PositivityError(
                    "positivity budget exceeded: clipped "
                    f"{clipped[over].max():.3e} > {CLIP_BUDGET:g} * "
                    "mass; reduce dt", tuple(np.flatnonzero(over).tolist()))
            np.maximum(u_new, 0.0, out=u_new)  # bitwise np.clip's
            self.clipped_total += clipped
        self.reaction_mass_total += reaction_mass
        return u_new

    def diagnostics_row(self, i: int = 0) -> DiagnosticsRow:
        g = self.grid
        u, v = self.u[i], self.v[i]
        vol = g.cell_volume
        max_grad_v = max(float(np.max(np.abs(gf)))
                         for gf in gradient_arrays(g, v))
        if self.cfg.f_energy_gamma is not None:
            fe = f_energy(g, u, v, self.cfg.f_energy_gamma,
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
            cum_grad_u_sq=float(self.cum_grad_u_sq[i]),
            f_energy=fe,
            clipped_mass=float(self.clipped_total[i]),
        )


def time_grid(dt: float, t_end: float):
    """Step times 0 < t_1 < ... < t_N = t_end with fixed dt and a shortened
    final step, made one at a time as k dt, so that they carry no
    accumulation drift and a march holds none but the current one."""
    n_full = int(math.floor(t_end / dt + 1e-9))
    shortened = n_full == 0 or t_end - n_full * dt > 1e-9 * dt
    yield from (k * dt for k in range(1, n_full + shortened))
    yield t_end


def run(cfg: SimConfig):
    """Validate cfg, then march it to t_end, yielding its Simulation, with
    the run's gradient ledger, at every tick of Simulation.march.  A
    generator: it validates at the first next().  The yielded arrays are
    overwritten by the next step, so a caller that keeps a state copies it,
    as Simulation.state() does."""
    cfg.validate()
    sim = Simulation(cfg, grad_ledger=True)
    for _ in sim.march():
        yield sim


# ---------------------------------------------------------------------------
# diagnostics and manufactured solutions

def f_energy(g: Grid, u: np.ndarray, v: np.ndarray, gamma_param: float,
             ks: float) -> float:
    """integral( u ln u + gamma/4 |grad v|^4 / v^3 + ks^2/6 v^3 ), with the
    convention 0 ln 0 = 0 and face gradients averaged back to centers."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ulnu = np.where(u > 0.0, u * np.log(np.maximum(u, 1e-300)), 0.0)
    grad_sq = np.zeros(g.shape)
    for s, gf in zip(g.strides, gradient_arrays(g, v)):
        centered = (0.5 * (gf[:-s] + gf[s:])).reshape(g.shape)
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
