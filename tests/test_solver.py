"""Time integration: stepping oracles, conservation, positivity, MMS."""

import dataclasses
import inspect
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crossdiff import solver
from crossdiff.cli import load_config, main
from crossdiff.coeffs import CoefficientModel, build_preset
from crossdiff.exprs import evaluate, parse
from crossdiff.grid import (Grid, divergence_arrays, grad_sq_sum,
                            gradient_arrays)
from crossdiff.solver import (ConvergenceError, PositivityError, SimConfig,
                              Simulation, StepOperator, conjugate_gradient,
                              f_energy, mms_forcing, run, time_grid)
from crossdiff.stability import perturbation_sweep
from test_grid import centers, reference_averages, reference_gradients


def make_model(alpha=0.0, p="1", a12="0", a22="1", q_lower="1",
               r1_linear="0", r1_tilde="0", r2_linear="0", r2_tilde="0"):
    return CoefficientModel(
        alpha=float(alpha), p=parse(p), a12=parse(a12), a22=parse(a22),
        q_lower=parse(q_lower), r1_linear=parse(r1_linear),
        r1_tilde=parse(r1_tilde), r2_linear=parse(r2_linear),
        r2_tilde=parse(r2_tilde))


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

HEAT = make_model()  # alpha = 0, p = 1, A12 = 0, A22 = 1, R = 0


def case2(chi=0.25, l=0.5):
    return build_preset(2, {"chi": chi, "l": l})


def stepper(grid, model, u, v):
    """A one-member Simulation from the given cell values; the config's own
    initial data and time span are unused."""
    cfg = SimConfig(grid=grid, model=model, dt=1.0, t_end=1.0)
    return Simulation(cfg, members=[
        (np.broadcast_to(u, grid.shape), np.broadcast_to(v, grid.shape))])


# ---------------------------------------------------------------------------
# step operator and CG


def flat(mob):
    """Cell-shaped mobilities, each cell's value on its upper face per
    axis, as assemble takes them: one value per flat cell."""
    return tuple(m.reshape(-1) for m in mob)


def operator(grid, mob, dt, c=None):
    """A StepOperator for the cells of mob's batch, assembled."""
    op = StepOperator(grid, mob[0].shape)
    op.assemble(flat(mob), dt, c)
    return op


def along(grid, axis, x):
    """Cell data of N flat cells as (N / (n s), n, s), for the axis of n
    cells and stride s: the cells along the axis in the middle."""
    return x.reshape(-1, grid.shape[axis], grid.strides[axis])


def folded(grid, mob, dt, c, x):
    """The step matrix written out as the operator folds it:
    diag x - sum over axes of D(w G x), with w = (dt/h^2) M on the interior
    faces, zero flux on the boundary faces and diag = 1 + dt c; M on the
    face between two cells is the mobility of the lower one."""
    out = x.copy() if c is None else (1.0 + dt * c) * x
    for axis, (h, m) in enumerate(zip(grid.spacing, mob)):
        xa, ma = along(grid, axis, x), along(grid, axis, m)
        flux = np.zeros((len(xa), xa.shape[1] + 1, xa.shape[2]))
        w = ma[:, :-1] * (dt / (h * h))
        flux[:, 1:-1] = (xa[:, 1:] - xa[:, :-1]) * w
        out = out - (flux[:, 1:] - flux[:, :-1]).reshape(x.shape)
    return out


def random_operator_data(grid, rng, lead=()):
    mob = tuple(rng.uniform(0.1, 3.0, lead + grid.shape) for _ in grid.shape)
    return mob, rng.uniform(0.0, 2.0, lead + grid.shape)


GRIDS = [Grid((37,), (1.3,)), Grid((9, 14), (0.7, 2.1))]


def cg(apply_a, b, x0, tol, max_iter):
    """conjugate_gradient into a fresh iterate and workspace."""
    return conjugate_gradient(apply_a, b, x0, tol, max_iter,
                              np.empty_like(b),
                              tuple(np.empty_like(b) for _ in range(3)))


@pytest.mark.parametrize("grid", GRIDS)
def test_step_operator_matches_folded_formula_bitwise(grid):
    rng = np.random.default_rng(grid.cell_count)
    dt = 0.0137
    mob, c = random_operator_data(grid, rng)
    v_apply = operator(grid, mob, dt, c)
    u_apply = operator(grid, mob, dt)
    for _ in range(3):  # the result arrays are reused from call to call
        x = rng.standard_normal(grid.shape)
        assert np.array_equal(v_apply(x), folded(grid, mob, dt, c, x))
        assert np.array_equal(u_apply(x), folded(grid, mob, dt, None, x))


@pytest.mark.parametrize("grid", GRIDS)
def test_step_operator_matches_grid_calculus_to_roundoff(grid):
    # Both x + dt c x - dt div(M grad x), from the grid kernels, and the
    # folded operator evaluate one exact sum of the terms x, dt c x and, per
    # axis and face of a cell, (dt/h^2) M x_hi and (dt/h^2) M x_lo.  Each
    # term passes through at most 8 roundings in either evaluation (the
    # grid path: difference, /h, *M, face difference, /h, axis sum, *dt,
    # final subtraction), so each result is within gamma_8 S of the exact
    # value (Higham, Accuracy and Stability, 2nd ed., section 3.1), where
    # S sums the terms' magnitudes, and the two differ by at most
    # 2 gamma_8 S.  gamma_10 covers the roundoff of computing S itself.
    rng = np.random.default_rng(grid.cell_count + 1)
    dt = 0.0137
    mob, c = random_operator_data(grid, rng)
    eps = np.finfo(float).eps / 2.0  # unit roundoff
    gamma = 10 * eps / (1.0 - 10 * eps)
    for absorbing in (c, None):
        op = operator(grid, mob, dt, absorbing)
        for _ in range(3):
            x = rng.standard_normal(grid.shape)
            flux = gradient_arrays(grid, x)
            for m, g in zip(flat(mob), flux.data):
                np.multiply(m, g, out=g)
            diffusion = dt * divergence_arrays(grid, flux).reshape(x.shape)
            if absorbing is None:
                kernels, size = x - diffusion, np.abs(x)
            else:
                kernels = x + dt * absorbing * x - diffusion
                size = np.abs(x) + dt * absorbing * np.abs(x)
            for axis, (h, m) in enumerate(zip(grid.spacing, mob)):
                xa, ma = along(grid, axis, np.abs(x)), along(grid, axis, m)
                terms = np.zeros((len(xa), xa.shape[1] + 1, xa.shape[2]))
                terms[:, 1:-1] = dt / (h * h) * ma[:, :-1] * (
                    xa[:, 1:] + xa[:, :-1])
                size = size + (terms[:, 1:] + terms[:, :-1]).reshape(x.shape)
            assert np.all(np.abs(op(x) - kernels) <= 2.0 * gamma * size)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("k", [0.7, -3.25, 1e-300])
def test_step_operator_maps_a_constant_to_diag_times_it_exactly(grid, k):
    rng = np.random.default_rng(5)
    dt = 0.0137
    mob, c = random_operator_data(grid, rng, (2,))
    x = np.full((2,) + grid.shape, k)
    assert np.array_equal(operator(grid, mob, dt, c)(x), (1.0 + dt * c) * k)
    assert np.array_equal(operator(grid, mob, dt)(x), x)


@pytest.mark.parametrize("grid", GRIDS)
def test_v_then_u_assembly_equals_fresh_operators_bitwise(grid):
    # one step: the v solve assembles with a diagonal, then the u solve
    # reassembles the same buffers without one
    rng = np.random.default_rng(6)
    dt = 0.0137
    mob_v, c = random_operator_data(grid, rng, (3,))
    mob_u, _ = random_operator_data(grid, rng, (3,))
    x = rng.standard_normal((3,) + grid.shape)
    op = StepOperator(grid, x.shape)
    op.assemble(flat(mob_v), dt, c)
    v_result = op(x).copy()
    op.assemble(flat(mob_u), dt)
    u_result = op(x)
    assert np.array_equal(v_result, operator(grid, mob_v, dt, c)(x))
    assert np.array_equal(u_result, operator(grid, mob_u, dt)(x))
    assert op(x) is u_result  # every apply returns the same buffer


@pytest.mark.parametrize("grid", GRIDS)
def test_batched_step_operator_equals_member_operators_bitwise(grid):
    rng = np.random.default_rng(3)
    dt = 0.0137
    mob, c = random_operator_data(grid, rng, (3,))
    x = rng.standard_normal((3,) + grid.shape)
    v_batch = operator(grid, mob, dt, c)(x)
    u_batch = operator(grid, mob, dt)(x)
    for i in range(3):
        member_mob = tuple(m[i] for m in mob)
        assert np.array_equal(v_batch[i],
                              operator(grid, member_mob, dt, c[i])(x[i]))
        assert np.array_equal(u_batch[i],
                              operator(grid, member_mob, dt)(x[i]))


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("members", [1, 3])
def test_a_flat_input_gets_the_flat_view_of_one_buffer(grid, members):
    # CG hands the operator flat vectors of B * cells values and uses the
    # result as one, so an apply reshapes nothing on the way in or out
    rng = np.random.default_rng(50 + members)
    dt = 0.0137
    mob, c = random_operator_data(grid, rng, (members,))
    for absorbing in (c, None):
        op = operator(grid, mob, dt, absorbing)
        results = []
        for _ in range(3):
            x = rng.standard_normal(c.shape)
            flat = op(x.reshape(-1))
            assert flat.shape == (x.size,)
            assert np.array_equal(flat.reshape(x.shape),
                                  folded(grid, mob, dt, absorbing, x))
            results.append(flat)
        assert all(r is results[0] for r in results)
        shaped = op(x)  # the shaped view of the same buffer
        assert shaped.shape == x.shape and np.shares_memory(shaped, flat)


@pytest.mark.parametrize("members, dt, tol, max_iter", [
    (3, 0.05, 1e-11, 500), (3, 0.05, 1e-11, 3), (3, 10.0, 1e-12, 400),
    (2, 1.0, 1e-16, 10 ** 5)], ids=["converged", "max_iter", "restarted",
                                   "stagnated"])
def test_cg_hands_apply_a_only_flat_vectors(members, dt, tol, max_iter):
    g = Grid((32,), (1.0,))
    rng = np.random.default_rng(32 + members)
    mob = (rng.uniform(0.1, 3.0, (members, 33))[:, 1:],)  # upper faces
    b = rng.standard_normal((members, 32))
    op = operator(g, mob, dt)
    assert_cg_matches_textbook(op, b, tol, max_iter)
    shapes = []

    def recorded(x):
        shapes.append(x.shape)
        return op(x)

    try:
        x = cg(recorded, b, np.zeros_like(b), tol, max_iter)[0]
    except ConvergenceError as err:
        x = err.best
    assert x.shape == b.shape
    assert len(shapes) > 3 and set(shapes) == {(b.size,)}


def two_member_2d(**kwargs):
    g = Grid((24, 20), (1.0, 1.2))
    cfg = SimConfig(grid=g, model=case2(), dt=1e-4, t_end=1.0, **kwargs)
    x, y = centers(g)
    return Simulation(cfg, members=[
        (1.0 + 0.5 * np.cos(math.pi * x), 1.0 + 0.2 * np.cos(math.pi * y)),
        (np.full(g.shape, 1.2), 1.0 + 0.1 * np.cos(math.pi * x))])


def test_steps_after_the_first_allocate_no_operator_arrays():
    sim = two_member_2d()
    cfg = sim.cfg
    sim.step(cfg.dt)
    op = sim.operator
    buffers = {id(a) for a in vars(op).values() if isinstance(a, np.ndarray)}
    smallest = min(sim.u[0, 1:].nbytes, sim.u[0, :, 1:].nbytes)  # w arrays
    # the operator's lines, and those of the helper that cuts its buffers
    code = set()
    for owner in (StepOperator, solver.aligned_zeros):
        lines, first = inspect.getsourcelines(owner)
        code.update(range(first, first + len(lines)))
    cell_bytes = sim.u.nbytes
    x = sim.u.copy()
    tracemalloc.start()
    try:
        sim.step(cfg.dt)
        held = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        op(x)
        transient = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sim.operator is op and buffers == {
        id(a) for a in vars(op).values() if isinstance(a, np.ndarray)}
    # nothing array-sized that the operator's code allocated in the second
    # step is alive (numpy keeps a few bytes of shape caches) ...
    assert not [stat for stat in held.statistics("lineno")
                if stat.traceback[0].filename == inspect.getfile(StepOperator)
                and stat.traceback[0].lineno in code
                and stat.size >= smallest]
    # ... and an apply allocates nothing of cell size (nor does assemble:
    # see the next test)
    assert transient < cell_bytes


def test_assemble_allocates_nothing_and_keeps_the_folded_weights():
    # at 128^2 numpy buffered a strided multiply into the weights with
    # 128.5 KiB of iterator buffers per call
    g = Grid((128, 128), (1.0, 1.0))
    rng = np.random.default_rng(10)
    dt = 1e-4
    mob, c = random_operator_data(g, rng, (1,))
    op = StepOperator(g, c.shape)
    x = rng.standard_normal(c.shape)
    for absorbing in (c, None):
        op.assemble(flat(mob), dt, absorbing)
        tracemalloc.start()
        try:
            op.assemble(flat(mob), dt, absorbing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024
        # the weights are m[inner] * (dt / h^2), as a multiply straight
        # from the mobilities makes them
        assert np.array_equal(op(x), folded(g, mob, dt, absorbing, x))


def test_batched_cg_bounds_every_member_relative_residual():
    # one member's right-hand side is 1e6 times smaller than the others';
    # a stop at tol * ||b|| would leave it far above tol
    g = Grid((96,), (1.0,))
    rng = np.random.default_rng(4)
    mob = (rng.uniform(0.5, 2.0, (3, 97))[:, 1:],)  # upper faces
    apply_a = operator(g, mob, 0.05)
    b = rng.standard_normal((3, 96))
    b[1] *= 1e-6
    tol = 1e-8
    x, iterations, rel = cg(apply_a, b, np.zeros_like(b), tol, 1000)
    assert iterations > 0 and rel <= tol
    residual = b - apply_a(x)
    for r_i, b_i in zip(residual, b):
        assert np.linalg.norm(r_i) <= tol * np.linalg.norm(b_i)


def test_batched_step_equals_single_member_steps():
    # a batch differs from separate runs only through the shared CG stop
    g = Grid((40,), (1.0,))
    cfg = SimConfig(grid=g, model=case2(), dt=5e-4, t_end=0.01,
                    ic_u=parse("1 + 0.5*cos(pi*x)"),
                    ic_v=parse("1 + 0.2*cos(pi*x)"), lin_tol=1e-12)
    x = g.axes["x"]
    data = [(1.0 + 0.5 * np.cos(math.pi * x), 1.0 + 0.2 * np.cos(math.pi * x)),
            (1.2 + 0.1 * np.cos(2 * math.pi * x), np.full(40, 0.8))]
    batch = Simulation(cfg, members=data, grad_ledger=True)
    singles = [Simulation(cfg, members=[d], grad_ledger=True) for d in data]
    for _ in range(20):
        batch.step(cfg.dt)
        for sim in singles:
            sim.step(cfg.dt)
    for i, sim in enumerate(singles):
        assert np.allclose(batch.u[i], sim.u[0], rtol=1e-10, atol=0.0)
        assert np.allclose(batch.v[i], sim.v[0], rtol=1e-10, atol=0.0)
        row, alone = batch.diagnostics_row(i), sim.diagnostics_row()
        assert row.mass_u == pytest.approx(alone.mass_u, rel=1e-12)
        assert row.cum_grad_u_sq > 0.0  # the ledger was kept
        assert row.cum_grad_u_sq == pytest.approx(alone.cum_grad_u_sq,
                                                  rel=1e-9)
        assert batch.reaction_mass_total[i] == pytest.approx(
            sim.reaction_mass_total[0], rel=1e-12)


def test_only_run_keeps_the_grad_ledger(tmp_path, monkeypatch):
    # cum_grad_u_sq costs a gradient per step and only run's diagnostics
    # read it, so a sweep batch and an MMS level never take one
    calls = []

    def counted(grid, a, out=None):
        calls.append(a.shape)
        return grad_sq_sum(grid, a, out=out)

    monkeypatch.setattr(solver, "grad_sq_sum", counted)
    cfg = SimConfig(grid=Grid((24,), (1.0,)), model=case2(), dt=1e-3,
                    t_end=0.01, ic_u=parse("1 + 0.3*cos(pi*x)"),
                    ic_v=parse("1 + 0.1*cos(2*pi*x)"))
    perturbation_sweep(cfg, parse("cos(pi*x)"), parse("cos(2*pi*x)"),
                       [0.01, 0.005])
    mms = tmp_path / "mms.json"
    mms.write_text(json.dumps({
        "command": "mms",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.05, "l": 0.5},
        "time": {"dt": 0.002, "t_end": 0.01},
        "mms": {"u": "2 + 0.5*exp(-t)*cos(pi*x)",
                "v": "2 + 0.25*exp(-t)*cos(pi*x)", "levels": [8, 16]},
        "output": {"directory": str(tmp_path / "out")},
    }), encoding="utf-8")
    assert main([str(mms)]) == 0
    assert calls == []
    run(cfg)  # the counter sees run's ledger: one gradient per step
    assert calls == [(1, 24)] * 10


def test_nonconvergence_carries_best_iterate():
    g = Grid((128,), (1.0,))
    rng = np.random.default_rng(12)
    apply_a = operator(g, (rng.uniform(0.5, 2.0, (1, 129))[:, 1:],), 1.0)
    b = rng.standard_normal((1, 128))
    with pytest.raises(ConvergenceError) as err:
        cg(apply_a, b, np.zeros((1, 128)), 1e-14, 2)
    assert err.value.best.shape == (1, 128)
    assert err.value.iterations == 2
    assert math.isfinite(err.value.residual_norm)


def test_failed_solve_reports_the_true_residual_of_its_best_iterate(
        monkeypatch):
    # at tol 1e-16 the first v solve of case2_run_1d stalls at roundoff;
    # after 5 iterations its recurrence residual reads 7% below the true one
    cfg = load_config(CONFIG_DIR / "case2_run_1d.json").sim
    solves = []

    def recording(apply_a, b, *args):
        solves.append((apply_a, b))
        return conjugate_gradient(apply_a, b, *args)

    monkeypatch.setattr(solver, "conjugate_gradient", recording)
    with pytest.raises(ConvergenceError) as err:
        run(dataclasses.replace(cfg, lin_tol=1e-16, lin_max_iter=5))
    apply_a, b = solves[-1]
    true = np.linalg.norm(b - apply_a(err.value.best)) / np.linalg.norm(b)
    assert err.value.iterations == 5
    assert err.value.residual_norm == pytest.approx(true, rel=1e-12)
    assert f"(residual {true:.3e})" in str(err.value)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_cg_refuses_a_non_finite_right_hand_side(bad):
    g = Grid((16,), (1.0,))
    apply_a = operator(g, (np.ones((2, 16)),), 0.1)
    b = np.ones((2, 16))
    b[1, 3] = bad
    with pytest.raises(ConvergenceError, match="not finite") as err:
        cg(apply_a, b, np.zeros_like(b), 1e-10, 200)
    assert err.value.iterations == 0


def textbook_cg(apply_a, b, x0, tol, max_iter):
    """conjugate_gradient's iteration written out with a fresh array for
    every update, with its stop rule, its restart from the true residual and
    its stagnation rule.  Returns (x, iterations, rel, converged, restarts);
    when it did not converge, x is the checked iterate with the smallest
    true residual (the first of equals) and rel its ||r|| / min_i ||b_i||.
    """
    norm_b = np.linalg.norm(b)
    if len(b) > 1:
        norms = np.linalg.norm(b.reshape(len(b), -1), axis=1)
        norm_b = float(np.min(norms[norms > 0.0]))
    x = x0.astype(float)
    r = b - apply_a(x)
    p = r.copy()
    rs = float(np.vdot(r, r))
    restarts = 0
    checked = []  # (true residual, iterate) of every failed check
    for k in range(max_iter + 1):
        if math.sqrt(rs) <= tol * norm_b or k == max_iter:
            true_r = b - apply_a(x)
            true_norm = math.sqrt(float(np.vdot(true_r, true_r)))
            if true_norm <= tol * norm_b:
                return x, k, true_norm / norm_b, True, restarts
            checked.append((true_norm, x))
            best = min(range(len(checked)), key=lambda j: checked[j][0])
            if k == max_iter \
                    or len(checked) - 1 - best >= solver.STAGNATION_CHECKS:
                return (checked[best][1], k, checked[best][0] / norm_b,
                        False, restarts)
            r, p, rs = true_r, true_r.copy(), float(np.vdot(true_r, true_r))
            restarts += 1
        ap = apply_a(p).copy()
        alpha = rs / float(np.vdot(p, ap))
        x = x + alpha * p
        r = r - alpha * ap
        rs_next = float(np.vdot(r, r))
        p = r + rs_next / rs * p
        rs = rs_next


def assert_cg_matches_textbook(apply_a, b, tol, max_iter) -> int:
    """conjugate_gradient equals textbook_cg bitwise, returning or raising;
    returns the textbook loop's restart count."""
    x0 = np.zeros_like(b)
    want_x, want_k, want_rel, converged, restarts = textbook_cg(
        apply_a, b, x0, tol, max_iter)
    if converged:
        x, k, rel = cg(apply_a, b, x0, tol, max_iter)
    else:
        with pytest.raises(ConvergenceError) as err:
            cg(apply_a, b, x0, tol, max_iter)
        x, k, rel = err.value.best, err.value.iterations, \
            err.value.residual_norm
    assert np.array_equal(x, want_x) and k == want_k and rel == want_rel
    return restarts


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("absorbing", [True, False])
def test_cg_matches_the_textbook_loop_bitwise(grid, members, absorbing):
    rng = np.random.default_rng(members)
    mob, c = random_operator_data(grid, rng, (members,))
    apply_a = operator(grid, mob, 0.05, c if absorbing else None)
    b = rng.standard_normal(c.shape)
    assert_cg_matches_textbook(apply_a, b, 1e-11, 500)
    assert_cg_matches_textbook(apply_a, b, 1e-11, 3)  # stopped at max_iter


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("members", [1, 3])
def test_cg_through_a_one_argument_wrapper_equals_the_operator(grid,
                                                               members):
    # a tracer counts applies by handing CG a plain one-argument wrapper of
    # the operator, as perfbench's counted_apply does
    rng = np.random.default_rng(40 + members)
    mob, c = random_operator_data(grid, rng, (members,))
    b = rng.standard_normal(c.shape)
    for absorbing in (c, None):
        op = operator(grid, mob, 0.05, absorbing)
        applies = []

        def counted_apply(x):
            applies.append(x)
            return op(x)

        x, k, rel = cg(op, b, np.zeros_like(b), 1e-11, 500)
        wx, wk, wrel = cg(counted_apply, b, np.zeros_like(b), 1e-11, 500)
        assert k > 0 and np.array_equal(wx, x) and wk == k and wrel == rel
        # the first residual, one apply per iteration, at least one check
        assert len(applies) >= k + 2


@pytest.mark.parametrize("members, dt", [(1, 1.0), (3, 10.0)])
def test_cg_matches_the_textbook_loop_after_restarts(members, dt):
    # at tol 1e-12 the recurrence residual of these ill-conditioned solves
    # drifts below the true one, so CG restarts from the true residual
    g = Grid((32,), (1.0,))
    rng = np.random.default_rng(32 + members)
    mob = (rng.uniform(0.1, 3.0, (members, 33))[:, 1:],)  # upper faces
    b = rng.standard_normal((members, 32))
    assert assert_cg_matches_textbook(operator(g, mob, dt), b, 1e-12,
                                      400) >= 1


def test_cg_peak_memory_does_not_grow_with_its_iterations():
    g = Grid((128, 128), (1.0, 1.0))
    rng = np.random.default_rng(9)
    mob, c = random_operator_data(g, rng, (1,))
    apply_a = operator(g, mob, 1e-3, c)
    b = rng.standard_normal(c.shape)
    x0 = np.zeros_like(b)
    out = np.empty_like(b)
    work = tuple(np.empty_like(b) for _ in range(3))
    applies, after_apply, worst = [0], [0], [0]  # no growing record

    def probe(v):
        # from the second apply on: the most allocated, since the last
        # apply, beyond what it left
        if applies[0] >= 2:
            worst[0] = max(worst[0], tracemalloc.get_traced_memory()[1]
                           - after_apply[0])
        result = apply_a(v)
        applies[0] += 1
        tracemalloc.reset_peak()
        after_apply[0] = tracemalloc.get_traced_memory()[0]
        return result

    conjugate_gradient(apply_a, b, x0, 1e-10, 1000, out, work)
    peaks, iterations = [], []
    for tol in (1e-2, 1e-12):
        applies[0] = 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            x, k, _ = conjugate_gradient(probe, b, x0, tol, 1000, out, work)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert x is out
        iterations.append(k)
    assert iterations[1] >= 5 * iterations[0]
    # the iterate and the work arrays are the caller's, whatever the
    # iteration count, and an iteration allocates no array
    assert peaks[1] <= peaks[0] + 1024 and peaks[1] < 4096
    assert worst[0] < 1024


def test_cg_matches_the_textbook_loop_when_it_stagnates():
    # at tol 1e-16 the true residual stalls at its roundoff floor while the
    # recurrence residual keeps falling, so each check restarts CG until
    # STAGNATION_CHECKS checks in a row fail to lower the best one
    g = Grid((32,), (1.0,))
    rng = np.random.default_rng(34)
    mob = (rng.uniform(0.1, 3.0, (2, 33))[:, 1:],)  # upper faces
    b = rng.standard_normal((2, 32))
    apply_a = operator(g, mob, 1.0)
    assert assert_cg_matches_textbook(apply_a, b, 1e-16, 10 ** 5) \
        >= solver.STAGNATION_CHECKS
    with pytest.raises(ConvergenceError, match="stagnated") as err:
        cg(apply_a, b, np.zeros_like(b), 1e-16, 10 ** 5)
    assert err.value.iterations < 1000


def run_2d_like(tol: float) -> SimConfig:
    """The shape of the benchmark's 128^2 case-2 run, with the data its
    seeds jitter by up to 10%."""
    return SimConfig(grid=Grid((128, 128), (1.0, 1.0)), model=case2(),
                     dt=2e-4, t_end=0.02, lin_tol=tol,
                     ic_u=parse("1 + 0.5*cos(pi*x)*cos(pi*y)"),
                     ic_v=parse("1 + 0.2*cos(pi*x)*cos(pi*y)"))


def test_a_stagnated_step_solve_fails_fast_and_names_its_floor():
    # the true residual of the first v solve stalls near 7e-16; the cap
    # max(200, 10 cells) alone would let CG run 163,840 iterations
    sim = Simulation(run_2d_like(1e-16))
    with pytest.raises(ConvergenceError,
                       match=r"step 1 .*v solve: CG stagnated") as err:
        sim.step(sim.cfg.dt)
    assert err.value.iterations <= 200  # 52 on this data
    floor = err.value.residual_norm
    assert 1e-16 < floor < 1e-14
    assert f"reached a floor of {floor:.3e}" in str(err.value)
    # the floor is the true residual of the iterate the error carries
    b = sim.work.rhs
    true = np.linalg.norm(b - sim.operator(err.value.best)) / np.linalg.norm(b)
    assert floor == pytest.approx(true, rel=1e-12)


# ---------------------------------------------------------------------------
# step workspace


def step_arrays(sim) -> list:
    """Every array a Simulation steps with: its state, its workspace and
    its operator's buffers (the operator keeps a list of tuples per axis)."""
    held = [sim.u, sim.v]
    for value in (*vars(sim.work).values(), *vars(sim.operator).values()):
        if isinstance(value, list):
            value = tuple(a for axis in value for a in axis)
        held.extend(value if isinstance(value, tuple) else (value,))
    return [a for a in held if isinstance(a, np.ndarray)]


STEP_COEFFICIENTS = ("a11_values", "a12_values", "a22_values", "q2_values",
                     "r1_values", "r2_tilde_values")


def test_a_step_after_the_first_allocates_no_cell_arrays(monkeypatch):
    # the coefficients of the second step replay the first step's values,
    # made before tracing starts, so that the peak counts only the step's
    # own arrays; numpy may still take its fixed 64 KiB iterator buffers
    sim = Simulation(run_2d_like(1e-11))
    values = []

    def recording(method):
        def record(self, *args):
            value = method(self, *args)
            values.append(value.copy() if isinstance(value, np.ndarray)
                          else value)
            return value
        return record

    for name in STEP_COEFFICIENTS:
        monkeypatch.setattr(CoefficientModel, name,
                            recording(getattr(CoefficientModel, name)))
    sim.step(sim.cfg.dt)
    assert values
    replay = iter(values)
    for name in STEP_COEFFICIENTS:
        monkeypatch.setattr(CoefficientModel, name,
                            lambda self, *args: next(replay))
    cell_bytes = sim.u.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim.step(sim.cfg.dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert next(replay, None) is None  # the same calls in the same order
    assert peak < 2 * cell_bytes


def test_the_step_buffers_are_the_same_arrays_after_every_step():
    sim = two_member_2d()
    sim.step(sim.cfg.dt)
    arrays = {id(a) for a in step_arrays(sim)}
    state = {id(sim.u), id(sim.work.u)}
    for _ in range(3):
        sim.step(sim.cfg.dt)
        assert {id(a) for a in step_arrays(sim)} == arrays
        # the solution buffer and the state trade places
        assert {id(sim.u), id(sim.work.u)} == state


def smooth_batch(shape: tuple, count: int) -> Simulation:
    """A case-2 Simulation on a grid of the given shape, with count members
    of smooth positive data."""
    g = Grid(shape, (1.0,) * len(shape))
    cfg = SimConfig(grid=g, model=case2(), dt=1e-4, t_end=1.0)
    x = centers(g)[0]
    return Simulation(cfg, members=[
        (1.0 + 0.1 * (i + 1) * np.cos(math.pi * x),
         1.0 + 0.05 * np.cos(math.pi * x)) for i in range(count)])


def step_buffer_groups(sim) -> list:
    """Every buffer a step writes through out=, each as a list of the views
    cut from it, first the one that is to start on a cache line: the
    state, the spare state, the workspace's views, per axis each face
    vector (from its entry s on), the operator's out, diag and part, and
    per axis its weights and its flux (f_in, f_hi, f_lo)."""
    ws, op = sim.work, sim.operator
    groups = [[a] for a in (sim.u, sim.v, ws.u, ws.v, ws.aux, ws.rhs, *ws.cg,
                            op._diag, op._part)]
    for faces in (ws.u_faces, ws.v_faces):
        groups += [[data, f, *cuts] for f, data, cuts
                   in zip(faces, faces.data, faces.cuts)]
    groups.append([op._out, op._flat])
    for (_, w, last), (_, w_apply, f_in, f_hi, f_lo) in zip(op._weights,
                                                            op._axes):
        groups += [[w, last, w_apply], [f_in, f_hi, f_lo]]
    return groups


@pytest.mark.parametrize("shape, count", [
    ((37,), 1), ((37,), 4), ((9, 14), 1), ((9, 14), 4), ((128, 128), 1)])
def test_every_step_buffer_starts_on_a_cache_line(shape, count):
    # at 128^2 numpy's one block for the workspace is a map that glibc
    # hands out at a page plus 16 bytes, so its views sat at 16 mod 64
    sim = smooth_batch(shape, count)
    for steps in (0, 3):  # the steps swap the state and the spare state
        for _ in range(steps):
            sim.step(sim.cfg.dt)
        assert sim.steps == steps
        offsets = [first.ctypes.data % 64
                   for first, *_ in step_buffer_groups(sim)]
        assert offsets == [0] * len(offsets)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("shape", [(2,), (257,), (2, 3), (3, 2), (129, 130)])
def test_no_two_step_buffers_overlap(shape, count):
    # these sizes leave uneven padding between the views of one block
    groups = step_buffer_groups(smooth_batch(shape, count))
    # at least the state, the spare state, aux, rhs and CG's three arrays
    assert sum(g[0].size for g in groups) > 9 * count * math.prod(shape)
    for i, j in itertools.combinations(range(len(groups)), 2):
        assert not any(np.shares_memory(a, b)
                       for a in groups[i] for b in groups[j]), (i, j)


def test_snapshots_do_not_change_with_later_steps():
    cfg = SimConfig(grid=Grid((12, 10), (1.0, 1.0)), model=case2(), dt=5e-4,
                    t_end=4e-3, ic_u=parse("1 + 0.25*cos(pi*x)*cos(pi*y)"),
                    ic_v=parse("1 + 0.1*cos(pi*x)*cos(pi*y)"))
    sim = Simulation(cfg)
    snapshots, copies = [], []
    for _ in sim.march():
        snapshots.append(sim.state())
        copies.append((sim.u[0].copy(), sim.v[0].copy()))
    assert not np.array_equal(copies[-1][0], copies[-3][0])
    result = run(cfg)
    for snap, state, (u, v) in zip(snapshots, result.states, copies,
                                   strict=True):
        for got in (snap, state):
            assert np.array_equal(got.u, u) and np.array_equal(got.v, v)


@pytest.mark.parametrize("failure, settings", [
    ("did not reach", {"lin_tol": 1e-16, "lin_max_iter": 3}),
    ("stagnated", {"lin_tol": 1e-16}),
])
def test_a_failed_solve_carries_an_iterate_no_later_solve_reuses(failure,
                                                                settings):
    sim = two_member_2d(**settings)
    with pytest.raises(ConvergenceError, match=failure) as err:
        sim.step(sim.cfg.dt)
    best = err.value.best
    kept = best.copy()
    assert not any(np.shares_memory(best, a) for a in step_arrays(sim))
    with pytest.raises(ConvergenceError, match=failure) as again:
        sim.step(sim.cfg.dt)  # the same solves, in the same buffers
    assert again.value.best is not best and np.array_equal(best, kept)


def test_a_non_finite_right_hand_side_carries_a_copy_of_the_state():
    sim = stepper(Grid((16,), (1.0,)), make_model(r2_tilde="exp(800*u)"),
                  1.0, 1.0)
    with pytest.raises(ConvergenceError, match="not finite") as err:
        sim.step(0.1)
    assert np.array_equal(err.value.best, sim.v)
    assert not any(np.shares_memory(err.value.best, a)
                   for a in step_arrays(sim))


# ---------------------------------------------------------------------------
# v step


def test_constant_v_is_a_steady_state():
    g = Grid((32,), (1.0,))
    sim = stepper(g, HEAT, 1.0, 4.0)
    sim.step(0.05)
    assert np.max(np.abs(sim.v - 4.0)) <= 1e-13
    for _ in range(10):
        sim.step(0.05)
    assert np.max(np.abs(sim.v - 4.0)) <= 1e-13


def test_absorption_single_step_oracle():
    # R2 = -u v with u = 1: one implicit step is exactly v0/(1 + dt)
    m = make_model(r2_linear="-v")
    g = Grid((16,), (1.0,))
    sim = stepper(g, m, 1.0, 2.0)
    sim.step(0.1)
    assert np.max(np.abs(sim.v - 2.0 / 1.1)) <= 1e-14


def test_absorption_tracks_exponential_decay():
    m = make_model(r2_linear="-v")
    g = Grid((8,), (1.0,))
    dt, steps = 0.01, 100
    sim = stepper(g, m, 1.0, 2.0)
    for _ in range(steps):
        sim.step(dt)
    assert np.array_equal(sim.u, np.ones((1, 8)))  # u = 1 is steady here
    # first-order in time: error O(dt) against 2 e^{-1}
    assert np.max(np.abs(sim.v - 2.0 * math.exp(-1.0))) <= 4.0 * dt


def test_v_step_positivity_error_mentions_dt():
    m = make_model(r2_tilde="-10")
    g = Grid((8,), (1.0,))
    with pytest.raises(PositivityError, match="reduce dt"):
        stepper(g, m, 1.0, 1.0).step(0.2)


def test_v_step_growth_part_is_explicit():
    # q2 = +v (growth): one step gives v0 + dt*u*v0 exactly (v0 constant)
    m = make_model(r2_linear="v")
    g = Grid((8,), (1.0,))
    sim = stepper(g, m, 1.0, 2.0)
    sim.step(0.1)
    assert np.max(np.abs(sim.v - 2.2)) <= 1e-13


# ---------------------------------------------------------------------------
# u step


def test_heat_mode_decay_rate():
    g = Grid((128,), (1.0,))
    cfg = SimConfig(grid=g, model=HEAT, dt=1e-4, t_end=0.1,
                    ic_u=parse("1.5 + cos(pi*x)"), ic_v=parse("1"),
                    output_every=1000)
    result = run(cfg)
    u = result.states[-1].u
    x = g.axes["x"]
    amplitude = 2.0 * float(np.sum(u * np.cos(math.pi * x))) * g.spacing[0]
    expected = math.exp(-math.pi ** 2 * 0.1)
    assert amplitude == pytest.approx(expected, rel=5e-3)


def test_zero_u_is_a_fixed_point_of_the_degenerate_step():
    m = make_model(alpha=1.0, p="v")
    g = Grid((16,), (1.0,))
    sim = stepper(g, m, 0.0, 1.0)
    sim.step(0.01)
    assert np.array_equal(sim.u, np.zeros((1, 16)))
    assert sim.clipped_total[0] == 0.0


def test_u_step_mass_change_equals_reaction_integral():
    # full Case-2 step: mass change is dt * integral(R1) exactly
    m = case2()
    g = Grid((64,), (1.0,))
    x = g.axes["x"]
    u0 = 1.0 + 0.5 * np.cos(math.pi * x)
    v0 = 1.0 + 0.2 * np.cos(math.pi * x)
    dt = 1e-4
    sim = stepper(g, m, u0, v0)
    sim.step(dt)
    new = sim.state()
    u_new, v_new = new.u, new.v
    clipped = sim.clipped_total[0]
    vol = g.cell_volume
    mass_change = float(np.sum(u_new - u0)) * vol
    reaction = u0 * evaluate(m.r1_linear, {"v": v_new})
    expected = dt * float(np.sum(reaction)) * vol + clipped
    mass0 = float(np.sum(u0)) * vol
    assert abs(mass_change - expected) <= 1e-12 * mass0


def test_u_budget_error_on_violent_cross_flux():
    # constant A12 pushes mass out of an empty region: the clip budget trips
    m = make_model(alpha=1.0, p="v", a12="1")
    g = Grid((32,), (1.0,))
    cfg = SimConfig(grid=g, model=m, dt=1e-3, t_end=1e-3,
                    ic_u=parse("(1 + sign(x - 0.5))/2 + 1e-12"),
                    ic_v=parse("2 + cos(pi*x)"))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(PositivityError, match="positivity budget"):
            run(cfg)


def test_degenerate_region_is_inert():
    m = make_model(alpha=1.0, p="v")
    g = Grid((50,), (1.0,))
    cfg = SimConfig(grid=g, model=m, dt=1e-3, t_end=1e-3,
                    ic_u=parse("(1 + sign(x - 0.6))/2"), ic_v=parse("1"))
    result = run(cfg)
    u = result.states[-1].u
    assert np.all(np.abs(u[:29]) <= 1e-12)  # interface sits at cell 30
    assert np.max(u) > 0.9


# ---------------------------------------------------------------------------
# run: conservation, comparison bound, mechanics


def test_conservation_without_reactions():
    m = make_model(alpha=1.0, p="v", a12="-0.25*u^2*v")
    g = Grid((64,), (1.0,))
    cfg = SimConfig(grid=g, model=m, dt=1e-4, t_end=0.02,
                    ic_u=parse("1 + 0.5*cos(pi*x)"),
                    ic_v=parse("1 + 0.2*cos(pi*x)"), output_every=200)
    result = run(cfg)
    d0, dT = result.diagnostics[0], result.diagnostics[-1]
    assert abs(dT.mass_u - d0.mass_u) <= 1e-12 * d0.mass_u
    assert abs(dT.mass_v - d0.mass_v) <= 1e-12 * d0.mass_v
    assert result.clipped_total == 0.0
    assert result.reaction_mass_total == 0.0


def test_mass_identity_with_reactions():
    g = Grid((64,), (1.0,))
    cfg = SimConfig(grid=g, model=case2(), dt=2.5e-4, t_end=0.025,
                    ic_u=parse("1 + 0.5*cos(pi*x)"),
                    ic_v=parse("1 + 0.2*cos(pi*x)"), output_every=100)
    result = run(cfg)
    d0, dT = result.diagnostics[0], result.diagnostics[-1]
    defect = (dT.mass_u - d0.mass_u
              - result.reaction_mass_total - result.clipped_total)
    assert abs(defect) <= 1e-12 * d0.mass_u


def test_min_v_obeys_comparison_bound():
    # v_t = lap v - u v: min v >= (min v0) e^{-max_u t} by comparison
    g = Grid((64,), (1.0,))
    cfg = SimConfig(grid=g, model=case2(), dt=2.5e-4, t_end=0.2,
                    ic_u=parse("1 + 0.5*cos(pi*x)"),
                    ic_v=parse("1 + 0.2*cos(pi*x)"), output_every=100)
    result = run(cfg)
    max_u = max(row.max_u for row in result.diagnostics)
    min_v0 = result.diagnostics[0].min_v
    for row in result.diagnostics:
        assert row.min_v >= min_v0 * math.exp(-max_u * row.t) - 1e-6
        assert row.min_v > 0.0
        assert row.min_u >= 0.0


def test_run_records_on_cadence_plus_final():
    cfg = SimConfig(grid=Grid((16,), (1.0,)), model=HEAT, dt=0.1, t_end=1.0,
                    ic_u=parse("1 + 0.1*cos(pi*x)"), ic_v=parse("1"),
                    output_every=4)
    result = run(cfg)
    times = [row.t for row in result.diagnostics]
    assert times == pytest.approx([0.0, 0.4, 0.8, 1.0])
    assert len(result.states) == len(times)
    assert times == sorted(times)


def test_run_annotates_errors_with_step_index():
    m = make_model(r2_tilde="-10")
    cfg = SimConfig(grid=Grid((8,), (1.0,)), model=m, dt=0.2, t_end=0.4,
                    ic_u=parse("1"), ic_v=parse("1"))
    with pytest.raises(PositivityError, match=r"step 1 \(t = 0\.2\)"):
        run(cfg)


def test_run_is_deterministic():
    cfg = SimConfig(grid=Grid((32,), (1.0,)), model=case2(), dt=5e-4,
                    t_end=0.02, ic_u=parse("1 + 0.5*cos(pi*x)"),
                    ic_v=parse("1 + 0.2*cos(pi*x)"))
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.states[-1].u, b.states[-1].u)
    assert np.array_equal(a.states[-1].v, b.states[-1].v)
    assert a.clipped_total == b.clipped_total


def test_run_2d_conserves_and_stays_positive():
    cfg = SimConfig(grid=Grid((12, 12), (1.0, 1.0)), model=case2(), dt=5e-4,
                    t_end=0.01, ic_u=parse("1 + 0.25*cos(pi*x)*cos(pi*y)"),
                    ic_v=parse("1 + 0.1*cos(pi*x)*cos(pi*y)"))
    result = run(cfg)
    d0, dT = result.diagnostics[0], result.diagnostics[-1]
    defect = (dT.mass_u - d0.mass_u
              - result.reaction_mass_total - result.clipped_total)
    assert abs(defect) <= 1e-12 * d0.mass_u
    assert dT.min_v > 0.0 and dT.min_u >= 0.0


EPS = np.finfo(float).eps


@pytest.mark.parametrize("name", ["case2_run_1d", "case2_run_2d",
                                  "case2_sweep_1d", "mms_case2"])
def test_mass_correction_shift_is_within_the_solve_tolerance(name,
                                                             monkeypatch,
                                                             tmp_path):
    # The shift restoring each member's mass after a solve is the mean of
    # its residual r_i, so |shift_i| <= ||r_i|| / sqrt(cells) <= tol ||b_i||
    # / sqrt(cells), plus the roundoff of the sums that form it and of
    # adding it, allowed as 64 eps max|x_i|.  It is measured as the final
    # state minus CG's solution: on every cell for v, on the cells the clip
    # left alone for u.
    solves, checked = [], [0]

    def recording(apply_a, b, x0, tol, *args):
        x, iterations, rel = conjugate_gradient(apply_a, b, x0, tol, *args)
        solves.append((x.copy(), np.linalg.norm(b.reshape(len(b), -1),
                                                axis=1), tol))
        return x, iterations, rel

    step = Simulation.step

    def checked_step(self, *args):
        solves.clear()
        step(self, *args)
        root_cells = math.sqrt(self.grid.cell_count)
        for (x, b_norms, tol), final, clipped in zip(
                solves, (self.v, self.u), (False, True), strict=True):
            for x_i, b_i, final_i in zip(x, b_norms, final, strict=True):
                shift = final_i - x_i
                if clipped:
                    shift = shift[final_i > 0.0]
                bound = tol * b_i / root_cells \
                    + 64 * EPS * float(np.max(np.abs(x_i)))
                assert float(np.max(np.abs(shift))) <= bound
        checked[0] += 1

    monkeypatch.setattr(solver, "conjugate_gradient", recording)
    monkeypatch.setattr(Simulation, "step", checked_step)
    assert main([str(CONFIG_DIR / f"{name}.json"),
                 "--output-dir", str(tmp_path)]) == 0
    assert checked[0] >= 100


def test_time_grid_shortened_final_step():
    assert list(time_grid(0.3, 1.0)) == pytest.approx([0.3, 0.6, 0.9, 1.0])
    assert list(time_grid(0.25, 1.0)) == [0.25, 0.5, 0.75, 1.0]
    assert list(time_grid(0.25, 0.2)) == [0.2]
    # bitwise k dt, and t_end last: ten steps of 0.1 summed give 1 - 1e-16
    times = list(time_grid(0.1, 1.5))
    assert times == [k * 0.1 for k in range(1, 15)] + [1.5] and times[9] == 1


@pytest.mark.parametrize("manufactured", [False, True])
def test_a_long_march_holds_no_list_of_its_step_times(manufactured):
    # 10^6 steps: a list of every step time took 32 MB before the first
    # step, and dt = 1e-300 ran out of memory
    data = ({"mms_u": parse("2 + 0.45*exp(-t)*cos(pi*x)"),
             "mms_v": parse("2 + 0.25*sin(t)")} if manufactured else
            {"ic_u": parse("1 + 0.5*cos(pi*x)"),
             "ic_v": parse("1 + 0.2*cos(pi*x)")})
    cfg = SimConfig(grid=Grid((64,), (1.0,)), model=case2(), dt=1e-6,
                    t_end=1.0, **data)
    sim = Simulation(cfg)
    ticks = sim.march()
    tracemalloc.start()
    try:
        assert next(ticks) == 0.0 and next(ticks) == 1e-6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.steps == 1 and peak < 1 << 20


def test_diagnostics_columns_and_monotone_accumulator():
    cfg = SimConfig(grid=Grid((24,), (1.0,)), model=HEAT, dt=1e-3,
                    t_end=0.01, ic_u=parse("1 + 0.3*cos(pi*x)"),
                    ic_v=parse("1 + 0.1*cos(2*pi*x)"))
    result = run(cfg)
    rows = result.diagnostics
    cums = [row.cum_grad_u_sq for row in rows]
    assert cums == sorted(cums)
    assert all(row.max_grad_v >= 0.0 for row in rows)
    assert all(math.isnan(row.f_energy) for row in rows)  # not configured
    final = result.states[-1]
    assert rows[-1].mass_u == pytest.approx(
        float(np.sum(final.u)) * cfg.grid.cell_volume, rel=1e-15)


# ---------------------------------------------------------------------------
# config validation


def test_validate_collects_every_problem():
    cfg = SimConfig(grid=Grid((8,), (1.0,)), model=HEAT, dt=-1.0, t_end=0.0,
                    output_every=0, lin_tol=2.0)
    with pytest.raises(ValueError) as err:
        cfg.validate()
    message = str(err.value)
    for expected in ("time.dt", "time.cadence", "solver.tol",
                     "initial data"):
        assert expected in message


def test_validate_initial_data_sign_conditions():
    g = Grid((16,), (1.0,))
    bad_u = SimConfig(grid=g, model=HEAT, dt=1e-3, t_end=1e-2,
                      ic_u=parse("cos(pi*x)"), ic_v=parse("1"))
    with pytest.raises(ValueError, match="nonnegative"):
        bad_u.validate()
    zero_u = SimConfig(grid=g, model=HEAT, dt=1e-3, t_end=1e-2,
                       ic_u=parse("0"), ic_v=parse("1"))
    with pytest.raises(ValueError, match="vanish"):
        zero_u.validate()
    bad_v = SimConfig(grid=g, model=HEAT, dt=1e-3, t_end=1e-2,
                      ic_u=parse("1"), ic_v=parse("x - 0.5"))
    with pytest.raises(ValueError, match="positive"):
        bad_v.validate()


def test_validate_rejects_y_on_1d_grids():
    cfg = SimConfig(grid=Grid((8,), (1.0,)), model=HEAT, dt=1e-3, t_end=1e-2,
                    ic_u=parse("1 + y"), ic_v=parse("1"))
    with pytest.raises(ValueError, match="initial.u"):
        cfg.validate()


def test_validate_manufactured_positivity_over_time():
    cfg = SimConfig(grid=Grid((8,), (1.0,)), model=HEAT, dt=1e-2, t_end=2.0,
                    mms_u=parse("1 - t"), mms_v=parse("2"))
    with pytest.raises(ValueError, match="stay positive"):
        cfg.validate()


def test_validate_fenergy_needs_both_parameters():
    cfg = SimConfig(grid=Grid((8,), (1.0,)), model=HEAT, dt=1e-3, t_end=1e-2,
                    ic_u=parse("1"), ic_v=parse("1"), f_energy_gamma=1.0)
    with pytest.raises(ValueError, match="fenergy"):
        cfg.validate()


def test_validate_warns_when_dt_exceeds_cross_term_guideline():
    cfg = SimConfig(grid=Grid((64,), (1.0,)), model=case2(chi=5.0, l=1.0),
                    dt=1e-2, t_end=1e-2, ic_u=parse("1"),
                    ic_v=parse("1 + 0.5*cos(pi*x)"))
    with pytest.warns(RuntimeWarning, match="cross-diffusion"):
        cfg.validate()


def whole_face_cross_rate(grid, a12, v):
    """max |A12 grad v| as warn_if_dt_large formed it before: A12's face
    means times the gradient on every face, boundary faces included."""
    worst = 0.0
    for a12_f, dv_f in zip(reference_averages(grid, a12),
                           reference_gradients(grid, v)):
        worst = max(worst, float(np.max(np.abs(a12_f * dv_f))))
    return worst


@pytest.mark.parametrize("grid", GRIDS + [Grid((2,), (1.0,)),
                                          Grid((2, 3), (0.5, 1.5))])
def test_interior_cross_rate_equals_the_whole_face_formula(grid):
    rng = np.random.default_rng(grid.cell_count + 7)
    for scale in (1e-3, 1.0, 1e4):
        a12 = scale * rng.standard_normal(grid.shape)
        v = rng.uniform(0.1, 2.0, grid.shape)
        assert solver._max_cross_rate(grid, a12, v) \
            == whole_face_cross_rate(grid, a12, v)
    # a non-finite A12 on a boundary cell hides its axis, as it did
    corners = {(0,) * grid.dim, (-1,) * grid.dim,
               tuple(n // 2 for n in grid.shape)}
    for bad in (math.inf, -math.inf, math.nan):
        for index in corners:
            a12 = rng.standard_normal(grid.shape)
            a12[index] = bad
            with np.errstate(invalid="ignore"):  # inf * 0 on a boundary
                want = whole_face_cross_rate(grid, a12, v)
            assert solver._max_cross_rate(grid, a12, v) == want


@pytest.mark.parametrize("grid, ic_v", [
    (Grid((64,), (1.0,)), "1 + 0.5*cos(pi*x)"),
    (Grid((24, 16), (1.0, 0.5)), "1 + 0.5*cos(pi*x)*cos(2*pi*y)")])
def test_dt_warning_is_the_one_the_whole_face_formula_gives(grid, ic_v):
    cfg = SimConfig(grid=grid, model=case2(chi=5.0, l=1.0), dt=1e-2,
                    t_end=1e-2, ic_u=parse("1 + 0.1*cos(pi*x)"),
                    ic_v=parse(ic_v))
    u0, v0 = cfg.initial_fields()
    bound = min(grid.spacing) ** 2 / whole_face_cross_rate(
        grid, cfg.model.a12_values(u0, v0), v0)
    with pytest.warns(RuntimeWarning) as record:
        cfg.validate()
    assert [str(w.message) for w in record] == [
        f"dt = 0.01 exceeds the explicit cross-diffusion guideline "
        f"h^2/max|A12 grad v| = {bound:g}; expect instability or "
        "positivity loss"]


# ---------------------------------------------------------------------------
# F-energy diagnostic


def test_f_energy_constant_states():
    g = Grid((32,), (1.0,))
    ones = np.ones(32)
    # u ln u = 0, gradient term 0, (ks^2/6) integral v^3 = 4/6
    assert f_energy(g, ones, ones, gamma_param=1.0, ks=2.0) \
        == pytest.approx(2.0 / 3.0, rel=1e-14)
    expected = math.e + (4.0 / 6.0) * 8.0
    assert f_energy(g, math.e * ones, 2.0 * ones, gamma_param=1.0,
                    ks=2.0) == pytest.approx(expected, rel=1e-12)


def test_f_energy_zero_u_convention():
    g = Grid((16,), (1.0,))
    # 0 ln 0 = 0: only the v^3 term remains
    assert f_energy(g, np.zeros(16), np.ones(16), gamma_param=2.0,
                    ks=3.0) == pytest.approx(1.5, rel=1e-14)


def test_f_energy_trend_is_recorded_when_configured():
    g = Grid((32,), (1.0,))
    cfg = SimConfig(grid=g, model=case2(), dt=5e-4, t_end=0.01,
                    ic_u=parse("1 + 0.5*cos(pi*x)"),
                    ic_v=parse("1 + 0.2*cos(pi*x)"),
                    f_energy_gamma=1.0, f_energy_ks=1.0)
    result = run(cfg)
    values = [row.f_energy for row in result.diagnostics]
    assert all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# manufactured-solution forcing


def test_mms_forcing_constants_vanish():
    s1, s2 = mms_forcing(parse("2"), parse("3"), HEAT)
    for t in (0.0, 0.5):
        assert evaluate(s1, {"x": 0.3, "y": 0.0, "t": t}) == 0.0
        assert evaluate(s2, {"x": 0.3, "y": 0.0, "t": t}) == 0.0


def test_mms_forcing_heat_oracle():
    # u* = e^{-t} cos(pi x): S1 = u*_t - u*_xx = (pi^2 - 1) e^{-t} cos(pi x)
    s1, _ = mms_forcing(parse("exp(-t)*cos(pi*x)"), parse("2"), HEAT)
    for x in np.linspace(0.0, 1.0, 11):
        for t in (0.0, 0.3, 1.0):
            expected = (math.pi ** 2 - 1.0) * math.exp(-t) * math.cos(
                math.pi * x)
            got = evaluate(s1, {"x": x, "y": 0.0, "t": t})
            assert abs(got - expected) <= 1e-10


def _fd1(fn, x, h):
    """Fourth-order central first derivative."""
    return (-fn(x + 2*h) + 8.0*fn(x + h) - 8.0*fn(x - h) + fn(x - 2*h)) \
        / (12.0 * h)


def test_mms_forcing_case2_matches_finite_differences():
    m = case2(chi=0.3, l=0.7)
    u_expr = parse("2 + 0.5*exp(-t)*cos(pi*x)")
    v_expr = parse("2 + 0.25*exp(-t)*cos(2*pi*x)")
    s1_sym, s2_sym = mms_forcing(u_expr, v_expr, m)

    def ustar(x, t):
        return evaluate(u_expr, {"x": x, "t": t})

    def vstar(x, t):
        return evaluate(v_expr, {"x": x, "t": t})

    def flux_u(x, t):
        u, v = ustar(x, t), vstar(x, t)
        a11 = v * u                      # p(v) u^alpha with alpha = 1
        a12 = -0.3 * u ** 2 * v
        return (a11 * _fd1(lambda xx: ustar(xx, t), x, 1e-3)
                + a12 * _fd1(lambda xx: vstar(xx, t), x, 1e-3))

    def flux_v(x, t):
        return _fd1(lambda xx: vstar(xx, t), x, 1e-3)

    rng = np.random.default_rng(42)
    for _ in range(100):
        x = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.05, 1.0))
        u, v = ustar(x, t), vstar(x, t)
        r1 = 0.7 * u * v
        r2 = -u * v
        fd_s1 = (_fd1(lambda tt: ustar(x, tt), t, 1e-2)
                 - _fd1(lambda xx: flux_u(xx, t), x, 1e-2) - r1)
        fd_s2 = (_fd1(lambda tt: vstar(x, tt), t, 1e-2)
                 - _fd1(lambda xx: flux_v(xx, t), x, 1e-2) - r2)
        sym_s1 = evaluate(s1_sym, {"x": x, "y": 0.0, "t": t})
        sym_s2 = evaluate(s2_sym, {"x": x, "y": 0.0, "t": t})
        assert abs(sym_s1 - fd_s1) <= 1e-5 * (1.0 + abs(sym_s1))
        assert abs(sym_s2 - fd_s2) <= 1e-5 * (1.0 + abs(sym_s2))


def test_mms_run_converges_on_refinement():
    # dt ~ h^2 joint refinement roughly quarters the error per halving
    errors = []
    for n, dt in ((16, 8e-4), (32, 2e-4)):
        g = Grid((n,), (1.0,))
        cfg = SimConfig(grid=g, model=HEAT, dt=dt, t_end=0.05,
                        mms_u=parse("2 + exp(-t)*cos(pi*x)"),
                        mms_v=parse("2 + 0.5*exp(-t)*cos(pi*x)"),
                        output_every=10 ** 9, lin_tol=1e-12)
        result = run(cfg)
        final = result.states[-1]
        exact = g.cell_values(cfg.mms_u, final.t)
        err = math.sqrt(float(np.sum((final.u - exact) ** 2))
                        * g.cell_volume)
        errors.append(err)
    ratio = errors[0] / errors[1]
    assert 3.0 <= ratio <= 5.5


def mms_levels(name: str) -> list:
    """The SimConfig of every level of a shipped MMS config, built as the
    CLI's study builds them, ticking after every step."""
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    base, base_n = cfg.sim, cfg.levels[0]
    return [dataclasses.replace(
        base, grid=Grid((n,) * base.grid.dim, base.grid.lengths),
        dt=base.dt * (base_n / n) ** 2, output_every=1) for n in cfg.levels]


def mms_2d() -> list:
    # 108 cells: blocks of 37 step times, the last one short
    return [SimConfig(
        grid=Grid((12, 9), (1.0, 0.8)), model=case2(chi=0.05), dt=1e-3,
        t_end=0.08, lin_tol=1e-12,
        mms_u=parse("2 + 0.45*exp(-t)*cos(pi*x)*cos(pi*y)"),
        mms_v=parse("2 + 0.25*sin(t)*cos(pi*y)"))]


@pytest.mark.parametrize("name", ["mms_case2", "mms_heat", "2d"])
def test_marching_equals_stepping_alone_bitwise(name):
    # march hands each step its rows of a block evaluation of the forcing;
    # step() alone evaluates its own at its time, and the states agree
    for cfg in mms_2d() if name == "2d" else mms_levels(name):
        marched, alone = Simulation(cfg), Simulation(cfg)
        ticks = marched.march()
        next(ticks)
        for t_next in time_grid(cfg.dt, cfg.t_end):
            next(ticks)
            alone.step(t_next - alone.t, t_next)
            assert marched.t == alone.t
            assert np.array_equal(marched.u, alone.u)
            assert np.array_equal(marched.v, alone.v)
        assert next(ticks, None) is None
        assert marched.reaction_mass_total == alone.reaction_mass_total
        assert marched.clipped_total == alone.clipped_total
