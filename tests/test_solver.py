"""Time integration: stepping oracles, conservation, positivity, MMS."""

import math

import numpy as np
import pytest

from crossdiff.coeffs import CoefficientModel, build_preset
from crossdiff.exprs import evaluate, parse
from crossdiff.grid import Field, Grid, divergence_arrays, gradient_arrays
from crossdiff.poisson import ConvergenceError
from crossdiff.solver import (PositivityError, SimConfig, SimState,
                              Simulation, conjugate_gradient, f_energy,
                              mms_forcing, run, step_operator, time_grid)


def make_model(alpha=0.0, p="1", a12="0", a22="1", q_lower="1",
               r1_linear="0", r1_tilde="0", r2_linear="0", r2_tilde="0"):
    return CoefficientModel(
        alpha=float(alpha), p=parse(p), a12=parse(a12), a22=parse(a22),
        q_lower=parse(q_lower), r1_linear=parse(r1_linear),
        r1_tilde=parse(r1_tilde), r2_linear=parse(r2_linear),
        r2_tilde=parse(r2_tilde))


HEAT = make_model()  # alpha = 0, p = 1, A12 = 0, A22 = 1, R = 0


def case2(chi=0.25, l=0.5):
    return build_preset(2, {"chi": chi, "l": l})


def state(grid, u, v, t=0.0):
    return SimState(t, Field(grid, np.broadcast_to(u, grid.shape).copy()),
                    Field(grid, np.broadcast_to(v, grid.shape).copy()))


def stepper(grid, model, u, v):
    """A one-member Simulation from the given cell values; the config's own
    initial data and time span are unused."""
    cfg = SimConfig(grid=grid, model=model, dt=1.0, t_end=1.0)
    return Simulation(cfg, validate=False, members=[
        (np.broadcast_to(u, grid.shape), np.broadcast_to(v, grid.shape))])


# ---------------------------------------------------------------------------
# step operator and CG


@pytest.mark.parametrize("grid", [Grid((37,), (1.3,)),
                                  Grid((9, 14), (0.7, 2.1))])
def test_step_operator_matches_grid_calculus_bitwise(grid):
    rng = np.random.default_rng(grid.cell_count)
    dt = 0.0137
    faces = gradient_arrays(grid, np.zeros(grid.shape))
    mob = tuple(rng.uniform(0.1, 3.0, f.shape) for f in faces)
    c = rng.uniform(0.0, 2.0, grid.shape)
    v_apply = step_operator(grid, mob, dt, c)
    u_apply = step_operator(grid, mob, dt)
    for _ in range(3):  # the result arrays are reused from call to call
        x = rng.standard_normal(grid.shape)
        flux = tuple(m * g for m, g in zip(mob, gradient_arrays(grid, x)))
        div = divergence_arrays(grid, flux)
        assert np.array_equal(v_apply(x), x + dt * c * x - dt * div)
        assert np.array_equal(u_apply(x), x - dt * div)


@pytest.mark.parametrize("grid", [Grid((37,), (1.3,)),
                                  Grid((9, 14), (0.7, 2.1))])
def test_batched_step_operator_equals_member_operators_bitwise(grid):
    rng = np.random.default_rng(3)
    dt = 0.0137
    faces = gradient_arrays(grid, np.zeros((3,) + grid.shape))
    mob = tuple(rng.uniform(0.1, 3.0, f.shape) for f in faces)
    c = rng.uniform(0.0, 2.0, (3,) + grid.shape)
    x = rng.standard_normal((3,) + grid.shape)
    v_batch = step_operator(grid, mob, dt, c)(x)
    u_batch = step_operator(grid, mob, dt)(x)
    for i in range(3):
        member_mob = tuple(m[i] for m in mob)
        assert np.array_equal(v_batch[i],
                              step_operator(grid, member_mob, dt, c[i])(x[i]))
        assert np.array_equal(u_batch[i],
                              step_operator(grid, member_mob, dt)(x[i]))


def test_batched_cg_bounds_every_member_relative_residual():
    # one member's right-hand side is 1e6 times smaller than the others';
    # a stop at tol * ||b|| would leave it far above tol
    g = Grid((96,), (1.0,))
    rng = np.random.default_rng(4)
    mob = (rng.uniform(0.5, 2.0, (3, 97)),)
    apply_a = step_operator(g, mob, 0.05)
    b = rng.standard_normal((3, 96))
    b[1] *= 1e-6
    tol = 1e-8
    x, iterations, rel = conjugate_gradient(apply_a, b, np.zeros_like(b),
                                            tol, 1000)
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
    x = g.axis_centers(0)
    data = [(1.0 + 0.5 * np.cos(math.pi * x), 1.0 + 0.2 * np.cos(math.pi * x)),
            (1.2 + 0.1 * np.cos(2 * math.pi * x), np.full(40, 0.8))]
    batch = Simulation(cfg, validate=False, members=data)
    singles = [Simulation(cfg, validate=False, members=[d]) for d in data]
    for _ in range(20):
        batch.step(cfg.dt)
        for sim in singles:
            sim.step(cfg.dt)
    for i, sim in enumerate(singles):
        assert np.allclose(batch.u[i], sim.u[0], rtol=1e-10, atol=0.0)
        assert np.allclose(batch.v[i], sim.v[0], rtol=1e-10, atol=0.0)
        row, alone = batch.diagnostics_row(i), sim.diagnostics_row()
        assert row.mass_u == pytest.approx(alone.mass_u, rel=1e-12)
        assert row.cum_grad_u_sq == pytest.approx(alone.cum_grad_u_sq,
                                                  rel=1e-9)
        assert batch.reaction_mass_total[i] == pytest.approx(
            sim.reaction_mass_total[0], rel=1e-12)


def test_nonconvergence_carries_best_iterate():
    g = Grid((128,), (1.0,))
    rng = np.random.default_rng(12)
    apply_a = step_operator(g, (rng.uniform(0.5, 2.0, (1, 129)),), 1.0)
    b = rng.standard_normal((1, 128))
    with pytest.raises(ConvergenceError) as err:
        conjugate_gradient(apply_a, b, np.zeros((1, 128)), 1e-14, 2)
    assert err.value.best.shape == (1, 128)
    assert err.value.iterations == 2
    assert math.isfinite(err.value.residual_norm)


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
    u = result.states[-1].u.values
    x = g.axis_centers(0)
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
    x = g.axis_centers(0)
    s = state(g, 1.0 + 0.5 * np.cos(math.pi * x),
              1.0 + 0.2 * np.cos(math.pi * x))
    dt = 1e-4
    sim = stepper(g, m, s.u.values, s.v.values)
    sim.step(dt)
    new = sim.state()
    u_new, v_new = new.u, new.v
    clipped = sim.clipped_total[0]
    vol = g.cell_volume
    mass_change = float(np.sum(u_new.values - s.u.values)) * vol
    reaction = s.u.values * evaluate(m.r1_linear, {"v": v_new.values})
    expected = dt * float(np.sum(reaction)) * vol + clipped
    mass0 = float(np.sum(s.u.values)) * vol
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
    u = result.states[-1].u.values
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


def test_run_without_state_recording():
    cfg = SimConfig(grid=Grid((16,), (1.0,)), model=HEAT, dt=0.1, t_end=0.3,
                    ic_u=parse("1 + 0.1*cos(pi*x)"), ic_v=parse("1"))
    result = run(cfg, record_states=False)
    assert result.states == []
    assert len(result.diagnostics) == 4


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
    assert np.array_equal(a.states[-1].u.values, b.states[-1].u.values)
    assert np.array_equal(a.states[-1].v.values, b.states[-1].v.values)
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


def test_time_grid_shortened_final_step():
    assert time_grid(0.3, 1.0) == pytest.approx([0.3, 0.6, 0.9, 1.0])
    assert time_grid(0.25, 1.0) == [0.25, 0.5, 0.75, 1.0]
    assert time_grid(0.25, 0.2) == [0.2]


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
        float(np.sum(final.u.values)) * cfg.grid.cell_volume, rel=1e-15)


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


# ---------------------------------------------------------------------------
# F-energy diagnostic


def test_f_energy_constant_states():
    g = Grid((32,), (1.0,))
    s = state(g, 1.0, 1.0)
    # u ln u = 0, gradient term 0, (ks^2/6) integral v^3 = 4/6
    assert f_energy(s, gamma_param=1.0, ks=2.0) == pytest.approx(
        2.0 / 3.0, rel=1e-14)
    s2 = state(g, math.e, 2.0)
    expected = math.e + (4.0 / 6.0) * 8.0
    assert f_energy(s2, gamma_param=1.0, ks=2.0) == pytest.approx(
        expected, rel=1e-12)


def test_f_energy_zero_u_convention():
    g = Grid((16,), (1.0,))
    s = state(g, 0.0, 1.0)
    # 0 ln 0 = 0: only the v^3 term remains
    assert f_energy(s, gamma_param=2.0, ks=3.0) == pytest.approx(1.5,
                                                                 rel=1e-14)


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
        exact = Field.from_expr(g, cfg.mms_u, final.t).values
        err = math.sqrt(float(np.sum((final.u.values - exact) ** 2))
                        * g.cell_volume)
        errors.append(err)
    ratio = errors[0] / errors[1]
    assert 3.0 <= ratio <= 5.5
