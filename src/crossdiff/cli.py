"""Batch front-end: JSON config in, CSV/JSON artifacts and a gnuplot script out.

The config file is the single source of truth for an experiment; the command
line only picks the file and an output-directory override, so runs stay
archivable and diffable.  Validation is total: every invalid field is
reported, not just the first.  All outputs are written with fixed float
formatting and sorted JSON keys, so identical configs reproduce
byte-identical artifacts.

Commands
    run           march one simulation; snapshots plus diagnostics CSV
    stability     paired run; energy/dissipation CSV, Gronwall CSV, summary
    sweep         perturbation-amplitude sweep; ratio table and summary
    mms           manufactured-solution refinement study; convergence table
    check-coeffs  finite-gamma Lipschitz probe of one coefficient; JSON
    poisson-test  eigenfunction error, observed order and Poincare ratio

Exit codes: 0 success, 1 configuration, 2 numerics, 3 input/output.  On
failure a machine-readable JSON error report goes to stderr.  Relative
output directories resolve under $CROSSDIFF_OUTPUT_ROOT when that is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import solver, stability
from .coeffs import (CoefficientModel, build_preset,
                     check_finite_gamma_lipschitz)
from .exprs import (Const, EvalError, ExpressionError, Expr, ParseError, mul,
                    parse, variables)
from .grid import Field, Grid
from .poisson import poincare_ratio, solve_neumann_zero_mean
from .solver import DIAGNOSTICS_COLUMNS, SimConfig

OUTPUT_ROOT_ENV = "CROSSDIFF_OUTPUT_ROOT"
COMMANDS = ("run", "stability", "sweep", "mms", "check-coeffs", "poisson-test")
FORMATS = ("csv", "json", "gnuplot")

_TOP_KEYS = ("command", "grid", "model", "time", "initial", "stability",
             "solver", "output", "mms", "coeffcheck", "poisson", "fenergy")


class ConfigError(ValueError):
    """Aggregated configuration failure; ``errors`` lists every problem."""

    def __init__(self, errors: Sequence[str]):
        self.errors = [str(e) for e in errors]
        super().__init__("invalid configuration: " + "; ".join(self.errors))


@dataclass
class RunConfig:
    command: str
    grid: Optional[Grid] = None
    model: Optional[CoefficientModel] = None
    dt: float = 0.0
    t_end: float = 0.0
    cadence: int = 1
    ic_u: Optional[Expr] = None
    ic_v: Optional[Expr] = None
    du: Optional[Expr] = None
    dv: Optional[Expr] = None
    amplitude: float = 1.0
    amplitudes: list = field(default_factory=list)
    lin_tol: float = 1e-10
    lin_max_iter: Optional[int] = None
    mms_u: Optional[Expr] = None
    mms_v: Optional[Expr] = None
    mms_levels: list = field(default_factory=list)
    coeff_f: Optional[Expr] = None
    coeff_gamma: float = 1.0
    coeff_a1: float = 1.0
    coeff_a2: float = 1.0
    coeff_budget: int = 20000
    coeff_seed: int = 0
    poisson_levels: list = field(default_factory=list)
    fenergy_gamma: Optional[float] = None
    fenergy_ks: Optional[float] = None
    out_dir: str = "out"
    formats: tuple = FORMATS

    def to_sim_config(self) -> SimConfig:
        return SimConfig(
            grid=self.grid, model=self.model, dt=self.dt, t_end=self.t_end,
            ic_u=self.ic_u, ic_v=self.ic_v, output_every=self.cadence,
            lin_tol=self.lin_tol, lin_max_iter=self.lin_max_iter,
            mms_u=self.mms_u, mms_v=self.mms_v,
            f_energy_gamma=self.fenergy_gamma, f_energy_ks=self.fenergy_ks)


# ---------------------------------------------------------------------------
# config loading

def _check_keys(block: Mapping, allowed: Sequence[str], where: str,
                errors: list) -> None:
    for key in sorted(set(block) - set(allowed)):
        errors.append(f"{where}: unknown key '{key}'")


def _num(block: Mapping, key: str, where: str, errors: list,
         required: bool = True, default=None):
    if key not in block:
        if required:
            errors.append(f"{where}.{key} is required")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{where}.{key} must be a number")
        return default
    return float(value)


def _expr(block: Mapping, key: str, where: str, errors: list,
          required: bool = True, default: Optional[str] = None,
          allowed_vars: Optional[frozenset] = None) -> Optional[Expr]:
    if key not in block:
        if required:
            errors.append(f"{where}.{key} is required")
            return None
        if default is None:
            return None
        source = default
    else:
        source = block[key]
    if not isinstance(source, str):
        errors.append(f"{where}.{key} must be an expression string")
        return None
    try:
        e = parse(source)
    except ParseError as err:
        errors.append(f"{where}.{key}: {err}")
        return None
    if allowed_vars is not None:
        extra = variables(e) - allowed_vars
        if extra:
            errors.append(f"{where}.{key} may only use "
                          f"{sorted(allowed_vars)}; found {sorted(extra)}")
            return None
    return e


def _parse_grid(block, errors) -> Optional[Grid]:
    _check_keys(block, ("dim", "n", "L"), "grid", errors)
    dim = block.get("dim")
    if dim not in (1, 2):
        errors.append("grid.dim must be 1 or 2")
        return None
    n = block.get("n")
    lengths = block.get("L", 1.0)
    if isinstance(n, int) and not isinstance(n, bool):
        n = (n,) * dim
    elif isinstance(n, list) and len(n) == dim \
            and all(isinstance(k, int) and not isinstance(k, bool) for k in n):
        n = tuple(n)
    else:
        errors.append(f"grid.n must be an int or a list of {dim} ints")
        return None
    if isinstance(lengths, (int, float)) and not isinstance(lengths, bool):
        lengths = (float(lengths),) * dim
    elif isinstance(lengths, list) and len(lengths) == dim:
        lengths = tuple(float(x) for x in lengths)
    else:
        errors.append(f"grid.L must be a number or a list of {dim} numbers")
        return None
    try:
        return Grid(n, lengths)
    except ValueError as err:
        errors.append(f"grid: {err}")
        return None


_MODEL_EXPR_KEYS = ("p", "a12", "a22", "q_lower", "r1_linear", "r1_tilde",
                    "r2_linear", "r2_tilde")


def _parse_model(block, errors) -> Optional[CoefficientModel]:
    if "preset" in block:
        preset = block["preset"]
        if isinstance(preset, str) and preset.startswith("case"):
            preset = preset[4:]
        try:
            case = int(preset)
        except (TypeError, ValueError):
            errors.append(f"model.preset '{block['preset']}' is not one of "
                          "case1..case6")
            return None
        params = {k: v for k, v in block.items() if k != "preset"}
        for key, value in sorted(params.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"model.{key} must be a number")
                return None
        try:
            return build_preset(case, params)
        except ValueError as err:
            errors.append(f"model: {err}")
            return None

    _check_keys(block, ("alpha",) + _MODEL_EXPR_KEYS, "model", errors)
    alpha = _num(block, "alpha", "model", errors)
    here = len(errors)
    uv = frozenset(("u", "v"))
    v_only = frozenset(("v",))
    p = _expr(block, "p", "model", errors, allowed_vars=v_only)
    a12 = _expr(block, "a12", "model", errors, required=False, default="0",
                allowed_vars=uv)
    a22 = _expr(block, "a22", "model", errors, allowed_vars=uv)
    if "q_lower" in block:
        q_lower = _expr(block, "q_lower", "model", errors,
                        allowed_vars=v_only)
    elif a22 is not None and variables(a22) <= v_only:
        q_lower = a22
    else:
        q_lower = None
        errors.append("model.q_lower is required when a22 depends on u")
    r1_linear = _expr(block, "r1_linear", "model", errors, required=False,
                      default="0", allowed_vars=v_only)
    r1_tilde = _expr(block, "r1_tilde", "model", errors, required=False,
                     default="0", allowed_vars=uv)
    r2_linear = _expr(block, "r2_linear", "model", errors, required=False,
                      default="0", allowed_vars=v_only)
    r2_tilde = _expr(block, "r2_tilde", "model", errors, required=False,
                     default="0", allowed_vars=uv)
    if alpha is None or len(errors) > here or None in (p, a22, q_lower):
        return None
    try:
        return CoefficientModel(alpha=alpha, p=p, a12=a12, a22=a22,
                                q_lower=q_lower, r1_linear=r1_linear,
                                r1_tilde=r1_tilde, r2_linear=r2_linear,
                                r2_tilde=r2_tilde)
    except (ValueError, ExpressionError) as err:
        errors.append(f"model: {err}")
        return None


def load_config(path) -> RunConfig:
    """Read and fully validate a JSON run configuration.

    Raises ConfigError carrying every detected problem; OSError for
    unreadable files.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"JSON syntax error at line {err.lineno} "
                           f"column {err.colno}: {err.msg}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    errors: list = []
    _check_keys(raw, _TOP_KEYS, "top level", errors)
    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(f"command must be one of {', '.join(COMMANDS)}")
        raise ConfigError(errors)
    cfg = RunConfig(command=command)

    def block(name: str, required: bool) -> Optional[Mapping]:
        b = raw.get(name)
        if b is None:
            if required:
                errors.append(f"'{name}' block is required for {command}")
            return None
        if not isinstance(b, dict):
            errors.append(f"'{name}' must be an object")
            return None
        return b

    needs_sim = command in ("run", "stability", "sweep", "mms")
    g = block("grid", needs_sim or command == "poisson-test")
    if g is not None:
        cfg.grid = _parse_grid(g, errors)
    m = block("model", needs_sim)
    if m is not None:
        cfg.model = _parse_model(m, errors)
    t = block("time", needs_sim)
    if t is not None:
        _check_keys(t, ("dt", "t_end", "cadence"), "time", errors)
        cfg.dt = _num(t, "dt", "time", errors, default=0.0)
        cfg.t_end = _num(t, "t_end", "time", errors, default=0.0)
        cadence = t.get("cadence", 1)
        if isinstance(cadence, bool) or not isinstance(cadence, int) \
                or cadence < 1:
            errors.append("time.cadence must be an integer >= 1")
        else:
            cfg.cadence = cadence

    spatial = frozenset(("x", "y")) if cfg.grid is not None \
        and cfg.grid.dim == 2 else frozenset(("x",))
    ic = block("initial", command in ("stability", "sweep")
               or (command == "run" and "mms" not in raw))
    if ic is not None:
        _check_keys(ic, ("u", "v"), "initial", errors)
        cfg.ic_u = _expr(ic, "u", "initial", errors, allowed_vars=spatial)
        cfg.ic_v = _expr(ic, "v", "initial", errors, allowed_vars=spatial)

    st = block("stability", command in ("stability", "sweep"))
    if st is not None:
        _check_keys(st, ("du", "dv", "amplitude", "amplitudes"),
                    "stability", errors)
        cfg.du = _expr(st, "du", "stability", errors, required=False,
                       default="0", allowed_vars=spatial)
        cfg.dv = _expr(st, "dv", "stability", errors, required=False,
                       default="0", allowed_vars=spatial)
        amp = _num(st, "amplitude", "stability", errors, required=False,
                   default=1.0)
        if amp is not None:
            cfg.amplitude = amp
        amps = st.get("amplitudes")
        if command == "sweep":
            if not (isinstance(amps, list) and amps
                    and all(isinstance(a, (int, float))
                            and not isinstance(a, bool) for a in amps)):
                errors.append("stability.amplitudes must be a nonempty "
                              "list of numbers for sweep")
            else:
                cfg.amplitudes = [float(a) for a in amps]
                if any(b >= a for a, b in zip(cfg.amplitudes,
                                              cfg.amplitudes[1:])):
                    errors.append("stability.amplitudes must be strictly "
                                  "decreasing")
                if any(a < 0.0 for a in cfg.amplitudes):
                    errors.append("stability.amplitudes must be nonnegative")

    mm = block("mms", command == "mms")
    if mm is not None:
        _check_keys(mm, ("u", "v", "levels"), "mms", errors)
        st_vars = spatial | frozenset(("t",))
        cfg.mms_u = _expr(mm, "u", "mms", errors, allowed_vars=st_vars)
        cfg.mms_v = _expr(mm, "v", "mms", errors, allowed_vars=st_vars)
        levels = mm.get("levels", [32, 64, 128])
        if not (isinstance(levels, list) and len(levels) >= 2
                and all(isinstance(n, int) and not isinstance(n, bool)
                        and n >= 2 for n in levels)
                and all(b > a for a, b in zip(levels, levels[1:]))):
            errors.append("mms.levels must be an increasing list of at "
                          "least two cell counts")
        else:
            cfg.mms_levels = list(levels)

    cc = block("coeffcheck", command == "check-coeffs")
    if cc is not None:
        _check_keys(cc, ("f", "gamma", "a1", "a2", "budget", "seed"),
                    "coeffcheck", errors)
        cfg.coeff_f = _expr(cc, "f", "coeffcheck", errors,
                            allowed_vars=frozenset(("y", "u", "v")))
        gamma = _num(cc, "gamma", "coeffcheck", errors)
        if gamma is not None:
            if gamma <= 0.0:
                errors.append("coeffcheck.gamma must be positive")
            cfg.coeff_gamma = gamma
        for name in ("a1", "a2"):
            val = _num(cc, name, "coeffcheck", errors, required=False,
                       default=1.0)
            if val is not None:
                if val <= 0.0:
                    errors.append(f"coeffcheck.{name} must be positive")
                setattr(cfg, f"coeff_{name}", val)
        budget = cc.get("budget", 20000)
        if isinstance(budget, bool) or not isinstance(budget, int) \
                or budget < 1000:
            errors.append("coeffcheck.budget must be an integer >= 1000")
        else:
            cfg.coeff_budget = budget
        seed = cc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            errors.append("coeffcheck.seed must be an integer")
        else:
            cfg.coeff_seed = seed

    po = block("poisson", False)
    if po is not None:
        _check_keys(po, ("levels",), "poisson", errors)
        levels = po.get("levels", [64, 128, 256])
        if not (isinstance(levels, list) and len(levels) >= 2
                and all(isinstance(n, int) and not isinstance(n, bool)
                        and n >= 2 for n in levels)
                and all(b > a for a, b in zip(levels, levels[1:]))):
            errors.append("poisson.levels must be an increasing list of at "
                          "least two cell counts")
        else:
            cfg.poisson_levels = list(levels)
    elif command == "poisson-test":
        cfg.poisson_levels = [64, 128, 256]

    so = block("solver", False)
    if so is not None:
        _check_keys(so, ("tol", "max_iter"), "solver", errors)
        tol = _num(so, "tol", "solver", errors, required=False, default=None)
        if tol is not None:
            if not 0.0 < tol < 1.0:
                errors.append("solver.tol must lie in (0, 1)")
            else:
                cfg.lin_tol = tol
        if "max_iter" in so:
            mi = so["max_iter"]
            if isinstance(mi, bool) or not isinstance(mi, int) or mi < 1:
                errors.append("solver.max_iter must be an integer >= 1")
            else:
                cfg.lin_max_iter = mi

    fe = block("fenergy", False)
    if fe is not None:
        _check_keys(fe, ("gamma", "ks"), "fenergy", errors)
        cfg.fenergy_gamma = _num(fe, "gamma", "fenergy", errors)
        cfg.fenergy_ks = _num(fe, "ks", "fenergy", errors)

    out = block("output", False)
    if out is not None:
        _check_keys(out, ("directory", "formats"), "output", errors)
        directory = out.get("directory", "out")
        if not isinstance(directory, str) or not directory:
            errors.append("output.directory must be a nonempty string")
        else:
            cfg.out_dir = directory
        formats = out.get("formats")
        if formats is not None:
            if not (isinstance(formats, list)
                    and all(f in FORMATS for f in formats)):
                errors.append(f"output.formats entries must come from "
                              f"{', '.join(FORMATS)}")
            else:
                cfg.formats = tuple(f for f in FORMATS if f in formats)

    # deep validation: a schema-valid sim config must also satisfy the
    # solver's own invariants so dispatch never fails for config reasons
    if not errors and needs_sim:
        try:
            cfg.to_sim_config().validate()
        except ValueError as err:
            errors.append(str(err))
    if not errors and command in ("stability", "sweep"):
        eps = cfg.amplitudes[0] if command == "sweep" else cfg.amplitude
        try:
            pert = replace_initial(cfg, eps)
            pert.validate()
        except ValueError as err:
            errors.append(f"perturbed data: {err}")
    if errors:
        raise ConfigError(errors)
    return cfg


def replace_initial(cfg: RunConfig, eps: float) -> SimConfig:
    """Sim config for the second trajectory: initial data plus eps times
    the perturbation direction."""
    sim = cfg.to_sim_config()
    sim.ic_u = sim.ic_u + mul(Const(eps), cfg.du)
    sim.ic_v = sim.ic_v + mul(Const(eps), cfg.dv)
    return sim


# ---------------------------------------------------------------------------
# deterministic writers

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=True) + "\n", encoding="utf-8")


def _resolve_out_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


# ---------------------------------------------------------------------------
# commands

def _coordinate_cells(grid: Grid) -> list:
    """The coordinate columns of a snapshot, one formatted string per cell
    in row-major order."""
    columns = [c.ravel().tolist() for c in grid.centers()]
    return [",".join(_fmt(x) for x in cell) for cell in zip(*columns)]


def _snapshot_rows(coords: list, u: np.ndarray, v: np.ndarray):
    """Rows of Python floats: numpy scalars would print as np.float64(...)."""
    return zip(coords, u.ravel().tolist(), v.ravel().tolist())


def _cmd_run(cfg: RunConfig, out: Path) -> None:
    result = solver.run(cfg.to_sim_config(), validate=False)
    if "csv" in cfg.formats:
        rows = [[getattr(row, c) for c in DIAGNOSTICS_COLUMNS]
                for row in result.diagnostics]
        _write_csv(out / "diagnostics.csv", DIAGNOSTICS_COLUMNS, rows)
        names = ("x",) if cfg.grid.dim == 1 else ("x", "y")
        coords = _coordinate_cells(cfg.grid)
        for k, state in enumerate(result.states):
            _write_csv(out / f"snapshot_{k:04d}.csv", names + ("u", "v"),
                       _snapshot_rows(coords, state.u.values,
                                      state.v.values))
    if "json" in cfg.formats:
        last = result.diagnostics[-1]
        _write_json(out / "summary.json", {
            "t_end": last.t,
            "mass_u": last.mass_u,
            "mass_v": last.mass_v,
            "min_u": last.min_u,
            "min_v": last.min_v,
            "clipped_mass": result.clipped_total,
            "reaction_mass": result.reaction_mass_total,
        })
    if "gnuplot" in cfg.formats and "csv" in cfg.formats:
        emit_plots(out)


def _report_rows(report: stability.StabilityReport):
    return [(t, e, cm, ch, cv, d, cd) for t, e, cm, ch, cv, d, cd
            in zip(report.times, report.energy, report.comp_mass,
                   report.comp_hm1, report.comp_v, report.dissipation,
                   report.cum_dissipation)]


def _cmd_stability(cfg: RunConfig, out: Path) -> None:
    sim = cfg.to_sim_config()
    pert = replace_initial(cfg, cfg.amplitude)
    report = stability.run_pair(sim, pert.ic_u, pert.ic_v)
    trace = stability.gronwall_trace(report, cfg.model)
    if "csv" in cfg.formats:
        _write_csv(out / "stability.csv",
                   ("t", "E", "comp_mass", "comp_hm1", "comp_v", "D", "cumD"),
                   _report_rows(report))
        _write_csv(out / "gronwall.csv",
                   ("t", "balance", "balance_dissipative"),
                   zip(trace.times, trace.balance,
                       trace.balance_dissipative))
    if "json" in cfg.formats:
        _write_json(out / "summary.json", {
            "E0": report.e0,
            "supE": report.sup_e,
            "C_hat": report.c_hat,
            "lambda_hat": report.lambda_hat,
            "energy_identity_residual": report.energy_identity_residual,
            "gronwall_defect": trace.defect,
            "gronwall_defect_dissipative": trace.defect_dissipative,
            "gronwall_constant": trace.gronwall_constant,
            "c0": trace.c0,
            "v_min": report.v_range[0],
            "v_max": report.v_range[1],
        })
    if "gnuplot" in cfg.formats and "csv" in cfg.formats:
        emit_plots(out)


def _cmd_sweep(cfg: RunConfig, out: Path) -> None:
    result = stability.perturbation_sweep(cfg.to_sim_config(), cfg.du,
                                          cfg.dv, cfg.amplitudes)
    if "csv" in cfg.formats:
        _write_csv(out / "sweep.csv",
                   ("amplitude", "q0", "E0", "supE", "ratio", "C_hat",
                    "lambda_hat"),
                   [(r.amplitude, r.q0, r.e0, r.sup_e, r.ratio, r.c_hat,
                     r.lambda_hat) for r in result.rows])
    if "json" in cfg.formats:
        _write_json(out / "summary.json", {
            "ratio_min": result.ratio_min,
            "ratio_max": result.ratio_max,
            "spread": result.spread,
            "bounded": result.bounded,
        })
    if "gnuplot" in cfg.formats and "csv" in cfg.formats:
        emit_plots(out)


def _cmd_mms(cfg: RunConfig, out: Path) -> None:
    base_n = cfg.mms_levels[0]
    levels = []
    for n in cfg.mms_levels:
        shape = (n,) * cfg.grid.dim
        grid = Grid(shape, cfg.grid.lengths)
        scale = (base_n / n) ** 2
        sim = SimConfig(grid=grid, model=cfg.model, dt=cfg.dt * scale,
                        t_end=cfg.t_end, output_every=10 ** 9,
                        lin_tol=cfg.lin_tol, lin_max_iter=cfg.lin_max_iter,
                        mms_u=cfg.mms_u, mms_v=cfg.mms_v)
        result = solver.run(sim, record_states=True, validate=False)
        final = result.states[-1]
        exact_u = Field.from_expr(grid, cfg.mms_u, final.t).values
        exact_v = Field.from_expr(grid, cfg.mms_v, final.t).values
        vol = grid.cell_volume
        err_u = math.sqrt(float(np.sum((final.u.values - exact_u) ** 2)) * vol)
        err_v = math.sqrt(float(np.sum((final.v.values - exact_v) ** 2)) * vol)
        levels.append((n, max(grid.spacing), sim.dt, err_u, err_v))

    rows = []
    orders = []
    for k, (n, h, dt, eu, ev) in enumerate(levels):
        if k == 0:
            rows.append((n, h, dt, eu, ev, float("nan"), float("nan"),
                         float("nan"), float("nan")))
            continue
        _, hp, dtp, eup, evp = levels[k - 1]
        lh, ldt = math.log(hp / h), math.log(dtp / dt)
        order = (math.log(eup / eu) / lh, math.log(evp / ev) / lh,
                 math.log(eup / eu) / ldt, math.log(evp / ev) / ldt)
        orders.append(order)
        rows.append((n, h, dt, eu, ev) + order)
    if "csv" in cfg.formats:
        _write_csv(out / "convergence.csv",
                   ("n", "h", "dt", "l2_error_u", "l2_error_v",
                    "order_u_space", "order_v_space", "order_u_time",
                    "order_v_time"), rows)
    if "json" in cfg.formats:
        last = orders[-1]
        _write_json(out / "summary.json", {
            "spatial_order_u": last[0],
            "spatial_order_v": last[1],
            "temporal_order_u": last[2],
            "temporal_order_v": last[3],
        })
    if "gnuplot" in cfg.formats and "csv" in cfg.formats:
        emit_plots(out)


def _cmd_check_coeffs(cfg: RunConfig, out: Path) -> None:
    verdict = check_finite_gamma_lipschitz(
        cfg.coeff_f, cfg.coeff_gamma, cfg.coeff_a1, cfg.coeff_a2,
        budget=cfg.coeff_budget, seed=cfg.coeff_seed)
    payload = {
        "gamma": verdict.gamma,
        "box": list(verdict.box),
        "estimated_constant": verdict.estimated_constant,
        "max_ratio_trace": list(verdict.max_ratio_trace),
        "verdict": verdict.verdict,
        "witness_pair": (None if verdict.witness_pair is None
                         else [list(p) for p in verdict.witness_pair]),
    }
    _write_json(out / "lipschitz.json", payload)


def _cmd_poisson_test(cfg: RunConfig, out: Path) -> None:
    length = cfg.grid.lengths[0] if cfg.grid is not None else 1.0
    levels = []
    for n in cfg.poisson_levels:
        grid = Grid((n,), (length,))
        x = grid.axis_centers(0)
        w = np.cos(math.pi * x / length)
        sol = solve_neumann_zero_mean(grid, Field(grid, w))
        exact = w / (math.pi / length) ** 2
        err = float(np.max(np.abs(sol.psi.values - exact)))
        levels.append((n, err, sol.iterations))
    orders = [math.log(ep / e) / math.log(2.0)
              for (_, ep, _), (_, e, _) in zip(levels, levels[1:])]
    grid = Grid((cfg.poisson_levels[-1],), (length,))
    ratio = poincare_ratio(grid)
    expected = (length / math.pi) ** 2
    _write_json(out / "poisson.json", {
        "levels": [{"n": n, "max_error": e, "iterations": it}
                   for n, e, it in levels],
        "observed_order": orders[-1],
        "orders": orders,
        "poincare_ratio": ratio,
        "poincare_expected": expected,
        "poincare_relative_error": abs(ratio - expected) / expected,
    })


# ---------------------------------------------------------------------------
# plotting

_PLOT_SOURCES = ("stability.csv", "diagnostics.csv", "sweep.csv",
                 "convergence.csv")


def emit_plots(report_dir) -> Path:
    """Write a deterministic plot.gp for whichever CSVs the directory holds.

    Raises FileNotFoundError naming the expected files when none exist.
    """
    directory = Path(report_dir)
    present = [name for name in _PLOT_SOURCES if (directory / name).exists()]
    if not present:
        raise FileNotFoundError(
            f"nothing to plot in {directory}: expected one of "
            + ", ".join(_PLOT_SOURCES))
    stanzas = ["set terminal pngcairo size 960,640", "set datafile separator ','",
               "set key outside"]
    if "stability.csv" in present:
        stanzas += [
            "", "set output 'energy.png'", "set logscale y",
            "plot 'stability.csv' using 1:2 with lines title 'E', "
            "'' using 1:3 with lines title 'mass term', "
            "'' using 1:4 with lines title 'H-1 term', "
            "'' using 1:5 with lines title 'v term'",
            "unset logscale y",
            "", "set output 'dissipation.png'",
            "plot 'stability.csv' using 1:6 with lines title 'D', "
            "'' using 1:7 with lines title 'cumulative D'",
        ]
        if (directory / "gronwall.csv").exists():
            stanzas += [
                "", "set output 'gronwall.png'",
                "plot 'gronwall.csv' using 1:2 with lines title 'balance', "
                "'' using 1:3 with lines title 'dissipative balance'",
            ]
    if "diagnostics.csv" in present:
        stanzas += [
            "", "set output 'diagnostics.png'",
            "plot 'diagnostics.csv' using 1:2 with lines title 'mass u', "
            "'' using 1:3 with lines title 'mass v', "
            "'' using 1:6 with lines title 'min v', "
            "'' using 1:5 with lines title 'max u'",
        ]
    if "sweep.csv" in present:
        stanzas += [
            "", "set output 'sweep.png'", "set logscale x",
            "plot 'sweep.csv' using 1:5 with linespoints title "
            "'sup E / Q'",
            "unset logscale x",
        ]
    if "convergence.csv" in present:
        stanzas += [
            "", "set output 'convergence.png'", "set logscale xy",
            "plot 'convergence.csv' using 2:4 with linespoints title "
            "'L2 error u', '' using 2:5 with linespoints title 'L2 error v'",
            "unset logscale xy",
        ]
    path = directory / "plot.gp"
    path.write_text("\n".join(stanzas) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# dispatch

_COMMANDS = {
    "run": _cmd_run,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "mms": _cmd_mms,
    "check-coeffs": _cmd_check_coeffs,
    "poisson-test": _cmd_poisson_test,
}


def _emit_error(code: int, kind: str, message: str,
                details: Optional[Sequence[str]] = None) -> None:
    payload = {"error": {"code": code, "kind": kind, "message": message,
                         "details": list(details or [])}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def dispatch(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    try:
        out = _resolve_out_dir(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[cfg.command](cfg, out)
        return 0
    except EvalError as err:
        _emit_error(2, "numeric", str(err))
        return 2
    except ConfigError as err:
        _emit_error(1, "config", str(err), err.errors)
        return 1
    except (ExpressionError, ValueError) as err:
        _emit_error(1, "config", str(err))
        return 1
    except (RuntimeError, ArithmeticError) as err:
        _emit_error(2, "numeric", str(err))
        return 2
    except OSError as err:
        _emit_error(3, "io", str(err))
        return 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossdiff",
        description="finite-volume laboratory for triangular degenerate "
                    "reaction-cross-diffusion systems")
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--output-dir", default=None,
                        help="override the configured output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        _emit_error(1, "config", str(err), err.errors)
        return 1
    except OSError as err:
        _emit_error(3, "io", str(err))
        return 3
    if args.output_dir is not None:
        cfg.out_dir = args.output_dir
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
