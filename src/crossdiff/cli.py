"""Batch front-end: JSON config in, CSV/JSON artifacts and a gnuplot script out.

The config file is the single source of truth for an experiment; the command
line only picks the file and an output-directory override, so runs stay
archivable and diffable.  Validation is total: every invalid field is
reported, not just the first, and once, by the one owner of its rule:

    load_config                  JSON syntax, the only blocks and keys each
                                 command accepts (the ones it reads),
                                 expression parsing, building the Grid and
                                 the model, output
    SimConfig.problems           time, solver, fenergy, initial data or a
                                 manufactured pair, the data's signs
    stability.amplitude_problems the amplitudes of stability and sweep
    coeffs.lipschitz_problems    the coeffcheck block

All outputs are written with fixed float formatting and sorted JSON keys,
so identical configs reproduce byte-identical artifacts.

Commands
    run           march one simulation; snapshots plus diagnostics CSV
    stability     paired run; energy/dissipation CSV, Gronwall CSV, summary
    sweep         perturbation-amplitude sweep; ratio table and summary
    mms           manufactured-solution refinement study; convergence table
    check-coeffs  finite-gamma Lipschitz probe of one coefficient; JSON
    poisson-test  eigenfunction error, observed order and Poincare ratio

Exit codes: 0 success, 1 configuration, 2 numerics, 3 input/output.  On
failure a machine-readable JSON error report goes to stderr, and each
warning of a run is one JSON line there too.  Relative output directories
resolve under $CROSSDIFF_OUTPUT_ROOT when that is set.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import solver, stability
from .coeffs import (CASE_PARAMS, CoefficientModel, build_preset,
                     check_finite_gamma_lipschitz, lipschitz_problems)
from .exprs import (Const, EvalError, ExpressionError, Expr, ParseError,
                    is_count, is_number, parse, variable_problems, variables)
from .grid import Grid
from .poisson import poincare_ratio, solve_neumann_zero_mean
from .solver import DIAGNOSTICS_COLUMNS, SimConfig

OUTPUT_ROOT_ENV = "CROSSDIFF_OUTPUT_ROOT"
FORMATS = ("csv", "json", "gnuplot")

# command -> the only blocks it accepts, "!" marking the ones it requires,
# each followed by the keys it reads when it reads fewer than the block has
_SIM = ("grid!", "model!", "solver", "output")  # read by every simulation
_READS = {
    "run": _SIM + ("time", "initial", "mms u v", "fenergy"),
    "stability": _SIM + ("time", "initial", "stability! du dv amplitude"),
    "sweep": _SIM + ("time", "initial", "stability! du dv amplitudes"),
    "mms": _SIM + ("time dt t_end", "mms!"),
    "check-coeffs": ("coeffcheck!", "output directory"),
    "poisson-test": ("grid!", "poisson", "output directory"),
}
COMMANDS = tuple(_READS)
_BLOCKS = {entry.split()[0].rstrip("!")
           for entries in _READS.values() for entry in entries}


class ConfigError(ValueError):
    """Aggregated configuration failure; ``errors`` lists every problem."""

    def __init__(self, errors: Sequence[str]):
        self.errors = [str(e) for e in errors]
        super().__init__("invalid configuration: " + "; ".join(self.errors))


@dataclass
class RunConfig:
    """A loaded config: the simulation it describes (for poisson-test only
    its grid) and the extras of its command."""

    command: str
    sim: SimConfig
    du: Optional[Expr] = None  # stability, sweep: the perturbation direction
    dv: Optional[Expr] = None
    amplitudes: list = field(default_factory=list)  # one for stability
    levels: list = field(default_factory=list)  # mms, poisson-test
    # check-coeffs: keyword arguments of check_finite_gamma_lipschitz
    coeffcheck: dict = field(default_factory=dict)
    out_dir: str = "out"
    formats: tuple = FORMATS


# ---------------------------------------------------------------------------
# config loading

def _check_keys(block: Mapping, allowed: Sequence[str], where: str,
                errors: list) -> None:
    for key in sorted(set(block) - set(allowed)):
        errors.append(f"{where}: unknown key '{key}'")


def _real(value):
    """A JSON number as a float; any other value, None included, as given,
    for its owner to judge."""
    return float(value) if is_number(value) else value


# stands in for an expression the loader rejected and reported, so that its
# owner judges the rest of the config without reporting it missing; a
# config holding it never loads
_REJECTED = Const(1.0)


def _expr(block: Mapping, key: str, where: str, errors: list,
          required: bool = False, default: Optional[str] = None,
          allowed_vars: Optional[frozenset] = None) -> Optional[Expr]:
    """The expression at block[key] (or the default source); None when it
    is absent, _REJECTED when it is reported broken."""
    source = block.get(key, None if required else default)
    if source is None and not required:
        return None
    if source is None:
        errors.append(f"{where}.{key} is required")
    elif not isinstance(source, str):
        errors.append(f"{where}.{key} must be an expression string")
    else:
        try:
            e = parse(source)
        except ParseError as err:
            errors.append(f"{where}.{key}: {err}")
        else:
            problems = [] if allowed_vars is None \
                else variable_problems(f"{where}.{key}", e, allowed_vars)
            if not problems:
                return e
            errors.extend(problems)
    return _REJECTED


def _levels(block: Mapping, where: str, default: list, errors: list,
            level_grid) -> list:
    levels = block.get("levels", default)
    if not (isinstance(levels, list) and len(levels) >= 2
            and all(is_count(n, 2) for n in levels)
            and all(b > a for a, b in zip(levels, levels[1:]))):
        errors.append(f"{where}.levels must be an increasing list of at "
                      "least two cell counts")
        return []
    try:  # Grid owns the cell bound; the finest level has the most cells
        level_grid(levels[-1])
    except ValueError as err:
        errors.append(f"{where}.levels: {err}")
        return []
    return list(levels)


def _parse_grid(block, errors) -> Optional[Grid]:
    dim = block.get("dim")
    if not (is_count(dim) and dim <= 2):
        errors.append("grid.dim must be 1 or 2")
        return None
    n = block.get("n")
    lengths = block.get("L", 1.0)
    if is_count(n):
        n = (n,) * dim
    elif isinstance(n, list) and len(n) == dim and all(map(is_count, n)):
        n = tuple(n)
    else:
        errors.append(f"grid.n must be an int or a list of {dim} ints")
        return None
    if is_number(lengths):
        lengths = (float(lengths),) * dim
    elif isinstance(lengths, list) and len(lengths) == dim \
            and all(map(is_number, lengths)):
        lengths = tuple(map(float, lengths))
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


def _preset_case(preset):
    """A preset, 2 or "case2", as its case number, else None."""
    if isinstance(preset, str) and preset[:4] == "case" \
            and preset[4:].isdecimal():
        preset = int(preset[4:])
    return preset if is_count(preset) else None


def _model_keys(block: Mapping) -> tuple:
    """The keys of a model block's form: alpha and the expressions, or a
    preset and its case's parameters (any key, for a preset of no case)."""
    if block.get("preset") is None:
        return ("preset", "alpha") + _MODEL_EXPR_KEYS
    return ("preset",) + CASE_PARAMS.get(_preset_case(block["preset"]),
                                         tuple(block))


def _parse_model(block, errors) -> Optional[CoefficientModel]:
    if "preset" in block:
        case = _preset_case(block["preset"])
        if case is None:
            errors.append(f"model.preset '{block['preset']}' is not one of "
                          "case1..case6")
            return None
        params = {k: v for k, v in block.items() if k != "preset"}
        for key, value in sorted(params.items()):
            if not is_number(value):
                errors.append(f"model.{key} must be a number")
                return None
        try:
            return build_preset(case, params)
        except ValueError as err:
            errors.append(f"model: {err}")
            return None

    here = len(errors)
    alpha = _real(block.get("alpha"))
    if not isinstance(alpha, float):
        errors.append("model.alpha must be a number")
    parts = {}
    for key in _MODEL_EXPR_KEYS:  # a22 comes before q_lower
        if key != "q_lower" or key in block:
            parts[key] = _expr(block, key, "model", errors,
                               required=key in ("p", "a22"), default="0")
        elif parts["a22"] is not None and "u" not in variables(parts["a22"]):
            parts[key] = parts["a22"]
        else:
            errors.append("model.q_lower is required when a22 depends on u")
    if len(errors) > here:
        return None
    try:
        return CoefficientModel(alpha=alpha, **parts)
    except (ValueError, ExpressionError) as err:
        errors.append(f"model: {err}")
        return None


def load_config(path) -> RunConfig:
    """Read and fully validate a JSON run configuration.

    The loader owns the rules of the file itself: JSON syntax, expression
    parsing, building the Grid and the model, the output block, and _READS,
    which rejects every block and key the command does not read, each with
    one entry naming it.  A block given as null is absent, whether the
    command reads it or not.  Every other value goes unchanged (a JSON
    number as a float, an absent value as None) to its one owner, which
    checks type as well as range: SimConfig.problems() the time, solver
    and fenergy blocks and the initial data (or manufactured pair),
    stability.amplitude_problems the amplitudes, SimConfig.data_problems a
    paired run's largest perturbed member, and coeffs.lipschitz_problems
    the coeffcheck block.  Raises ConfigError carrying every detected
    problem; OSError for unreadable files.
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
    _check_keys(raw, ("command", *_BLOCKS), "top level", errors)
    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(f"command must be one of {', '.join(COMMANDS)}")
        raise ConfigError(errors)
    reads = {entry.split()[0].rstrip("!"): entry for entry in _READS[command]}
    given = {name for name in _BLOCKS if raw.get(name) is not None}
    errors.extend(f"'{name}' is not read by {command}" for name
                  in sorted(given - set(reads)))

    def block(name: str, keys: Optional[Sequence[str]] = None
              ) -> Optional[Mapping]:
        # what the command reads of the block, None if nothing: the keys its
        # _READS entry names, or else keys (of the block, for the model),
        # each unknown key reported and each null one left out
        entry = reads.get(name, "")
        b = raw.get(name) if entry else None
        if b is None:
            if "!" in entry:
                errors.append(f"'{name}' block is required for {command}")
            return None
        if not isinstance(b, dict):
            errors.append(f"'{name}' must be an object")
            return None
        keys = entry.split()[1:] or (keys(b) if callable(keys) else keys)
        _check_keys(b, keys, name, errors)
        return {key: b[key] for key in keys if b.get(key) is not None}

    g = block("grid", ("dim", "n", "L"))
    grid = None if g is None else _parse_grid(g, errors)
    m = block("model", _model_keys)
    model = None if m is None else _parse_model(m, errors)
    t = block("time", ("dt", "t_end", "cadence")) or {}
    ic = block("initial", ("u", "v")) or {}
    mm = block("mms", ("u", "v", "levels")) or {}
    so = block("solver", ("tol", "max_iter")) or {}
    fe = block("fenergy", ("gamma", "ks")) or {}
    ic_u, ic_v = (_expr(ic, key, "initial", errors) for key in "uv")
    sim = SimConfig(
        grid=grid, model=model,
        dt=_real(t.get("dt")), t_end=_real(t.get("t_end")),
        ic_u=ic_u, ic_v=ic_v,
        output_every=t.get("cadence", SimConfig.output_every),
        lin_tol=_real(so.get("tol", SimConfig.lin_tol)),
        lin_max_iter=so.get("max_iter"),
        mms_u=_expr(mm, "u", "mms", errors),
        mms_v=_expr(mm, "v", "mms", errors),
        f_energy_gamma=_real(fe.get("gamma")),
        f_energy_ks=_real(fe.get("ks")))
    cfg = RunConfig(command=command, sim=sim)

    st = block("stability", ("du", "dv", "amplitude", "amplitudes"))
    if st is not None:
        spatial = None if grid is None else grid.coordinates
        cfg.du, cfg.dv = (_expr(st, key, "stability", errors, default="0",
                                allowed_vars=spatial) for key in ("du", "dv"))
        pair = command == "stability"
        key = "amplitude" if pair else "amplitudes"
        amps = [st.get(key, 1.0)] if pair else st.get(key)
        cfg.amplitudes = [_real(a) for a in amps] \
            if isinstance(amps, list) else amps
        errors.extend(stability.amplitude_problems(
            cfg.amplitudes, f"stability.{key}", one=pair))

    cc = block("coeffcheck", ("f", "gamma", "a1", "a2", "budget", "seed"))
    if cc is not None:
        cfg.coeffcheck = {"f": _expr(cc, "f", "coeffcheck", errors),
                          "gamma": _real(cc.get("gamma"))}
        cfg.coeffcheck.update((key, _real(cc[key]))
                              for key in ("a1", "a2") if key in cc)
        cfg.coeffcheck.update((key, cc[key])
                              for key in ("budget", "seed") if key in cc)
        errors.extend(f"coeffcheck: {problem}" for problem
                      in lipschitz_problems(**cfg.coeffcheck))

    po = block("poisson", ("levels",)) or {}
    dim, lengths = (1, (1.0,)) if grid is None else (grid.dim, grid.lengths)
    if command == "mms":
        cfg.levels = _levels(mm, "mms", [32, 64, 128], errors,
                             lambda n: Grid((n,) * dim, lengths))
    elif command == "poisson-test":
        cfg.levels = _levels(po, "poisson", [64, 128, 256], errors,
                             lambda n: Grid((n,), lengths[:1]))

    out = block("output", ("directory", "formats"))
    if out is not None:
        directory = out.get("directory", "out")
        if not isinstance(directory, str) or not directory:
            errors.append("output.directory must be a nonempty string")
        else:
            cfg.out_dir = directory
        formats = out.get("formats", list(FORMATS))
        if not (isinstance(formats, list)
                and all(f in FORMATS for f in formats)):
            errors.append(f"output.formats entries must come from "
                          f"{', '.join(FORMATS)}")
        elif not formats:
            errors.append("output.formats must name at least one format")
        elif "gnuplot" in formats and "csv" not in formats:
            errors.append("output.formats: gnuplot requires csv (plot.gp "
                          "plots the CSVs)")
        else:
            cfg.formats = tuple(f for f in FORMATS if f in formats)

    if "solver" in reads:  # a simulation command
        errors.extend(sim.problems())
    if st is not None and not errors:
        # the largest perturbation's data; the run checks every member
        member = stability.perturbed(sim, cfg.du, cfg.dv, cfg.amplitudes[0])
        try:
            u0, v0 = (grid.cell_values(e) for e in member)
        except EvalError as err:
            errors.append(f"perturbed data: {err}")
        else:
            errors.extend(f"perturbed data: {problem}" for problem
                          in sim.data_problems(u0, v0))
    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers

def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """rows: sequences of strings, as _formatted makes from numbers."""
    # rows stream through a 1 MiB buffer: few write calls, and freeing it
    # raises glibc's trim threshold as the one-string writer's text did
    with path.open("w", encoding="utf-8", buffering=1 << 20) as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def _formatted(rows):
    """Rows of numbers as strings: the repr of each Python number, and of
    the one a numpy scalar holds (whose own repr reads np.float64(...))."""
    return ([repr(x.item() if isinstance(x, np.generic) else x) for x in row]
            for row in rows)


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

def _write_artifacts(cfg: RunConfig, out: Path, tables, summary: dict) -> None:
    """Write what cfg.formats selects: each (name, header, rows) of tables
    as a CSV, summary as summary.json, and plot.gp for the CSVs."""
    if "csv" in cfg.formats:
        for name, header, rows in tables:
            _write_csv(out / name, header, rows)
            del rows  # freed before the next table's rows are made
    if "json" in cfg.formats:
        _write_json(out / "summary.json", summary)
    if "gnuplot" in cfg.formats:
        emit_plots(out)


def _column(a: np.ndarray):
    """The cells of a in row-major order, as the reprs of Python floats."""
    return map(repr, a.ravel().tolist())


def _cmd_run(cfg: RunConfig, out: Path) -> None:
    result = solver.run(cfg.sim)

    def tables():  # made lazily: one snapshot's columns at a time
        yield ("diagnostics.csv", DIAGNOSTICS_COLUMNS, _formatted(
            [getattr(row, c) for c in DIAGNOSTICS_COLUMNS]
            for row in result.diagnostics))
        grid = cfg.sim.grid
        names = ("x",) if grid.dim == 1 else ("x", "y")
        coords = list(map(",".join, itertools.product(
            *map(_column, grid.axes.values()))))
        for k, state in enumerate(result.states):
            yield (f"snapshot_{k:04d}.csv", names + ("u", "v"),
                   zip(coords, _column(state.u), _column(state.v)))

    last = result.diagnostics[-1]
    _write_artifacts(cfg, out, tables(), {
        "t_end": last.t,
        "mass_u": last.mass_u,
        "mass_v": last.mass_v,
        "min_u": last.min_u,
        "min_v": last.min_v,
        "clipped_mass": result.clipped_total,
        "reaction_mass": result.reaction_mass_total,
    })


def _cmd_stability(cfg: RunConfig, out: Path) -> None:
    report = stability.run_pair(cfg.sim, *stability.perturbed(
        cfg.sim, cfg.du, cfg.dv, cfg.amplitudes[0]))
    trace = stability.gronwall_trace(report, cfg.sim.model)
    _write_artifacts(cfg, out, [
        ("stability.csv",
         ("t", "E", "comp_mass", "comp_hm1", "comp_v", "D", "cumD"),
         _formatted(zip(report.times, report.energy, report.comp_mass,
                        report.comp_hm1, report.comp_v, report.dissipation,
                        report.cum_dissipation))),
        ("gronwall.csv", ("t", "balance", "balance_dissipative"),
         _formatted(zip(trace.times, trace.balance,
                        trace.balance_dissipative))),
    ], {
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


def _cmd_sweep(cfg: RunConfig, out: Path) -> None:
    result = stability.perturbation_sweep(cfg.sim, cfg.du, cfg.dv,
                                          cfg.amplitudes)
    _write_artifacts(cfg, out, [
        ("sweep.csv",
         ("amplitude", "q0", "E0", "supE", "ratio", "C_hat", "lambda_hat"),
         _formatted((r.amplitude, r.q0, r.e0, r.sup_e, r.ratio, r.c_hat,
                     r.lambda_hat) for r in result.rows)),
    ], {
        "ratio_min": result.ratio_min,
        "ratio_max": result.ratio_max,
        "spread": result.spread,
        "bounded": result.bounded,
    })


@contextlib.contextmanager
def _naming_level(n: int):
    """Prefix a failure, config or numeric, with its refinement level."""
    try:
        yield
    except (ValueError, RuntimeError, ArithmeticError) as err:
        err.args = (f"level n = {n}: {err}",)
        raise


def _order(error_prev: float, error: float, log_ratio: float) -> float:
    """The observed order log(error_prev / error) / log_ratio, nan when
    either error is 0: an exactly reproduced level has no order."""
    if error_prev == 0.0 or error == 0.0:
        return math.nan
    return math.log(error_prev / error) / log_ratio


def _cmd_mms(cfg: RunConfig, out: Path) -> None:
    base, base_n = cfg.sim, cfg.levels[0]
    sims = [replace(base, grid=Grid((n,) * base.grid.dim, base.grid.lengths),
                    dt=base.dt * (base_n / n) ** 2, output_every=10 ** 9)
            for n in cfg.levels]
    for n, sim in zip(cfg.levels, sims):  # every level before any steps
        with _naming_level(n):
            sim.validate()
    levels = []
    for n, sim in zip(cfg.levels, sims):
        with _naming_level(n):
            stepper = solver.Simulation(sim)
            for _ in stepper.march():
                pass
        final, grid = stepper.state(), sim.grid
        exact_u = grid.cell_values(base.mms_u, final.t)
        exact_v = grid.cell_values(base.mms_v, final.t)
        vol = grid.cell_volume
        err_u = math.sqrt(float(np.sum((final.u - exact_u) ** 2)) * vol)
        err_v = math.sqrt(float(np.sum((final.v - exact_v) ** 2)) * vol)
        levels.append((n, max(grid.spacing), sim.dt, err_u, err_v))

    orders = [(math.nan,) * 4]  # the coarsest level has none
    for (_, hp, dtp, eup, evp), (_, h, dt, eu, ev) in zip(levels, levels[1:]):
        lh, ldt = math.log(hp / h), math.log(dtp / dt)
        orders.append((_order(eup, eu, lh), _order(evp, ev, lh),
                       _order(eup, eu, ldt), _order(evp, ev, ldt)))
    last = orders[-1]
    _write_artifacts(cfg, out, [
        ("convergence.csv",
         ("n", "h", "dt", "l2_error_u", "l2_error_v", "order_u_space",
          "order_v_space", "order_u_time", "order_v_time"),
         _formatted(a + b for a, b in zip(levels, orders))),
    ], {
        "spatial_order_u": last[0],
        "spatial_order_v": last[1],
        "temporal_order_u": last[2],
        "temporal_order_v": last[3],
    })


def _cmd_check_coeffs(cfg: RunConfig, out: Path) -> None:
    verdict = check_finite_gamma_lipschitz(**cfg.coeffcheck)
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
    length = cfg.sim.grid.lengths[0]
    levels = []
    for n in cfg.levels:
        grid = Grid((n,), (length,))
        w = np.cos(math.pi * grid.axes["x"] / length)
        sol = solve_neumann_zero_mean(grid, w)
        exact = w / (math.pi / length) ** 2
        err = float(np.max(np.abs(sol.psi - exact)))
        levels.append((n, err, sol.iterations))
    orders = [_order(ep, e, math.log(n / n_prev))
              for (n_prev, ep, _), (n, e, _) in zip(levels, levels[1:])]
    grid = Grid((cfg.levels[-1],), (length,))
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

# CSV name -> the lines that plot it, in the order plot.gp holds them
_PLOTS = {
    "stability.csv": [
        "set output 'energy.png'", "set logscale y",
        "plot 'stability.csv' using 1:2 with lines title 'E', "
        "'' using 1:3 with lines title 'mass term', "
        "'' using 1:4 with lines title 'H-1 term', "
        "'' using 1:5 with lines title 'v term'",
        "unset logscale y",
        "", "set output 'dissipation.png'",
        "plot 'stability.csv' using 1:6 with lines title 'D', "
        "'' using 1:7 with lines title 'cumulative D'",
    ],
    "gronwall.csv": [
        "set output 'gronwall.png'",
        "plot 'gronwall.csv' using 1:2 with lines title 'balance', "
        "'' using 1:3 with lines title 'dissipative balance'",
    ],
    "diagnostics.csv": [
        "set output 'diagnostics.png'",
        "plot 'diagnostics.csv' using 1:2 with lines title 'mass u', "
        "'' using 1:3 with lines title 'mass v', "
        "'' using 1:6 with lines title 'min v', "
        "'' using 1:5 with lines title 'max u'",
    ],
    "sweep.csv": [
        "set output 'sweep.png'", "set logscale x",
        "plot 'sweep.csv' using 1:5 with linespoints title 'sup E / Q'",
        "unset logscale x",
    ],
    "convergence.csv": [
        "set output 'convergence.png'", "set logscale xy",
        "plot 'convergence.csv' using 2:4 with linespoints title "
        "'L2 error u', '' using 2:5 with linespoints title 'L2 error v'",
        "unset logscale xy",
    ],
}


def emit_plots(report_dir) -> Path:
    """Write a deterministic plot.gp for whichever CSVs the directory holds.

    Raises FileNotFoundError naming the expected files when none exist.
    """
    directory = Path(report_dir)
    present = [name for name in _PLOTS if (directory / name).exists()]
    if not present:
        raise FileNotFoundError(
            f"nothing to plot in {directory}: expected one of "
            + ", ".join(_PLOTS))
    stanzas = ["set terminal pngcairo size 960,640", "set datafile separator ','",
               "set key outside"]
    for name in present:
        stanzas += [""] + _PLOTS[name]
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


def _emit_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """warnings.showwarning as one JSON line, without the source location,
    so that stderr does not depend on the checkout or its line numbers."""
    payload = {"warning": {"kind": category.__name__,
                           "message": str(message)}}
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
    with warnings.catch_warnings():
        warnings.showwarning = _emit_warning
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
