"""Command-line driver: config loading, commands, outputs, exit codes."""

import hashlib
import importlib.util
import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossdiff import cli, exprs, solver
from crossdiff.cli import (ConfigError, emit_plots, load_config, main)
from crossdiff.coeffs import CoefficientModel, check_finite_gamma_lipschitz
from crossdiff.exprs import Program, evaluate, parse
from crossdiff.grid import MAX_CELLS, Grid
from test_grid import centers
from test_poisson import off_spectrum
from test_solver import record

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OPERATORS_CONFIG = Path(__file__).resolve().parent / "data" \
    / "operators_mms.json"
MMS_2D_CONFIG = OPERATORS_CONFIG.parent / "mms_2d.json"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def heat_run_config(out_dir, n=24, dt=1e-3, t_end=5e-3, cadence=2):
    return {
        "command": "run",
        "grid": {"dim": 1, "n": n, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": dt, "t_end": t_end, "cadence": cadence},
        "initial": {"u": "1 + 0.1*cos(pi*x)", "v": "1"},
        "output": {"directory": str(out_dir)},
    }


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


def plot_lines(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith("plot '")]


# ---------------------------------------------------------------------------
# config loading


def test_minimal_model_defaults_q_lower_to_a22(tmp_path):
    cfg = load_config(write_config(tmp_path, heat_run_config(tmp_path)))
    assert evaluate(cfg.sim.model.q_lower, {"v": 3.0}) == 1.0
    assert evaluate(cfg.sim.model.a12, {"u": 2.0, "v": 3.0}) == 0.0
    assert cfg.formats == ("csv", "json", "gnuplot")
    assert cfg.sim.output_every == 2


def test_q_lower_required_when_a22_depends_on_u(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["model"] = {"alpha": 0.0, "p": "1", "a22": "1 + u"}
    with pytest.raises(ConfigError, match="q_lower is required"):
        load_config(write_config(tmp_path, payload))


def test_preset_accepts_case_string_and_int(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["model"] = {"preset": "case2", "chi": 0.25, "l": 0.5}
    cfg = load_config(write_config(tmp_path, payload))
    assert cfg.sim.model.alpha == 1.0
    assert evaluate(cfg.sim.model.a12, {"u": 2.0, "v": 3.0}) == -3.0
    payload["model"] = {"preset": 2, "chi": 0.25, "l": 0.5}
    cfg2 = load_config(write_config(tmp_path, payload))
    assert cfg2.sim.model == cfg.sim.model


def test_preset_rejects_low_beta(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["model"] = {"preset": "case1", "chi": 0.25, "beta": 1.0}
    with pytest.raises(ConfigError, match="3/2"):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("block, key, value, name", [
    ("grid", "L", ["a"], "grid.L"),
    ("grid", "L", [None], "grid.L"),
    ("grid", "L", [True], "grid.L"),
    ("grid", "dim", True, "grid.dim"),
    ("model", "preset", 2.7, "model.preset"),
    ("model", "preset", True, "model.preset"),
    ("time", "dt", 10 ** 400, "time.dt"),
])
def test_a_json_value_of_the_wrong_type_exits_1_naming_its_field(
        tmp_path, capsys, block, key, value, name):
    # a string or a null length, and an integer too large for a float,
    # escaped the loader as a traceback; a true length or dim, and a true
    # or fractional preset, ran as the number that Python converts them to
    payload = heat_run_config(tmp_path / "out", n=8, t_end=2e-3)
    payload["model"] = {"preset": "case2", "chi": 0.25, "l": 0.5}
    payload[block][key] = value
    assert main([str(write_config(tmp_path, payload))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["kind"] == "config"
    assert len(err["details"]) == 1 and err["details"][0].startswith(name)


@pytest.mark.parametrize("dt, t_end", [(1e-310, 0.001), (1e-300, 1.0),
                                       (1e-310, 1.0)])
def test_a_config_asking_for_too_many_steps_is_rejected_at_load(
        tmp_path, dt, t_end):
    # the first stepped without end; the second asks for 1e300 steps, and
    # the third for more than a float holds, as t_end / dt overflows to inf
    payload = json.loads((CONFIG_DIR / "case2_run_1d.json").read_text(
        encoding="utf-8"))
    payload["time"].update(dt=dt, t_end=t_end)
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert err.value.errors == [
        f"time.t_end / time.dt must not exceed MAX_STEPS = "
        f"{solver.MAX_STEPS}, the most steps a run may take"]


def test_the_step_bound_admits_exactly_max_steps(tmp_path):
    sim = load_config(CONFIG_DIR / "case2_run_1d.json").sim
    with warnings.catch_warnings():  # such a dt is far above the advisory
        warnings.simplefilter("ignore", RuntimeWarning)
        assert replace(sim, dt=1.0, t_end=float(solver.MAX_STEPS)) \
            .problems() == []
        assert replace(sim, dt=1.0, t_end=solver.MAX_STEPS + 0.5) \
            .problems() != []


def test_an_mms_level_asking_for_too_many_steps_fails_before_any_steps(
        tmp_path, capsys, monkeypatch):
    # dt shrinks by (8 / 1024)^2 at the finest level: 16 million steps
    def refused(*args, **kwargs):
        raise AssertionError("a level was stepped")
    monkeypatch.setattr(solver, "Simulation", refused)
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 1.0},
        "mms": {"u": "2 + 0.5*exp(-t)*cos(pi*x)",
                "v": "2 + 0.5*exp(-t)*cos(pi*x)", "levels": [8, 1024]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert err["kind"] == "config"
    assert err["message"].startswith("level n = 1024: invalid configuration: "
                                     "time.t_end / time.dt must not exceed")


@pytest.mark.parametrize("config, path, value, name", [
    ("case2_run_1d", ("grid", "n"), 10 ** 400, "grid"),
    ("case2_run_2d", ("grid", "n"), [2, 10 ** 400], "grid"),
    ("mms_case2", ("mms", "levels"), [32, 10 ** 400], "mms.levels"),
    ("poisson_test", ("poisson", "levels"), [64, 10 ** 400],
     "poisson.levels"),
])
def test_a_config_asking_for_too_many_cells_exits_1_naming_the_bound(
        tmp_path, capsys, config, path, value, name):
    # the grids escaped as an OverflowError traceback from the spacing's
    # division, and the levels loaded, then failed at run time with exit 2
    payload = json.loads((CONFIG_DIR / f"{config}.json").read_text(
        encoding="utf-8"))
    payload[path[0]][path[1]] = value
    payload["output"]["directory"] = str(tmp_path / "out")
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert err["kind"] == "config"
    assert err["details"] == [f"{name}: a grid may have at most MAX_CELLS "
                              f"= {MAX_CELLS} cells"]
    assert not (tmp_path / "out").exists()


def test_unknown_keys_are_reported_at_every_level(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["bogus"] = 1
    payload["grid"]["stray"] = 1
    payload["time"]["oops"] = 1
    payload["initial"]["extra"] = "1"
    payload["output"]["weird"] = 1
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    text = "\n".join(err.value.errors)
    for where, key in (("top level", "bogus"), ("grid", "stray"),
                       ("time", "oops"), ("initial", "extra"),
                       ("output", "weird")):
        assert f"{where}: unknown key '{key}'" in text
    assert len(err.value.errors) >= 5


def test_schema_errors_are_collected_not_first_only(tmp_path):
    payload = {
        "command": "run",
        "grid": {"dim": 3, "n": 8},
        "model": {"alpha": 0.0, "a22": "1"},      # p missing
        "time": {"dt": "fast", "t_end": 0.01},
        "initial": {"u": "2*", "v": "1"},          # parse error
    }
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    text = "\n".join(err.value.errors)
    assert "grid.dim" in text
    assert "model.p is required" in text
    assert "time.dt must be a positive finite number" in text
    assert "initial.u" in text
    assert len(err.value.errors) >= 4

    # the simulation rules still run when the grid fails to parse
    payload = heat_run_config(tmp_path)
    payload["grid"]["dim"] = 3
    payload["time"]["cadence"] = 0
    payload["solver"] = {"tol": 2}
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert err.value.errors == ["grid.dim must be 1 or 2",
                                "time.cadence must be an integer >= 1",
                                "solver.tol must lie in (0, 1)"]


def test_json_syntax_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "command": run\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"JSON syntax error at line 2 column"):
        load_config(path)


def test_deep_validation_reaches_solver_invariants(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["initial"]["u"] = "cos(pi*x)"   # negative half-interval
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config(write_config(tmp_path, payload))


def test_deep_validation_reports_each_problem_once(tmp_path, capsys):
    payload = heat_run_config(tmp_path)
    payload["initial"]["u"] = "exp(1000*(x+1))"  # overflows to inf
    payload["time"]["cadence"] = True             # not an integer
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert err["message"].count("invalid configuration") == 1
    assert err["details"] == ["time.cadence must be an integer >= 1",
                              "field values must be finite"]


def test_non_finite_initial_data_are_rejected_at_load(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["initial"]["v"] = "1 + exp(800*x)"
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert err.value.errors == ["field values must be finite"]


def test_deep_validation_covers_perturbed_trajectory(tmp_path):
    payload = {
        "command": "stability",
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 1e-2},
        "initial": {"u": "1", "v": "0.5"},
        "stability": {"dv": "0 - cos(0*x) ", "amplitude": 1.0},
        "output": {"directory": str(tmp_path)},
    }
    # v + 1.0 * (-1) hits zero: the perturbed trajectory must be rejected
    with pytest.raises(ConfigError, match="perturbed data"):
        load_config(write_config(tmp_path, payload))


def _lipschitz_error(block):
    """The ValueError message of the probe itself on a coeffcheck block."""
    args = {key: value for key, value in block.items() if key != "f"}
    with pytest.raises(ValueError) as err:
        check_finite_gamma_lipschitz(parse(block["f"]), **args)
    return f"coeffcheck: {err.value}"


@pytest.mark.parametrize("command, blocks, expected", [
    ("run", {"time": {"dt": "fast", "t_end": 1e-2}},
     ["time.dt must be a positive finite number"]),
    ("run", {"time": {"dt": 1e-3, "t_end": "later"},
             "fenergy": {"gamma": "x", "ks": 1.0}},
     ["time.t_end must be finite and at least dt",
      "fenergy.gamma must be a positive number"]),
    ("run", {"initial": None},
     ["initial data (or a manufactured pair) is required"]),
    ("stability", {"initial": None},
     ["initial data (or a manufactured pair) is required"]),
    ("run", {"initial": {"u": "2*", "v": "1"}},
     ["initial.u: expected a number, variable or '(' (offset 2)"]),
    # None: the probe's own message on the same arguments
    ("check-coeffs", {"coeffcheck": {"f": "y^0.5", "gamma": -1}}, None),
    ("check-coeffs", {"coeffcheck": {"f": "y^0.5", "gamma": 1.5,
                                     "budget": 10}}, None),
    ("check-coeffs", {"coeffcheck": {"f": "x*y", "gamma": 1.5}}, None),
], ids=["dt", "t_end-and-fenergy", "run-without-initial",
        "stability-without-initial", "unparsable-initial",
        "coeffcheck-gamma", "coeffcheck-budget", "coeffcheck-f"])
def test_each_broken_field_is_reported_once(tmp_path, command, blocks,
                                            expected):
    payload = heat_run_config(tmp_path)
    if command == "check-coeffs":
        payload = {"output": payload["output"]}
    if command == "stability":
        payload["stability"] = {"du": "0.01*cos(pi*x)"}
    payload["command"] = command
    for name, value in blocks.items():
        if value is None:
            del payload[name]
        else:
            payload[name] = value
    if expected is None:
        expected = [_lipschitz_error(payload["coeffcheck"])]
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert err.value.errors == expected


@pytest.mark.parametrize("command", ["stability", "sweep"])
def test_paired_commands_reject_a_manufactured_pair_at_load(tmp_path, capsys,
                                                           command):
    # the manufactured pair would replace the base member's initial data and
    # force both members (stability would report E0 = 2.05 here, against
    # 5.1e-6 without the mms block), so a paired command reads no mms block
    amplitudes = {"amplitude": 1.0} if command == "stability" \
        else {"amplitudes": [1.0, 0.5]}
    payload = {
        "command": command,
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 1e-2},
        "initial": {"u": "1", "v": "1"},
        "stability": {"du": "0.01*cos(pi*x)", **amplitudes},
        "mms": {"u": "2 + exp(-t)*cos(pi*x)", "v": "2"},
        "output": {"directory": str(tmp_path / "paired")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert err["kind"] == "config"
    assert err["details"] == [f"'mms' is not read by {command}"]
    assert not (tmp_path / "paired").exists()


def _shipped(name, **blocks):
    """The shipped config `name` with a short horizon, if it has one, and
    the given blocks in place of its own."""
    payload = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    if "time" in payload:
        payload["time"]["t_end"] = 10 * payload["time"]["dt"]
    return {**payload, **blocks}


HEAT_DIRECTION = {"du": "cos(pi*x)", "dv": "0"}
SWEEP_DIRECTION = {"du": "cos(pi*x)", "dv": "cos(2*pi*x)"}
LIPSCHITZ_SQRT = {"f": "y^0.5", "gamma": 1.5, "a1": 1.0, "a2": 1.0}


# a block or key meant for another command must not leave the run on a
# default: heat_stability with amplitudes [0.5] would run at amplitude 1.0
@pytest.mark.parametrize("payload, details", [
    (_shipped("heat_stability",
              stability={**HEAT_DIRECTION, "amplitudes": [0.5]}),
     ["stability: unknown key 'amplitudes'"]),
    (_shipped("heat_stability", fenergy={"gamma": 1.0, "ks": 1.0}),
     ["'fenergy' is not read by stability"]),
    (_shipped("case2_sweep_1d", stability={
        **SWEEP_DIRECTION, "amplitudes": [0.01, 0.005, 0.0025],
        "amplitude": 0.5}),
     ["stability: unknown key 'amplitude'"]),
    (_shipped("case2_run_1d", stability={**HEAT_DIRECTION,
                                         "amplitude": 0.01}),
     ["'stability' is not read by run"]),
    (_shipped("case2_run_1d", coeffcheck=LIPSCHITZ_SQRT,
              poisson={"levels": [16, 32]}),
     ["'coeffcheck' is not read by run", "'poisson' is not read by run"]),
    (_shipped("mms_case2", initial={"u": "-1", "v": "1"},
              fenergy={"gamma": 1.0, "ks": 1.0}),
     ["'fenergy' is not read by mms", "'initial' is not read by mms"]),
    (_shipped("lipschitz_sqrt", time={"dt": 1e-3, "t_end": 1e-2},
              model={"preset": "case2", "chi": 0.25, "l": 0.5}),
     ["'model' is not read by check-coeffs",
      "'time' is not read by check-coeffs"]),
    (_shipped("mms_case2", time={"dt": 1e-3, "t_end": 2e-3, "cadence": 2}),
     ["time: unknown key 'cadence'"]),
    (_shipped("poisson_test", output={"directory": "poisson-test",
                                      "formats": ["json"]}),
     ["output: unknown key 'formats'"]),
], ids=["stability-amplitudes", "stability-fenergy", "sweep-amplitude",
        "run-stability", "run-coeffcheck-poisson", "mms-initial-fenergy",
        "check-coeffs-time-model", "mms-cadence", "poisson-test-formats"])
def test_a_block_or_key_the_command_does_not_read_is_rejected_naming_it(
        tmp_path, capsys, monkeypatch, payload, details):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert (err["kind"], err["details"]) == ("config", details)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, details", [
    (_shipped("heat_stability", stability={**HEAT_DIRECTION,
                                           "amplitude": -1}),
     ["stability.amplitude must be a finite, nonnegative number"]),
    (_shipped("heat_stability", stability={**HEAT_DIRECTION,
                                           "amplitude": [0.5]}),
     ["stability.amplitude must be a finite, nonnegative number"]),
    (_shipped("case2_sweep_1d", stability={**SWEEP_DIRECTION,
                                           "amplitudes": [0.01, -1]}),
     ["stability.amplitudes must be a nonempty list of finite, nonnegative "
      "numbers"]),
    (_shipped("case2_sweep_1d", stability={**SWEEP_DIRECTION,
                                           "amplitudes": [0.01, 0.02]}),
     ["stability.amplitudes must be strictly decreasing"]),
], ids=["stability-negative", "stability-list", "sweep-negative",
        "sweep-increasing"])
def test_an_amplitude_error_names_the_key_its_command_reads(
        tmp_path, capsys, monkeypatch, payload, details):
    # stability rejects the key amplitudes, so its errors name amplitude
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert (err["kind"], err["details"]) == ("config", details)


@pytest.mark.parametrize("name, command", [
    ("stability", "run"), ("mms", "run"), ("fenergy", "stability"),
    ("coeffcheck", "sweep"), ("initial", "mms"), ("solver", "check-coeffs"),
    ("grid", "check-coeffs"), ("model", "poisson-test")])
def test_a_null_block_the_command_does_not_require_is_absent(tmp_path, name,
                                                             command):
    config = {"run": "case2_run_1d", "stability": "heat_stability",
              "sweep": "case2_sweep_1d", "mms": "mms_case2",
              "check-coeffs": "lipschitz_sqrt",
              "poisson-test": "poisson_test"}[command]
    payload = _shipped(config, **{name: None})
    assert payload["command"] == command
    load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("config, name", [
    ("case2_sweep_1d", "stability"), ("heat_stability", "stability"),
    ("mms_case2", "mms"), ("lipschitz_sqrt", "coeffcheck"),
    ("case2_run_1d", "grid")])
def test_a_null_block_the_command_requires_is_reported_missing(
        tmp_path, config, name):
    payload = _shipped(config, **{name: None})
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert f"'{name}' block is required for {payload['command']}" \
        in err.value.errors


@pytest.mark.parametrize("block, given, field, default", [
    ("solver", {"tol": None}, "lin_tol", solver.SimConfig.lin_tol),
    ("time", {"dt": 0.00025, "t_end": 0.0025, "cadence": None},
     "output_every", solver.SimConfig.output_every)])
def test_a_null_key_is_absent(tmp_path, block, given, field, default):
    # as a null block is; these exited 1 with "solver.tol must lie in
    # (0, 1)" and "time.cadence must be an integer >= 1"
    payload = _shipped("case2_run_1d", **{block: given})
    cfg = load_config(write_config(tmp_path, payload))
    assert getattr(cfg.sim, field) == default


@pytest.mark.parametrize("model", [
    {"preset": "case2", "chi": 0.25, "l": 0.5},
    {"alpha": 1.0, "p": "v", "a12": "-0.25*u^2*v", "a22": "1",
     "r1_linear": "0.5*v", "r2_tilde": "-u*v"}])
def test_a_null_model_key_is_absent(tmp_path, model):
    # a null beta is the preset's default, a null r1_tilde the default 0
    null = {**model, ("beta" if "preset" in model else "r1_tilde"): None}
    loaded = [load_config(write_config(tmp_path, _shipped(
        "case2_run_1d", model=m))).sim.model for m in (model, null)]
    assert loaded[0] == loaded[1]


@pytest.mark.parametrize("block, given, detail", [
    ("solver", {"tolerance": None}, "solver: unknown key 'tolerance'"),
    ("model", {"preset": "case2", "chi": 0.25, "l": 0.5, "kappa": None},
     "model: unknown key 'kappa'"),
    ("model", {"alpha": 0.0, "p": "1", "a22": "1", "chi": None},
     "model: unknown key 'chi'")])
def test_an_unknown_null_key_is_still_rejected(tmp_path, block, given,
                                               detail):
    payload = _shipped("case2_run_1d", **{block: given})
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert err.value.errors == [detail]


# ---------------------------------------------------------------------------
# commands end to end


def test_run_command_writes_all_outputs(tmp_path, capsys):
    payload = {
        "command": "run",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.25, "l": 0.5},
        "time": {"dt": 5e-4, "t_end": 5e-3, "cadence": 5},
        "initial": {"u": "1 + 0.5*cos(pi*x)", "v": "1 + 0.2*cos(pi*x)"},
        "output": {"directory": str(tmp_path / "a")},
    }
    rc = main([str(write_config(tmp_path, payload))])
    assert rc == 0
    out = tmp_path / "a"
    diag = (out / "diagnostics.csv").read_text(encoding="utf-8")
    header = diag.splitlines()[0]
    assert header == ("t,mass_u,mass_v,min_u,max_u,min_v,max_v,max_grad_v,"
                      "cum_grad_u_sq,f_energy,clipped_mass")
    snapshots = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert snapshots == ["snapshot_0000.csv", "snapshot_0001.csv",
                         "snapshot_0002.csv"]
    assert (out / "snapshot_0000.csv").read_text(
        encoding="utf-8").splitlines()[0] == "x,u,v"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"t_end", "mass_u", "mass_v", "min_u", "min_v",
                            "clipped_mass", "reaction_mass"}
    assert summary["min_v"] > 0.0
    assert len(plot_lines(out / "plot.gp")) == 1

    # reruns are byte-identical
    payload["output"]["directory"] = str(tmp_path / "b")
    assert main([str(write_config(tmp_path, payload, "config2.json"))]) == 0
    for name in ["diagnostics.csv", "summary.json"] + snapshots + ["plot.gp"]:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_run_command_2d_snapshot_layout(tmp_path):
    payload = {
        "command": "run",
        "grid": {"dim": 2, "n": [6, 5], "L": [1.0, 1.0]},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 2e-3},
        "initial": {"u": "1 + 0.1*cos(pi*x)*cos(pi*y)", "v": "1"},
        "output": {"directory": str(tmp_path / "out2d")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    lines = (tmp_path / "out2d" / "snapshot_0000.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "x,y,u,v"
    assert len(lines) == 1 + 6 * 5


@pytest.mark.parametrize("grid", [{"dim": 1, "n": 7, "L": 1.3},
                                  {"dim": 2, "n": [6, 5], "L": [1.0, 0.7]}])
def test_snapshot_cells_are_plain_floats_equal_to_the_states(tmp_path, grid):
    payload = {
        "command": "run",
        "grid": grid,
        "model": {"preset": "case2", "chi": 0.25, "l": 0.5},
        "time": {"dt": 1e-3, "t_end": 3e-3, "cadence": 1},
        "initial": {"u": "1 + 0.3*cos(pi*x)", "v": "1 + 0.2*cos(pi*x)"},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, payload)
    assert main([str(path)]) == 0
    cfg = load_config(path)
    result = record(cfg.sim)
    coords = [c.ravel() for c in centers(cfg.sim.grid)]
    for k, state in enumerate(result.states):
        lines = (tmp_path / "out" / f"snapshot_{k:04d}.csv").read_text(
            encoding="utf-8").splitlines()[1:]
        cells = np.array([[float(c) for c in line.split(",")]
                          for line in lines])
        expected = np.stack(coords + [state.u.ravel(), state.v.ravel()],
                            axis=1)
        assert np.array_equal(cells, expected)


def one_shot_snapshot(grid, u, v) -> str:
    """A snapshot's text as one string, every cell's line made in full:
    its coordinates, u and v, each the repr of a Python float."""
    names = ("x", "y")[:grid.dim]
    axes = [[repr(c) for c in a.ravel().tolist()] for a in grid.axes.values()]
    lines = [",".join(names + ("u", "v"))] + [
        ",".join((*coords, repr(a), repr(b))) for coords, a, b in zip(
            itertools.product(*axes), u.ravel().tolist(), v.ravel().tolist(),
            strict=True)]
    return "\n".join(lines) + "\n"


CHUNK = cli.SNAPSHOT_CHUNK_CELLS


@pytest.mark.parametrize("n", [[CHUNK - 1], [CHUNK], [CHUNK + 1], [67, 61]])
def test_snapshots_written_by_chunk_are_the_one_shot_writers_bytes(tmp_path,
                                                                    n):
    # a chunk that ends mid-axis, or mid-row as 67 x 61 cells do, keeps
    # each cell's coordinates with its values
    payload = heat_run_config(tmp_path / "out", dt=1e-5, t_end=2e-5,
                              cadence=1)
    payload["grid"] = {"dim": len(n), "n": n, "L": [1.0, 0.7][:len(n)]}
    payload["initial"]["v"] = "1 + 0.2*cos(pi*x)"
    payload["output"]["formats"] = ["csv"]
    path = write_config(tmp_path, payload)
    assert main([str(path)]) == 0
    sim = load_config(path).sim
    states = record(sim).states
    assert len(states) == 3
    for k, state in enumerate(states):
        assert (tmp_path / "out" / f"snapshot_{k:04d}.csv").read_text(
            encoding="utf-8") == one_shot_snapshot(sim.grid, state.u, state.v)


# the shortest reprs, the longest, a signed zero, a subnormal, and the
# exponents where repr switches to scientific notation
EDGE_VALUES = [-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e22, 1.7976931348623157e308]


@pytest.mark.parametrize("shape", [(2,), (2, 1500), (1500, 2)])
def test_snapshot_text_is_the_one_shot_writers_text(shape):
    # 1500-cell rows are longer than a chunk; 2-cell rows end in every one
    grid = Grid(shape, (1.0, 0.7)[:len(shape)])
    u = np.resize(EDGE_VALUES, shape)
    v = np.resize(EDGE_VALUES[::-1] + [2.5], shape)
    chunks = list(cli._snapshot_text(grid, u, v))
    assert [chunk.count("\n") for chunk in chunks] == [
        min(CHUNK, u.size - start) for start in range(0, u.size, CHUNK)]
    # lists of lines: a mismatch reports its first line, not a text diff
    assert [",".join((*grid.axes, "u", "v"))] + "".join(chunks).splitlines() \
        == one_shot_snapshot(grid, u, v).splitlines()


def test_a_run_that_fails_keeps_the_snapshots_of_the_ticks_before(tmp_path,
                                                                  capsys):
    # one CG iteration cannot solve step 1: the t = 0 snapshot is on disk,
    # and neither the diagnostics nor the summary nor the plot script is
    payload = {
        "command": "run",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"alpha": 1.0, "p": "v", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 2e-3},
        "initial": {"u": "1 + 0.5*cos(pi*x) + 0.2*cos(3*pi*x)",
                    "v": "1 + 0.3*cos(2*pi*x)"},
        "solver": {"max_iter": 1, "tol": 1e-12},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, payload)
    assert main([str(path)]) == 2
    err = stderr_payload(capsys)
    assert err["code"] == 2 and err["kind"] == "numeric"
    assert err["message"].startswith("step 1 (t = 0.001): ")
    assert err["details"] == ["iterations: 1", "relative residual: 2.0e-03",
                              "members: 0"]
    sim = load_config(path).sim
    u0, v0 = sim.initial_fields()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) \
        == ["snapshot_0000.csv"]
    assert (tmp_path / "out" / "snapshot_0000.csv").read_text(
        encoding="utf-8") == one_shot_snapshot(sim.grid, u0, v0)


def test_a_runs_memory_does_not_grow_with_its_snapshot_count(tmp_path):
    # 20 steps of 64^2 cells with 2 ticks, then with 21: the heap peaks of
    # the two runs differ by less than one snapshot's u and v
    grid = {"dim": 2, "n": 64, "L": 1.0}
    peaks = []
    for cadence in (20, 20, 1):  # the first run warms the caches
        payload = heat_run_config(tmp_path / f"out{len(peaks)}", dt=1e-4,
                                  t_end=2e-3, cadence=cadence)
        payload["grid"] = grid
        path = write_config(tmp_path, payload)
        tracemalloc.start()
        try:
            assert main([str(path)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    snapshots = [len(list((tmp_path / f"out{i}").glob("snapshot_*.csv")))
                 for i in (1, 2)]
    assert snapshots == [2, 21]
    assert abs(peaks[2] - peaks[1]) < 2 * 64 * 64 * 8


def test_formatted_writes_numpy_scalars_as_python_numbers():
    rows = [(np.float64(0.1), np.int64(3), 2, 0.25, np.float32(0.5))]
    assert list(cli._formatted(rows)) == ["0.1,3,2,0.25,0.5\n"]


def _numbers(value):
    """Every number in a loaded JSON value, bools and nulls left out."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []


@pytest.mark.parametrize("name", sorted(
    path.stem for path in CONFIG_DIR.glob("*.json")
    if json.loads(path.read_text(encoding="utf-8"))["command"]
    in ("run", "stability", "sweep", "mms")))
def test_shipped_artifacts_hold_plain_numbers(tmp_path, name):
    # a numpy scalar written with repr would read np.float64(...): every
    # CSV cell must parse as a number, and every summary value be a float
    out = tmp_path / name
    assert main([str(CONFIG_DIR / f"{name}.json"),
                 "--output-dir", str(out)]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert rows, path.name
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header.split(",")), path.name
            for cell in cells:
                float(cell)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    numbers = _numbers(summary)
    assert numbers and all(type(x) is float for x in numbers), summary


def test_run_format_subsets(tmp_path):
    payload = heat_run_config(tmp_path / "json_only")
    payload["output"]["formats"] = ["json"]
    assert main([str(write_config(tmp_path, payload))]) == 0
    out = tmp_path / "json_only"
    assert (out / "summary.json").exists()
    assert not (out / "diagnostics.csv").exists()
    assert not (out / "plot.gp").exists()

    payload = heat_run_config(tmp_path / "csv_gp")
    payload["output"]["formats"] = ["csv", "gnuplot"]
    assert main([str(write_config(tmp_path, payload, "c2.json"))]) == 0
    out = tmp_path / "csv_gp"
    assert (out / "diagnostics.csv").exists()
    assert (out / "plot.gp").exists()
    assert not (out / "summary.json").exists()


NO_CSV = "output.formats: gnuplot requires csv (plot.gp plots the CSVs)"


@pytest.mark.parametrize("formats, detail", [
    (["gnuplot"], NO_CSV), (["json", "gnuplot"], NO_CSV),
    ([], "output.formats must name at least one format"),
], ids=["gnuplot", "json-gnuplot", "none"])
def test_formats_that_leave_nothing_or_no_csv_to_plot_are_rejected(
        tmp_path, capsys, formats, detail):
    payload = heat_run_config(tmp_path / "out")
    payload["output"]["formats"] = formats
    assert main([str(write_config(tmp_path, payload))]) == 1
    assert stderr_payload(capsys)["details"] == [detail]
    assert not (tmp_path / "out").exists()


def test_reports_are_written_whatever_the_formats(tmp_path, capsys):
    # check-coeffs and poisson-test always write their one JSON report, so
    # they read no output.formats and reject one
    payload = {"command": "poisson-test", "grid": {"dim": 1, "n": 8},
               "poisson": {"levels": [16, 32]},
               "output": {"directory": str(tmp_path / "out")}}
    assert main([str(write_config(tmp_path, payload))]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["poisson.json"]
    payload["output"]["formats"] = ["csv"]
    assert main([str(write_config(tmp_path, payload))]) == 1
    assert stderr_payload(capsys)["details"] == [
        "output: unknown key 'formats'"]


def test_stability_command_outputs(tmp_path):
    payload = {
        "command": "stability",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 1e-2, "cadence": 1},
        "initial": {"u": "1.5", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitude": 0.01},
        "output": {"directory": str(tmp_path / "stab")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    out = tmp_path / "stab"
    lines = (out / "stability.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,E,comp_mass,comp_hm1,comp_v,D,cumD"
    assert len(lines) == 1 + 11
    assert (out / "gronwall.csv").read_text(
        encoding="utf-8").splitlines()[0] == "t,balance,balance_dissipative"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"E0", "supE", "C_hat", "lambda_hat",
                            "energy_identity_residual", "gronwall_defect",
                            "gronwall_defect_dissipative",
                            "gronwall_constant", "c0", "v_min", "v_max"}
    assert summary["E0"] > 0.0
    assert summary["lambda_hat"] == pytest.approx(-2 * math.pi ** 2,
                                                  rel=5e-2)
    assert summary["energy_identity_residual"] is not None
    assert len(plot_lines(out / "plot.gp")) == 3


def test_stability_zero_direction_and_coarse_cadence(tmp_path):
    payload = {
        "command": "stability",
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 4e-3, "cadence": 2},
        "initial": {"u": "1", "v": "1"},
        "stability": {"amplitude": 1.0},
        "output": {"directory": str(tmp_path / "zero")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    summary = json.loads((tmp_path / "zero" / "summary.json").read_text(
        encoding="utf-8"))
    assert summary["supE"] == 0.0
    assert summary["energy_identity_residual"] is None  # coarse cadence


def test_sweep_command_outputs(tmp_path):
    payload = {
        "command": "sweep",
        "grid": {"dim": 1, "n": 24, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 5e-3, "cadence": 5},
        "initial": {"u": "1.5", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitudes": [1e-2, 1e-3]},
        "output": {"directory": str(tmp_path / "sweep")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    out = tmp_path / "sweep"
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "amplitude,q0,E0,supE,ratio,C_hat,lambda_hat"
    assert len(lines) == 3
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"ratio_min", "ratio_max", "spread", "bounded"}
    assert summary["bounded"] is True
    assert summary["spread"] <= 1.0 + 1e-6
    assert len(plot_lines(out / "plot.gp")) == 1


def test_sweep_rejects_bad_amplitudes(tmp_path):
    payload = {
        "command": "sweep",
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 5e-3},
        "initial": {"u": "1.5", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitudes": [1e-3, 1e-2]},
        "output": {"directory": str(tmp_path)},
    }
    with pytest.raises(ConfigError, match="strictly decreasing"):
        load_config(write_config(tmp_path, payload))


def test_mms_command_orders(tmp_path):
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 2e-3, "t_end": 0.02},
        "mms": {"u": "2 + exp(-t)*cos(pi*x)",
                "v": "2 + 0.5*exp(-t)*cos(pi*x)",
                "levels": [8, 16]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    out = tmp_path / "mms"
    lines = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("n,h,dt,l2_error_u,l2_error_v,order_u_space,"
                        "order_v_space,order_u_time,order_v_time")
    assert len(lines) == 3
    assert "nan" in lines[1]  # no order on the coarsest level
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"spatial_order_u", "spatial_order_v",
                            "temporal_order_u", "temporal_order_v"}
    assert 1.5 <= summary["spatial_order_u"] <= 2.5
    assert 0.75 <= summary["temporal_order_u"] <= 1.25
    assert len(plot_lines(out / "plot.gp")) == 1


def test_a_y_free_pair_on_a_2d_grid_is_forced_on_one_column(tmp_path,
                                                            monkeypatch):
    # x is bound as a column of n0 centres and y as a row of n1, so the
    # forcing of a pair without y comes in rows of shape (n0, 1)
    shapes = set()
    rows = solver.Simulation._forcing_rows

    def recorded(sim, times):
        for t, forcing in rows(sim, times):
            shapes.add((sim.grid.shape, tuple(map(np.shape, forcing))))
            yield t, forcing
    monkeypatch.setattr(solver.Simulation, "_forcing_rows", recorded)
    payload = json.loads(MMS_2D_CONFIG.read_text(encoding="utf-8"))
    payload["mms"]["u"] = "2 + 0.5*exp(-t)*cos(pi*x)"
    payload["output"]["directory"] = str(tmp_path / "mms")
    assert main([str(write_config(tmp_path, payload))]) == 0
    assert shapes == {((n, n), ((n, 1), (n, 1))) for n in (8, 16, 32)}
    summary = json.loads((tmp_path / "mms" / "summary.json").read_text(
        encoding="utf-8"))
    for key in ("spatial_order_u", "spatial_order_v"):
        assert 1.8 <= summary[key] <= 2.2
    for key in ("temporal_order_u", "temporal_order_v"):
        assert 0.8 <= summary[key] <= 1.2


def test_mms_validates_each_level_and_names_it(tmp_path, capsys):
    # u* is positive at the 32 cell centres, but its last cell at n = 64
    # (x = 1 - 1/128) has u* = 0.9995 - cos(pi/128) < 0
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 0.002, "t_end": 0.02},
        "mms": {"u": "0.9995 + exp(-t)*cos(pi*x)",
                "v": "2 + 0.5*exp(-t)*cos(pi*x)",
                "levels": [32, 64, 128]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert err["kind"] == "config"
    assert err["message"] == ("level n = 64: invalid configuration: "
                              "initial u must be nonnegative")


def test_mms_validates_every_level_before_stepping_any(tmp_path, capsys,
                                                       monkeypatch):
    # the repro above: n = 64 breaks a rule, so n = 32 must not step first
    steps = []
    monkeypatch.setattr(solver.Simulation, "step",
                        lambda sim, *args: steps.append(sim.grid.shape))
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 0.002, "t_end": 0.02},
        "mms": {"u": "0.9995 + exp(-t)*cos(pi*x)",
                "v": "2 + 0.5*exp(-t)*cos(pi*x)",
                "levels": [32, 64, 128]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 1
    err = stderr_payload(capsys)
    assert err["kind"] == "config"
    assert err["message"].startswith("level n = 64: ")
    assert steps == []


def test_mms_numeric_failure_names_its_level(tmp_path, capsys):
    # x^2 is no Neumann eigenmode, so one CG iteration cannot solve a step
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 2e-3, "t_end": 0.02},
        "mms": {"u": "2 + exp(-t)*x*x",
                "v": "2 + 0.5*exp(-t)*x*x",
                "levels": [8, 16]},
        "solver": {"max_iter": 1, "tol": 1e-12},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 2
    err = stderr_payload(capsys)
    assert err["kind"] == "numeric"
    assert err["message"].startswith("level n = 8: step 1 (t = 0.002): ")


def test_mms_forcing_failing_on_the_cells_names_its_level(tmp_path, capsys):
    # S1 holds |x - 17/32|^-0.5, which depends on the cells alone; 17/32 is
    # a cell centre at n = 16, not at n = 8, so the n = 16 level fails on
    # every step time, and the first step, evaluating its own forcing after
    # its block failed, names itself
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 2e-3, "t_end": 0.02},
        "mms": {"u": "2 + abs(x - 0.53125)^1.5",
                "v": "2 + 0.5*exp(-t)*cos(pi*x)",
                "levels": [8, 16]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 2
    err = stderr_payload(capsys)
    assert err["kind"] == "numeric"
    assert err["message"] == (
        "level n = 16: step 1 (t = 0.0005): zero base with a negative "
        "exponent in '(abs((x - 0.53125)) ^ (-0.5))'")


def test_mms_reproducing_the_pair_exactly_writes_nan_orders(tmp_path):
    # the scheme reproduces a constant pair exactly at n = 8, so that
    # level's error is 0 and its orders are undefined, as the coarsest
    # level's are
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.05, "l": 0.5},
        "time": {"dt": 0.01, "t_end": 0.02},
        "mms": {"u": "2", "v": "2", "levels": [8, 16]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    out = tmp_path / "mms"
    rows = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3
    assert [float(e) for e in rows[1].split(",")[3:5]] == [0.0, 0.0]
    assert all(math.isnan(float(o)) for row in rows[1:]
               for o in row.split(",")[5:])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert all(math.isnan(order) for order in summary.values())


def test_mms_forcing_failing_inside_a_block_fails_at_its_step(
        tmp_path, capsys, monkeypatch):
    # S1 divides by |t - 0.005|, which is 0 at step 5 alone; the 10 steps of
    # level 8 form one block of forcing times, whose evaluation fails, and
    # the steps before step 5 still run
    done = []
    step = solver.Simulation.step

    def counted(sim, *args):
        step(sim, *args)
        done.append((sim.grid.shape, sim.steps))
    monkeypatch.setattr(solver.Simulation, "step", counted)
    payload = {
        "command": "mms",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.05, "l": 0.5},
        "time": {"dt": 0.001, "t_end": 0.01},
        "mms": {"u": "2 + 0.1*sqrt((t - 0.005)^2)*cos(pi*x)",
                "v": "2 + 0.1*cos(pi*x)",
                "levels": [8, 16]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 2
    err = stderr_payload(capsys)
    assert err["kind"] == "numeric"
    assert err["message"] == (
        "level n = 8: step 5 (t = 0.005): division by zero in "
        "'((2.0 * (t - 0.005)) / (2.0 * sqrt(((t - 0.005) ^ 2.0))))'")
    assert done == [((8,), k) for k in range(1, 5)]


def test_mms_evaluates_the_forcing_once_per_block_of_steps(tmp_path,
                                                           monkeypatch):
    # the mms_case2 shape steps 100, 400 and 1600 times at n = 32, 64 and
    # 128, in blocks of 4096 // n = 128, 64 and 32 step times
    calls = []
    call = Program.__call__

    def counted(program, bindings):
        if isinstance(bindings.get("t"), np.ndarray):  # a block of times
            calls.append(id(program))
        return call(program, bindings)
    monkeypatch.setattr(Program, "__call__", counted)
    assert main([str(CONFIG_DIR / "mms_case2.json"),
                 "--output-dir", str(tmp_path / "mms")]) == 0
    # the levels run in turn, each with its own program
    assert [len(list(run)) for _, run in itertools.groupby(calls)] \
        == [1, 7, 50]


def test_check_coeffs_command(tmp_path):
    payload = {
        "command": "check-coeffs",
        "coeffcheck": {"f": "y^0.5", "gamma": 1.5, "budget": 2000},
        "output": {"directory": str(tmp_path / "cc")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    verdict = json.loads((tmp_path / "cc" / "lipschitz.json").read_text(
        encoding="utf-8"))
    assert verdict["verdict"] == "diverging"
    assert verdict["witness_pair"] is not None
    payload["coeffcheck"]["budget"] = 500
    with pytest.raises(ConfigError, match="budget"):
        load_config(write_config(tmp_path, payload, "c2.json"))


def test_poisson_test_command(tmp_path):
    payload = {
        "command": "poisson-test",
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "poisson": {"levels": [16, 32]},
        "output": {"directory": str(tmp_path / "po")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    report = json.loads((tmp_path / "po" / "poisson.json").read_text(
        encoding="utf-8"))
    assert [lvl["n"] for lvl in report["levels"]] == [16, 32]
    assert report["observed_order"] == pytest.approx(2.0, abs=0.3)
    assert report["poincare_relative_error"] < 0.02
    assert all(lvl["iterations"] <= 5 for lvl in report["levels"])


def test_poisson_test_orders_follow_the_level_ratio(tmp_path):
    # levels that do not double: the order divides by log(n / n_prev)
    payload = {
        "command": "poisson-test",
        "grid": {"dim": 1, "n": 144, "L": 1.0},
        "poisson": {"levels": [64, 96, 144]},
        "output": {"directory": str(tmp_path / "po")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    report = json.loads((tmp_path / "po" / "poisson.json").read_text(
        encoding="utf-8"))
    assert len(report["orders"]) == 2
    assert all(1.9 <= order <= 2.1 for order in report["orders"])


def test_poisson_test_command_at_large_levels(tmp_path):
    payload = {
        "command": "poisson-test",
        "grid": {"dim": 1, "n": 1024, "L": 1.0},
        "poisson": {"levels": [256, 512, 1024]},
        "output": {"directory": str(tmp_path / "po")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    report = json.loads((tmp_path / "po" / "poisson.json").read_text(
        encoding="utf-8"))
    assert len(report["orders"]) == 2
    assert all(1.8 <= order <= 2.2 for order in report["orders"])
    assert report["poincare_relative_error"] < 0.02


# ---------------------------------------------------------------------------
# plots, exit codes, environment


def test_emit_plots_empty_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="stability.csv"):
        emit_plots(tmp_path)


def test_missing_config_file_exits_3(tmp_path, capsys):
    rc = main([str(tmp_path / "absent.json")])
    assert rc == 3
    err = stderr_payload(capsys)
    assert err["code"] == 3
    assert err["kind"] == "io"


def test_config_error_exits_1_with_details(tmp_path, capsys):
    payload = heat_run_config(tmp_path)
    payload["time"]["dt"] = "fast"
    rc = main([str(write_config(tmp_path, payload))])
    assert rc == 1
    err = stderr_payload(capsys)
    assert err["code"] == 1
    assert err["kind"] == "config"
    assert any("time.dt" in d for d in err["details"])


def test_a_warning_is_one_json_line_without_a_source_path(tmp_path, capsys):
    payload = {
        "command": "run",
        "grid": {"dim": 1, "n": 64, "L": 1.0},
        "model": {"preset": "case2", "chi": 5.0, "l": 1.0},
        "time": {"dt": 1e-2, "t_end": 1e-2},
        "initial": {"u": "1", "v": "1 + 0.5*cos(pi*x)"},
        "output": {"directory": str(tmp_path / "warn")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    err = capsys.readouterr().err
    message = ("dt = 0.01 exceeds the explicit cross-diffusion guideline "
               "h^2/max|A12 grad v| = 2.82464e-05; expect instability or "
               "positivity loss")
    assert err == json.dumps({"warning": {"kind": "RuntimeWarning",
                                          "message": message}},
                             sort_keys=True) + "\n"
    assert ".py:" not in err


def test_a_failed_hminus1_cross_check_exits_2(tmp_path, capsys, monkeypatch):
    # every tick of a dense pair solves for dpsi and checks its duality
    off_spectrum(monkeypatch)
    payload = {
        "command": "stability",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 5e-3, "cadence": 1},
        "initial": {"u": "1.5", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitude": 0.01},
        "output": {"directory": str(tmp_path / "pair")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)["error"]
    assert err["code"] == 2 and err["kind"] == "numeric"
    assert err["message"].startswith("H^-1 cross-check failed")


def test_a_failed_hminus1_cross_check_in_a_sweep_exits_2(tmp_path, capsys,
                                                        monkeypatch):
    # a sweep solves for every member's dpsi at once; any failing member
    # fails the run
    off_spectrum(monkeypatch)
    payload = {
        "command": "sweep",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 5e-3, "cadence": 5},
        "initial": {"u": "1.5", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitudes": [1e-2, 1e-3, 0.0]},
        "output": {"directory": str(tmp_path / "sweep")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)["error"]
    assert err["code"] == 2 and err["kind"] == "numeric"
    assert err["message"].startswith("H^-1 cross-check failed")


def test_runtime_positivity_failure_exits_2(tmp_path, capsys):
    payload = {
        "command": "run",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1", "r2_tilde": "-10"},
        "time": {"dt": 0.2, "t_end": 0.4},
        "initial": {"u": "1", "v": "1"},
        "output": {"directory": str(tmp_path / "boom")},
    }
    rc = main([str(write_config(tmp_path, payload))])
    assert rc == 2
    err = stderr_payload(capsys)
    assert err["kind"] == "numeric"
    assert "step 1" in err["message"]


def test_a_positivity_failure_details_its_failing_members(tmp_path, capsys):
    # r2_tilde = -10 drains v below zero in step 1, in the reference and
    # in the perturbed trajectory alike
    payload = {
        "command": "stability",
        "grid": {"dim": 1, "n": 8, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1", "r2_tilde": "-10"},
        "time": {"dt": 0.2, "t_end": 0.4},
        "initial": {"u": "1", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitude": 1e-2},
        "output": {"directory": str(tmp_path / "boom")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 2
    err = stderr_payload(capsys)
    assert err["kind"] == "numeric"
    assert "positivity lost in the v step" in err["message"]
    assert err["details"] == ["members: 0, 1"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_finite_step_data_exit_2(tmp_path, capsys, command):
    # R~2 overflows at u = 1: the v solve must refuse at once
    payload = {
        "command": command,
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1",
                  "r2_tilde": "exp(1000*u)"},
        "time": {"dt": 1e-3, "t_end": 2e-3},
        "initial": {"u": "1", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitudes": [1e-2, 1e-3]},
        "output": {"directory": str(tmp_path / "inf")},
    }
    if command == "run":
        del payload["stability"]
    assert main([str(write_config(tmp_path, payload))]) == 2
    err = stderr_payload(capsys)
    assert err["kind"] == "numeric"
    assert "step 1 (t = 0.001): v solve:" in err["message"]
    assert "not finite" in err["message"]


def test_sweep_step_failure_names_step_time_and_solve(tmp_path, capsys):
    payload = {
        "command": "sweep",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"alpha": 1.0, "p": "v", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 2e-3},
        "initial": {"u": "1 + 0.5*cos(pi*x) + 0.2*cos(3*pi*x)",
                    "v": "1 + 0.3*cos(2*pi*x)"},
        "stability": {"du": "cos(pi*x)", "amplitudes": [1e-2, 1e-3]},
        "solver": {"max_iter": 1, "tol": 1e-12},
        "output": {"directory": str(tmp_path / "ctx")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 2
    err = stderr_payload(capsys)
    assert err["kind"] == "numeric"
    # led by the labels of the members the failed solve names
    assert err["message"].startswith(
        "base trajectory and amplitude 0.01 and amplitude 0.001: step 1 "
        "(t = 0.001): u solve: CG did not reach tol 1e-12 in 1 iterations")
    assert err["details"][0] == "iterations: 1"
    assert err["details"][2:] == ["members: 0, 1, 2"]


def test_sweep_checks_model_positivity_once_at_load_and_once_to_run(
        tmp_path, monkeypatch):
    calls = []
    original = CoefficientModel.check_positivity

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(CoefficientModel, "check_positivity", counted)
    payload = {
        "command": "sweep",
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.25, "l": 0.5},
        "time": {"dt": 1e-3, "t_end": 2e-3},
        "initial": {"u": "1 + 0.5*cos(pi*x)", "v": "1 + 0.1*cos(pi*x)"},
        "stability": {"du": "cos(pi*x)", "dv": "cos(2*pi*x)",
                      "amplitudes": [1e-2, 5e-3, 2.5e-3]},
        "output": {"directory": str(tmp_path / "count")},
    }
    assert main([str(write_config(tmp_path, payload))]) == 0
    assert len(calls) == 2


def test_output_root_env_prefixes_relative_directories(tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSDIFF_OUTPUT_ROOT", str(tmp_path / "root"))
    payload = heat_run_config("rel_out")
    payload["output"]["formats"] = ["json"]
    assert main([str(write_config(tmp_path, payload))]) == 0
    assert (tmp_path / "root" / "rel_out" / "summary.json").exists()


def test_output_dir_flag_overrides_config(tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSDIFF_OUTPUT_ROOT", str(tmp_path / "root"))
    payload = heat_run_config("ignored")
    payload["output"]["formats"] = ["json"]
    target = tmp_path / "explicit"
    rc = main([str(write_config(tmp_path, payload)),
               "--output-dir", str(target)])
    assert rc == 0
    assert (target / "summary.json").exists()
    assert not (tmp_path / "root" / "ignored").exists()


def test_sweep_accepts_jobs_flag(tmp_path):
    payload = {
        "command": "sweep",
        "grid": {"dim": 1, "n": 16, "L": 1.0},
        "model": {"alpha": 0.0, "p": "1", "a22": "1"},
        "time": {"dt": 1e-3, "t_end": 4e-3, "cadence": 4},
        "initial": {"u": "1.5", "v": "1"},
        "stability": {"du": "cos(pi*x)", "amplitudes": [1e-2, 1e-3]},
        "output": {"directory": str(tmp_path / "psweep")},
    }
    rc = main([str(write_config(tmp_path, payload))])
    assert rc == 0
    assert (tmp_path / "psweep" / "sweep.csv").exists()


def test_artifact_digests_script_is_reproducible():
    path = CONFIG_DIR.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    configs = [CONFIG_DIR / "lipschitz_sqrt.json",
               CONFIG_DIR / "poisson_test.json"]
    first = script.digests(configs)
    assert first == script.digests(configs)
    assert sorted(first) == [
        f"{name}/{entry}" for name, files in (
            ("lipschitz_sqrt", ["lipschitz.json"]),
            ("poisson_test", ["poisson.json"]))
        for entry in sorted([":exit", ":stderr", ":stdout"] + files)]
    assert first["poisson_test/:exit"] == "0"


def test_artifact_digests_check_names_the_keys_that_differ(tmp_path,
                                                          capsys):
    path = CONFIG_DIR.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    config = str(CONFIG_DIR / "poisson_test.json")
    assert script.main([config]) == 0
    saved = tmp_path / "digests.json"
    saved.write_text(capsys.readouterr().out, encoding="utf-8")
    assert script.main(["--check", str(saved), config]) == 0
    assert capsys.readouterr().out == ""
    digests = json.loads(saved.read_text(encoding="utf-8"))
    digests["poisson_test/poisson.json"] = "0" * 64
    digests["gone/summary.json"] = "0" * 64
    saved.write_text(json.dumps(digests), encoding="utf-8")
    assert script.main(["--check", str(saved), config]) == 1
    assert capsys.readouterr().out.split() == [
        "gone/summary.json", "poisson_test/poisson.json"]


def test_artifact_digests_diff_sizes_the_values_that_differ(tmp_path,
                                                           capsys):
    path = CONFIG_DIR.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    files = {
        "run/stability.csv": ("t,E\n0.0,1.5\n0.1,2.0\n0.2,4.0\n",
                              "t,E\n0.0,1.5000000000000002\n0.1,2.0\n"
                              "0.2,3.9999\n"),
        "run/summary.json": ('{"E0": 2.0, "rows": [1, -0.0], "ok": true}',
                             '{"E0": 2.0, "rows": [1, 0.0], "ok": false}'),
        "run/plot.gp": ("set title A\n", "set title B\n"),
        "run/same.csv": ("x\n1\n", "x\n1\n"),
        "only_a.csv": ("1\n", None),
    }
    trees = tmp_path / "a", tmp_path / "b"
    for name, texts in files.items():
        for tree, text in zip(trees, texts):
            if text is not None:
                (tree / name).parent.mkdir(parents=True, exist_ok=True)
                (tree / name).write_text(text, encoding="utf-8")
    assert script.main(["--diff", str(trees[0]), str(trees[0])]) == 0
    assert capsys.readouterr().out == ""
    assert script.main(["--diff", *map(str, trees)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only_a.csv: only in {trees[0]}",
        "run/plot.gp: 0 numbers differ, largest relative 0.00e+00, largest "
        "absolute 0.00e+00; 1 other differences, first 'set title A' vs "
        "'set title B'",
        "run/stability.csv: 2 numbers differ, largest relative 2.50e-05, "
        "largest absolute 1.00e-04",
        "run/summary.json: 1 numbers differ, largest relative 0.00e+00, "
        "largest absolute 0.00e+00; 1 other differences, first /ok: true "
        "vs false"]


def test_artifact_digests_keep_the_run_directories(tmp_path, capsys):
    path = CONFIG_DIR.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    config = str(CONFIG_DIR / "poisson_test.json")
    assert script.main([config]) == 0
    printed = capsys.readouterr().out
    assert script.main(["--keep", str(tmp_path / "kept"), config]) == 0
    assert capsys.readouterr().out == printed
    report = tmp_path / "kept" / "poisson_test" / "poisson.json"
    assert json.loads(printed)["poisson_test/poisson.json"] \
        == hashlib.sha256(report.read_bytes()).hexdigest()
    with pytest.raises(FileExistsError):  # stale files would be digested
        script.main(["--keep", str(tmp_path / "kept"), config])


def test_artifact_digests_default_to_the_shipped_and_test_configs(
        monkeypatch, capsys):
    path = CONFIG_DIR.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seen = []
    monkeypatch.setattr(script, "digests",
                        lambda configs: seen.extend(configs) or {})
    assert script.main([]) == 0
    data = sorted(OPERATORS_CONFIG.parent.glob("*.json"))
    assert OPERATORS_CONFIG in data and MMS_2D_CONFIG in data
    assert seen == sorted(CONFIG_DIR.glob("*.json")) + data


def test_artifacts_are_the_recorded_digests(capsys):
    # every artifact of the shipped configs and the test-data studies, byte
    # for byte as recorded; a change meant to move science bytes re-records
    # tests/artifact_digests.json with --record and says why
    path = CONFIG_DIR.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded = CONFIG_DIR.parent / "tests" / "artifact_digests.json"

    def items(provenance):  # one item per entry of a list
        return {f"{key}={value}" for key, values in provenance.items()
                for value in (values if isinstance(values, list)
                              else [values])}
    then = items(json.loads(recorded.read_text(encoding="utf-8"))
                 ["provenance"])
    now = items(script.provenance())
    if then != now:  # library versions and SIMD paths change last bits
        pytest.skip(f"recorded with {sorted(then - now)}, running with "
                    f"{sorted(now - then)}")
    assert script.main(["--check", str(recorded)]) == 0, \
        capsys.readouterr().out
    assert capsys.readouterr().out == ""


def test_a_model_using_every_function_converges_at_its_orders(tmp_path):
    # the one config that byte-compares every function of the grammar
    # across checkouts (in scripts/artifact_digests.py's default set)
    text = OPERATORS_CONFIG.read_text(encoding="utf-8")
    assert set(re.findall(r"([a-z]+)\(", text)) == set(exprs.FUNCTIONS)
    assert main([str(OPERATORS_CONFIG), "--output-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text("utf-8"))
    assert 1.8 <= summary["spatial_order_u"] <= 2.2
    assert 1.8 <= summary["spatial_order_v"] <= 2.2
    assert 0.8 <= summary["temporal_order_u"] <= 1.2
    assert 0.8 <= summary["temporal_order_v"] <= 1.2
