"""Command-line driver: config loading, commands, outputs, exit codes."""

import json
import math

import numpy as np
import pytest

from crossdiff import solver
from crossdiff.cli import (ConfigError, emit_plots, load_config, main)
from crossdiff.exprs import evaluate


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
    assert evaluate(cfg.model.q_lower, {"v": 3.0}) == 1.0
    assert evaluate(cfg.model.a12, {"u": 2.0, "v": 3.0}) == 0.0
    assert cfg.formats == ("csv", "json", "gnuplot")
    assert cfg.cadence == 2


def test_q_lower_required_when_a22_depends_on_u(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["model"] = {"alpha": 0.0, "p": "1", "a22": "1 + u"}
    with pytest.raises(ConfigError, match="q_lower is required"):
        load_config(write_config(tmp_path, payload))


def test_preset_accepts_case_string_and_int(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["model"] = {"preset": "case2", "chi": 0.25, "l": 0.5}
    cfg = load_config(write_config(tmp_path, payload))
    assert cfg.model.alpha == 1.0
    assert evaluate(cfg.model.a12, {"u": 2.0, "v": 3.0}) == -3.0
    payload["model"] = {"preset": 2, "chi": 0.25, "l": 0.5}
    cfg2 = load_config(write_config(tmp_path, payload))
    assert cfg2.model == cfg.model


def test_preset_rejects_low_beta(tmp_path):
    payload = heat_run_config(tmp_path)
    payload["model"] = {"preset": "case1", "chi": 0.25, "beta": 1.0}
    with pytest.raises(ConfigError, match="3/2"):
        load_config(write_config(tmp_path, payload))


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
    assert "time.dt must be a number" in text
    assert "initial.u" in text
    assert len(err.value.errors) >= 4


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
    result = solver.run(cfg.to_sim_config(), validate=False)
    coords = [c.ravel() for c in cfg.grid.centers()]
    for k, state in enumerate(result.states):
        lines = (tmp_path / "out" / f"snapshot_{k:04d}.csv").read_text(
            encoding="utf-8").splitlines()[1:]
        cells = np.array([[float(c) for c in line.split(",")]
                          for line in lines])
        expected = np.stack(coords + [state.u.values.ravel(),
                                      state.v.values.ravel()], axis=1)
        assert np.array_equal(cells, expected)


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
