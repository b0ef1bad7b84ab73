"""Structure of the package source: no function in src/ serves tests only,
every target the benchmark's tracer wraps exists, and a traced run yields
every per-layer metric the benchmark declares."""

import ast
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import crossdiff

SOURCE = Path(crossdiff.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# exprs.evaluate is the target that perfbench/tracing.py wraps for its
# expression layer; nothing in the package calls it, but the tracer reports
# that layer absent without it
ALLOWED_UNUSED = {"exprs.evaluate"}


def unused_functions(source: Path) -> list:
    """The non-dunder functions and methods of source/*.py, as module.name,
    whose name no module reads outside the function's own definition; the
    re-exports of __init__.py do not count as a use."""
    defs, uses = [], []
    for path in sorted(source.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, node))
            elif module == "__init__":
                continue
            elif isinstance(node, ast.Name):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
    return sorted(
        f"{module}.{node.name}" for module, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(name == node.name and not (
            where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in uses))


def test_every_function_in_src_is_used_in_src():
    # a function only the tests call belongs in the tests
    assert unused_functions(SOURCE) == sorted(ALLOWED_UNUSED)


def test_the_scan_counts_neither_re_exports_nor_self_reads(tmp_path):
    # lonely is only re-exported and selfish only reads itself; recursive
    # reads itself too, but b calls it, and it calls used
    (tmp_path / "__init__.py").write_text(
        "from .a import used, recursive, selfish, lonely\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "def selfish(n):\n    return selfish(n - 1) if n else 0\n\n"
        "class K:\n    def lonely(self):\n        return 2\n\n"
        "    def __len__(self):\n        return 0\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import recursive\n\nrecursive(3)\n", encoding="utf-8")
    assert unused_functions(tmp_path) == ["a.lonely", "a.selfish"]


def _tracing():
    """perfbench/tracing.py as a module, executed from its text so that
    nothing is written next to it."""
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_target_the_tracer_wraps_exists():
    # a missing target drops its layer's metrics from a traced benchmark run
    # without failing it
    tracing = _tracing()
    assert [target for targets in tracing.LAYERS.values()
            for target in targets if tracing._resolve(target) is None] == []


def test_the_tracer_installs_every_layer():
    # install() rebinds the package's attributes, so it runs in a process of
    # its own; -B keeps it from writing bytecode next to tracing.py
    code = (f"import json, sys; sys.path.insert(0, {str(TRACING.parent)!r}); "
            "import tracing; "
            "print(json.dumps(tracing.install(tracing.Tracer())))")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []


ROOT = TRACING.parents[1]
# the per-layer metrics a traced benchmark run reports beside tracing's own
TRACE_OVERHEAD = {"trace.overhead_s", "trace.overhead_frac"}


# a 2-D run of 8x8 cells and 3 steps, and a 1-D sweep of 32 cells and 10
# steps over 3 amplitudes, which steps a batch of 4 and runs the
# delta-psi solves and grad_sq_sum under the tracer; with the numbers of
# step solves and of (batched) delta-psi solves, one per tick, each makes
TRACED_CONFIGS = {
    "tiny_2d_run": ({
        "command": "run",
        "grid": {"dim": 2, "n": 8, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.25, "l": 0.5},
        "time": {"dt": 1e-3, "t_end": 3e-3},
        "initial": {"u": "1 + 0.5*cos(pi*x)*cos(pi*y)",
                    "v": "1 + 0.2*cos(pi*x)*cos(pi*y)"},
    }, 6, 0),
    "tiny_1d_sweep": ({
        "command": "sweep",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.25, "l": 0.5},
        "time": {"dt": 1e-4, "t_end": 1e-3, "cadence": 2},
        "initial": {"u": "1 + 0.5*cos(pi*x)", "v": "1 + 0.1*cos(pi*x)"},
        "stability": {"du": "cos(pi*x)", "dv": "cos(2*pi*x)",
                      "amplitudes": [0.01, 0.005, 0.0025]},
    }, 20, 6),
}


def test_a_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    check_traced_run(tmp_path, monkeypatch, "tiny_2d_run")


def test_a_traced_batched_sweep_reports_every_per_layer_metric(tmp_path,
                                                               monkeypatch):
    check_traced_run(tmp_path, monkeypatch, "tiny_1d_sweep")


def check_traced_run(tmp_path, monkeypatch, name):
    # a traced run whose metrics the benchmark cannot read measures nothing:
    # its last line must hold every per-layer metric, finite, as strict JSON
    payload, solves, psi_solves = TRACED_CONFIGS[name]
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    code = (
        "import json, math, sys\n"
        f"sys.path.insert(0, {str(TRACING.parent)!r})\n"
        "import tracing\n"
        "from crossdiff import cli\n"
        "tracer = tracing.Tracer()\n"
        "absent = tracing.install(tracer)\n"
        f"assert cli.main([{str(config)!r}, '--output-dir', "
        f"{str(tmp_path / 'traced')!r}]) == 0\n"
        f"tracer.save({str(tmp_path / 'spans.npz')!r})\n"
        "metrics = tracing.layer_metrics(tracing.load_spans("
        f"{str(tmp_path / 'spans.npz')!r}), tracer.counters, absent)\n"
        "print(json.dumps(metrics, allow_nan=False))\n")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["per_layer"]
    assert set(metrics) == {m["name"] for m in declared} - TRACE_OVERHEAD
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["poisson.psi_solves"] == psi_solves
    assert metrics["grid.kernel_calls"] > 0

    # the same run untraced: the tracer counts every iteration CG returns
    from crossdiff import cli, solver
    solve, iterations = solver.conjugate_gradient, []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result[1])
        return result

    monkeypatch.setattr(solver, "conjugate_gradient", counted)
    assert cli.main([str(config), "--output-dir",
                     str(tmp_path / "untraced")]) == 0
    assert len(iterations) == metrics["poisson.step_solves"] == solves
    assert metrics["poisson.step_iters"] == sum(iterations) > 0
