"""Spans and counters around crossdiff's module boundaries, added from outside.

install() rebinds module and class attributes of an imported crossdiff at
run time, so the program itself carries no tracing code.  Every wrapped call
records one span (name, start, end, parent) in flat in-memory arrays; the
spans are written out once, at the end of the run, and self times are
computed afterwards by self_times().  Counters that are not spans (CG
iterations, operator applications, Grid.spacing reads, bytes written) live
in Tracer.counters.

A target that the program no longer has is not an error: install() returns
the names of the layers whose targets are missing, and the benchmark reports
those layers as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# layer -> the targets it wraps; a layer is absent when any of them is missing
LAYERS = {
    "poisson.psi": ("stability.solve_neumann_zero_mean",),
    "poisson.step": ("solver.conjugate_gradient",),
    "exprs": ("exprs.evaluate",),
    "coeffs": ("coeffs.CoefficientModel", "coeffs.dissipation_density"),
    "grid": ("grid.gradient_arrays", "grid.divergence_arrays",
             "grid.face_average_arrays", "grid.grad_sq_sum",
             "grid.Grid.spacing"),
    "solver": ("solver.Simulation.step", "solver.Simulation.state",
               "solver.Simulation.diagnostics_row"),
    "stability": ("stability.run_pair", "coeffs.dissipation_density"),
    "cli": ("cli._write_csv", "cli._write_json", "cli.emit_plots"),
}

GRID_KERNELS = ("gradient_arrays", "divergence_arrays", "face_average_arrays",
                "grad_sq_sum")
COEFF_METHODS = ("p_values", "a11_values", "a12_values", "a22_values",
                 "q1_values", "q2_values", "r1_values", "r2_values")
SIM_METHODS = ("step", "state", "diagnostics_row")
WRITERS = ("_write_csv", "_write_json", "emit_plots")
MODULES = ("exprs", "coeffs", "grid", "poisson", "solver", "stability", "cli")


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call."""
        nid = self._name(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = clock()
        return spanned

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def load_spans(path: Path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(spans: dict) -> tuple:
    """Per span name: (number of calls, summed self time).

    A span's self time is its duration minus the durations of its direct
    children.  Calls are synchronous, so children never overlap and their
    durations are exactly the part of the parent's interval they cover.
    """
    names = [str(n) for n in spans["names"]]
    name_id = spans["name_id"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
    own = dur - child_sum
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=own, minlength=len(names))
    return ({n: int(calls[i]) for i, n in enumerate(names)},
            {n: float(total[i]) for i, n in enumerate(names)})


def _resolve(target: str):
    module, *attrs = target.split(".")
    obj = importlib.import_module(f"crossdiff.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


def _rebind_everywhere(original, replacement) -> None:
    """Replace `original` in every crossdiff module that imported it."""
    for name in MODULES:
        mod = importlib.import_module(f"crossdiff.{name}")
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> list:
    """Wrap every present layer of crossdiff; return the absent layers."""
    absent = [layer for layer, targets in LAYERS.items()
              if any(_resolve(t) is None for t in targets)]
    mods = {name: importlib.import_module(f"crossdiff.{name}")
            for name in MODULES}
    counters = tracer.counters

    if "poisson.psi" not in absent:
        solve = tracer.wrap("stability.solve_neumann_zero_mean",
                            mods["stability"].solve_neumann_zero_mean)

        def psi_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            counters["psi_iters"] += sol.iterations
            return sol
        mods["stability"].solve_neumann_zero_mean = psi_solve

    if "poisson.step" not in absent:
        cg = tracer.wrap("solver.conjugate_gradient",
                         mods["solver"].conjugate_gradient)

        def step_cg(apply_a, *args, **kwargs):
            def counted_apply(x):
                counters["step_applies"] += 1
                return apply_a(x)
            try:
                x, iterations, rel = cg(counted_apply, *args, **kwargs)
            except BaseException:
                counters["cg_failures"] += 1
                raise
            counters["step_iters"] += iterations
            return x, iterations, rel
        mods["solver"].conjugate_gradient = step_cg

    if "exprs" not in absent:
        original = mods["exprs"].evaluate
        _rebind_everywhere(original, tracer.wrap("exprs.evaluate", original))

    if "coeffs" not in absent:
        model = mods["coeffs"].CoefficientModel
        for method in COEFF_METHODS:
            if method in vars(model):
                setattr(model, method, tracer.wrap(
                    f"coeffs.{method}", vars(model)[method]))
        original = mods["coeffs"].dissipation_density
        _rebind_everywhere(original, tracer.wrap(
            "coeffs.dissipation_density", original))

    if "grid" not in absent:
        for kernel in GRID_KERNELS:
            original = getattr(mods["grid"], kernel)
            _rebind_everywhere(original, tracer.wrap(f"grid.{kernel}",
                                                     original))
        grid_cls = mods["grid"].Grid
        spacing = inspect.getattr_static(grid_cls, "spacing")

        def counted_spacing(self):
            counters["spacing_calls"] += 1
            return spacing.__get__(self, grid_cls)
        grid_cls.spacing = property(counted_spacing)

    if "solver" not in absent:
        sim = mods["solver"].Simulation
        for method in SIM_METHODS:
            setattr(sim, method, tracer.wrap(f"solver.Simulation.{method}",
                                             getattr(sim, method)))

    if "stability" not in absent:
        mods["stability"].run_pair = tracer.wrap(
            "stability.run_pair", mods["stability"].run_pair)

    if "cli" not in absent:
        cli = mods["cli"]
        for writer in ("_write_csv", "_write_json"):
            spanned = tracer.wrap(f"cli.{writer}", getattr(cli, writer))

            def counted_write(path, *args, _spanned=spanned, **kwargs):
                out = _spanned(path, *args, **kwargs)
                counters["write_bytes"] += Path(path).stat().st_size
                return out
            setattr(cli, writer, counted_write)
        spanned_plots = tracer.wrap("cli.emit_plots", cli.emit_plots)

        def counted_plots(*args, **kwargs):
            path = spanned_plots(*args, **kwargs)
            counters["write_bytes"] += Path(path).stat().st_size
            return path
        cli.emit_plots = counted_plots
    return absent


def layer_metrics(spans: dict, counters: dict, absent: list) -> dict:
    """Per-layer metric values from one traced run, keyed by metric name.

    Counts are exact; times are self times in seconds.  Metrics of absent
    layers are left out.
    """
    calls, own = self_times(spans)

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return own.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    if "poisson.psi" not in absent:
        solves = n("stability.solve_neumann_zero_mean")
        out["poisson.psi_solves"] = solves
        out["poisson.psi_iters"] = counters.get("psi_iters", 0)
        out["poisson.psi_iters_per_solve"] = ratio(out["poisson.psi_iters"],
                                                   solves)
        out["poisson.psi_s"] = s("stability.solve_neumann_zero_mean")
    if "poisson.step" not in absent:
        solves = n("solver.conjugate_gradient")
        iters = counters.get("step_iters", 0)
        out["poisson.step_solves"] = solves
        out["poisson.step_iters"] = iters
        out["poisson.step_iters_per_solve"] = ratio(iters, solves)
        out["poisson.step_cg_s"] = s("solver.conjugate_gradient")
        out["poisson.applies_per_iter"] = ratio(
            counters.get("step_applies", 0), iters)
        out["poisson.cg_failures"] = counters.get("cg_failures", 0)
    if "exprs" not in absent:
        out["exprs.evaluate_calls"] = n("exprs.evaluate")
        out["exprs.evaluate_s"] = s("exprs.evaluate")
    if "coeffs" not in absent:
        names = [f"coeffs.{m}" for m in COEFF_METHODS] \
            + ["coeffs.dissipation_density"]
        out["coeffs.values_calls"] = sum(n(x) for x in names)
        out["coeffs.values_s"] = sum(s(x) for x in names)
    if "grid" not in absent:
        names = [f"grid.{k}" for k in GRID_KERNELS]
        out["grid.kernel_calls"] = sum(n(x) for x in names)
        out["grid.kernel_s"] = sum(s(x) for x in names)
        out["grid.spacing_calls"] = counters.get("spacing_calls", 0)
    if "solver" not in absent:
        out["solver.steps"] = n("solver.Simulation.step")
        out["solver.step_self_s"] = s("solver.Simulation.step")
        out["solver.diagnostics_s"] = s("solver.Simulation.diagnostics_row")
        out["solver.state_copies"] = n("solver.Simulation.state")
    if "stability" not in absent:
        out["stability.pairs"] = n("stability.run_pair")
        # one dissipation evaluation per tick of the pair
        out["stability.ticks"] = n("coeffs.dissipation_density")
        out["stability.pair_self_s"] = s("stability.run_pair")
    if "cli" not in absent:
        names = [f"cli.{w}" for w in WRITERS]
        out["cli.write_s"] = sum(s(x) for x in names)
        out["cli.write_files"] = sum(n(x) for x in names)
        out["cli.write_bytes"] = counters.get("write_bytes", 0)
    return out


def unit(metric: str) -> str:
    """Unit of a layer_metrics() value.  Values not in seconds are counts,
    or ratios of counts, and repeat exactly between runs."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_solve"):
        return "iters/solve"
    if metric.endswith("_per_iter"):
        return "applies/iter"
    if metric.endswith("_bytes"):
        return "B"
    return "count"
