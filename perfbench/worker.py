"""One measured crossdiff run in a fresh process.

    python3 perfbench/worker.py MODE CONFIG OUT RESULT

MODE is `run` (untraced) or `trace` (spans and counters around every module
boundary, written to OUT.spans.npz).  The run goes through the public entry
point cli.main([CONFIG, "--output-dir", OUT]); wall and CPU time are taken
around that call only, so interpreter start-up and imports are not counted.
The process's peak resident memory (VmHWM) is one run's, because each run
gets its own process.  A fixed calibration loop is timed right before and
right after the call, so that the client can normalise the run's times by
the host's speed around it.  After an untraced run, cli.load_config is timed
SETUP_REPEATS times, so set-up samples spread over the same period as the
runs.  Timings and counts go to the JSON file RESULT.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM, unlike ru_maxrss, does
    not carry over the parent's peak through fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0   # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def calibrate(shape: tuple) -> float:
    """Seconds for a fixed loop of the kinds of work crossdiff does: a
    pure-Python loop, then differences and dot products on an array of the
    workload's grid shape, since how much a loaded host slows numpy depends
    on the array size.  It allocates almost nothing, so it leaves
    peak_rss_mb alone."""
    grid = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape)
    start = time.perf_counter()
    acc = 0.0
    for i in range(400_000):
        acc += i * i
    for _ in range(6_000 if len(shape) == 1 else 300):
        g = grid[1:] - grid[:-1]
        acc += float(np.vdot(g, g))
    return time.perf_counter() - start


def main(argv) -> int:
    mode, config, out, result_path = argv
    sys.path.insert(0, str(ROOT / "src"))
    from crossdiff import cli

    result = {"blas_threads": blas_threads()}
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        result["absent"] = tracing.install(tracer)
    shape = workloads.grid_shape(
        json.loads(Path(config).read_text(encoding="utf-8")))
    before = calibrate(shape)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result["rc"] = cli.main([config, "--output-dir", out])
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["calibration_s"] = [before, calibrate(shape)]
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.save(Path(out + ".spans.npz"))
        result["counters"] = dict(tracer.counters)
    elif result["rc"] == 0:
        result["setup_s"] = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cli.load_config(config)
            result["setup_s"].append(time.perf_counter() - start)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
