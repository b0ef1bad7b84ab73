"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Self-time arithmetic gives the known answer on a synthetic span tree.
2. On every workload (seed 0), a traced run's artifacts are byte-identical
   to an untraced run's, so tracing does not change what the program does.
3. Every count metric repeats exactly between two traced runs.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import numpy as np

import run
import tracing
import workloads


def check_self_times() -> list:
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]; a second A
    # [20, 21] is a root with no children
    spans = {
        "names": np.array(["A", "B", "C", "D"]),
        "name_id": np.array([0, 1, 2, 3, 0], dtype=np.int32),
        "parent": np.array([-1, 0, 0, 2, -1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 5.0, 6.0, 20.0]),
        "end": np.array([10.0, 4.0, 9.0, 7.0, 21.0]),
    }
    calls, own = tracing.self_times(spans)
    want_calls = {"A": 2, "B": 1, "C": 1, "D": 1}
    want_own = {"A": 4.0, "B": 3.0, "C": 3.0, "D": 1.0}
    if calls != want_calls or own != want_own:
        return [f"self_times gave calls {calls}, self {own}; expected "
                f"{want_calls}, {want_own}"]
    return []


def check_workload(workload: str) -> list:
    workdir = run.RUNS / "selfcheck" / workload
    _, config = run.prepare(workdir, workload, 0)
    runner = run.Runner(workdir, config, run.child_env(),
                        time.monotonic() + run.DEADLINE_S)
    problems = []
    digests, counts = {}, []
    for mode in ("run", "trace", "trace"):
        result, stderr, out = runner.run(mode)
        if result is None or result["rc"] != 0:
            return [f"{mode} run failed: {stderr.strip()[-1000:]}"]
        digests.setdefault(mode, run.digest(out))
        if mode == "trace":
            spans = tracing.load_spans(Path(str(out) + ".spans.npz"))
            metrics = tracing.layer_metrics(spans, result["counters"],
                                            result["absent"])
            counts.append({k: v for k, v in metrics.items()
                           if tracing.unit(k) != "s"})
    if digests["run"] != digests["trace"]:
        differ = sorted(k for k in set(digests["run"]) | set(digests["trace"])
                        if digests["run"].get(k) != digests["trace"].get(k))
        problems.append(f"traced artifacts differ from untraced: {differ}")
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"counts differ between traced runs: {differ}")
    shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    checks = [("self-time arithmetic", check_self_times)]
    checks += [(f"{w}: traced artifacts identical, counts repeat",
                lambda w=w: check_workload(w))
               for w in sorted(workloads.WORKLOADS)]
    failed = 0
    for name, fn in checks:
        problems = fn()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
