"""crossdiff benchmark: end-to-end time and throughput, and a per-module trace.

    python3 perfbench/run.py --workload run-2d --seed 0 --seconds 35 --trace 0

Run from the root of a crossdiff checkout; the program is imported from
./src.  The workload's config is generated from the seed under
.perfbench-runs/<workload>/seed-<seed>/, and the program sees only that JSON.
One client runs one crossdiff process at a time (a closed loop) until
--seconds have passed, at least MIN_RUNS times.  Every run's artifacts are
checked (workloads.check) and must be byte-identical to the first run's.

--trace 0 reports the end-to-end metrics wall_s, cpu_s, cell_steps_per_s,
setup_s and peak_rss_mb, each as the median over the runs; the median, unlike
the fastest run, does not move with the number of runs that fit into
--seconds, so a faster program is not favoured by getting more tries.

The times are host-normalised.  On a shared host the same run can take 1.8x
as long for a minute at a time, when neighbours load the machine, and no
statistic over one invocation's runs removes a slowdown that lasts the whole
invocation.  So each run's process times a fixed loop (worker.calibrate)
right before and right after the run, and the client scales the run's times
by CALIBRATION_REF_S over the mean of the two loop times: a time reads as
it would on a host where the loop takes CALIBRATION_REF_S.  The loop does
not touch crossdiff, so a change to the program moves the normalised times
exactly as it moves the measured ones.  The measured times, the loop times
and each run's scale factor are printed and kept in record.json.

--trace 1 alternates traced and untraced runs and reports the per-layer
metrics of tracing.layer_metrics, with the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  Lines before it give each metric's median, quartiles, minimum and
sample count, the failed share and the provenance; the same record goes to
record.json next to the config.

The client and every crossdiff process are pinned to one core, and each
crossdiff process gets one BLAS thread (THREADS, at most the number of
usable cores): at 128x128 a second OpenBLAS thread costs CPU without saving
wall time, and on a shared host it only adds contention.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
MIN_RUNS = 3            # untraced runs per invocation, at least
MIN_TRACED = 2          # traced runs, so that counts can be compared
DEADLINE_S = 160.0      # stop starting runs this long after start-up
THREADS = 1             # BLAS threads per crossdiff process
# the normalised times are in seconds of a host where worker.calibrate()
# takes exactly this long; it is about the loop's median on a shared 2-vCPU
# 2 GHz Xeon host
CALIBRATION_REF_S = 0.045

# metric -> unit; each value is the median over the invocation's runs
END_TO_END = {"wall_s": "s", "cpu_s": "s", "cell_steps_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Environment for crossdiff processes, with THREADS BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k != "CROSSDIFF_OUTPUT_ROOT"}
    threads = min(THREADS, len(os.sched_getaffinity(0)))
    env.update(dict.fromkeys(THREAD_VARS, str(threads)))
    return env


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip() or None,
            "git_dirty": bool(status.stdout.strip())}


def quartiles(values: list) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "max": max(values), "n": len(values)}


def digest(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def prepare(workdir: Path, workload: str, seed: int) -> tuple:
    """Empty workdir and write the workload's config for seed into it;
    returns (config dict, config path)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg = workloads.make_config(workload, seed)
    config = workdir / "config.json"
    config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return cfg, config


class Runner:
    """Starts one worker process per run and keeps what each one returned."""

    def __init__(self, workdir: Path, config: Path, env: dict, deadline: float):
        self.workdir = workdir
        self.config = config
        self.env = env
        self.deadline = deadline
        self.count = 0

    def run(self, mode: str) -> tuple:
        """(result dict or None, stderr text, output directory)."""
        self.count += 1
        out = self.workdir / f"{mode}-{self.count:03d}"
        result_path = self.workdir / f"{mode}-{self.count:03d}.result.json"
        timeout = max(5.0, self.deadline + 15.0 - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), mode,
                 str(self.config), str(out), str(result_path)],
                env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            return None, f"timed out after {err.timeout:.0f} s", out
        if proc.returncode != 0 or not result_path.exists():
            return None, proc.stderr, out
        return json.loads(result_path.read_text(encoding="utf-8")), \
            proc.stderr, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crossdiff" / "cli.py").is_file():
        print(f"perfbench: no crossdiff sources under {ROOT / 'src'}; run "
              "from the root of a crossdiff checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    # the calibration loop and every run share one core, so that the loop
    # sees the load the runs see: the cores of a shared host are loaded
    # independently of each other
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    workdir = RUNS / args.workload / f"seed-{args.seed}"
    cfg, config = prepare(workdir, args.workload, args.seed)
    expected = workloads.reference_values(args.workload, args.seed)
    runner = Runner(workdir, config, env, started + DEADLINE_S)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "config": cfg,
              "provenance": {
                  "python": platform.python_version(),
                  "numpy": np.__version__,
                  "blas": "{name} {version}".format(
                      **np.show_config(mode="dicts")["Build Dependencies"]
                      ["blas"]),
                  "thread_cap": int(env["OPENBLAS_NUM_THREADS"]),
                  "nproc": nproc,
                  "cpu": cpu,
                  **git_state()}}

    cell_steps = workloads.cell_steps(cfg)
    samples = {"run": [], "trace": []}
    problems = []
    attempted = failed = 0
    first_digest = None
    calibration = []    # [before, after] around each run, in order
    # the modes run in turn, each at least this many times
    least = {"trace": MIN_TRACED, "run": 1} if args.trace \
        else {"run": MIN_RUNS}
    loop_start = time.monotonic()
    while True:
        enough = all(len(samples[m]) >= n for m, n in least.items())
        now = time.monotonic()
        if (enough and now - loop_start >= args.seconds) \
                or now >= started + DEADLINE_S:
            break
        for mode in least:
            attempted += 1
            result, stderr, out = runner.run(mode)
            if result is None:
                found = [f"worker failed: {stderr.strip()[-1000:]}"]
            else:
                found = workloads.check(cfg, out, result["rc"], stderr,
                                        expected)
            if not found:
                files = digest(out)
                if first_digest is None:
                    first_digest = files
                elif files != first_digest:
                    found = [f"{mode} run's artifacts differ from the first "
                             "run's"]
            if found:
                failed += 1
                problems.append({"run": out.name, "problems": found})
            if result is not None:
                record["provenance"]["blas_threads"] = result["blas_threads"]
                result["out"] = str(out)
                samples[mode].append(result)
                calibration.append(result["calibration_s"])
            shutil.rmtree(out, ignore_errors=True)
    record["calibration_s"] = calibration
    record["problems"] = problems

    if args.trace:
        metrics, trace_problems = layer_report(samples, record)
        problems += trace_problems
    else:
        runs = samples["run"]
        for r in runs:
            r["scale"] = 2.0 * CALIBRATION_REF_S / sum(r["calibration_s"])
        values = {
            "wall_s": [r["wall_s"] * r["scale"] for r in runs],
            "cpu_s": [r["cpu_s"] * r["scale"] for r in runs],
            "setup_s": [t * r["scale"] for r in runs
                        for t in r.get("setup_s", [])],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        values["cell_steps_per_s"] = [cell_steps / w
                                      for w in values["wall_s"]]
        record["measured"] = {
            "wall_s": [r["wall_s"] for r in runs],
            "cpu_s": [r["cpu_s"] for r in runs],
            "setup_s": [r.get("setup_s", []) for r in runs],
            "scale": [r["scale"] for r in runs]}
        stats = {name: quartiles(v) for name, v in values.items() if v}
        record["end_to_end"] = stats
        record["samples"] = values
        metrics = {name: {"value": s["median"], "unit": END_TO_END[name]}
                   for name, s in stats.items()}
    record["attempted"], record["failed"] = attempted, failed
    record["failed_frac"] = failed / attempted if attempted else 1.0
    (workdir / "record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for spans in sorted(workdir.glob("trace-*.spans.npz"))[:-1]:
        spans.unlink()

    print_summary(record, metrics)
    print(json.dumps({"correct": not problems and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_report(samples: dict, record: dict) -> tuple:
    """Per-layer metrics over the traced runs, and any inconsistency."""
    problems = []
    per_run = []
    absent = []
    for result in samples["trace"]:
        absent = result["absent"]
        spans = tracing.load_spans(Path(result["out"] + ".spans.npz"))
        per_run.append(tracing.layer_metrics(spans, result["counters"],
                                             absent))
    metrics = {}
    if per_run:
        for name in per_run[0]:
            values = [m[name] for m in per_run]
            if tracing.unit(name) != "s":
                if len(set(values)) != 1:
                    problems.append({"run": "trace", "problems": [
                        f"count {name} differs between traced runs: "
                        f"{values}"]})
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": tracing.unit(name)}
        traced = statistics.median(r["wall_s"] for r in samples["trace"])
        untraced = statistics.median(r["wall_s"] for r in samples["run"])
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": (traced - untraced) / untraced, "unit": "1"}
    record["absent_layers"] = absent
    record["per_layer"] = metrics
    record["samples"] = {f"{mode}_wall_s": [r["wall_s"] for r in runs]
                         for mode, runs in samples.items()}
    return metrics, problems


def print_summary(record: dict, metrics: dict) -> None:
    cal = [t for pair in record["calibration_s"] for t in pair]
    print(f"perfbench {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {record['attempted']} runs, "
          f"{record['failed']} failed (failed_frac "
          f"{record['failed_frac']:.4f})")
    for name, s in record.get("end_to_end", {}).items():
        print(f"  {name:<18} median {s['median']:.6g} {END_TO_END[name]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  min {s['min']:.6g}  "
              f"n {s['n']}")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    if record.get("absent_layers"):
        print(f"  absent layers: {', '.join(record['absent_layers'])}")
    if cal:
        print(f"  calibration loop median {statistics.median(cal):.4f} s over "
              f"{len(cal)} (first {cal[0]:.4f}, last {cal[-1]:.4f}, min "
              f"{min(cal):.4f}, max {max(cal):.4f}); reference "
              f"{CALIBRATION_REF_S} s")
    if "measured" in record:
        wall = record["measured"]["wall_s"]
        scale = record["measured"]["scale"]
        print(f"  measured wall_s median {statistics.median(wall):.6g} s, "
              f"scale factor median {statistics.median(scale):.4f}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))
    for p in record["problems"]:
        print(f"  FAILED {p['run']}: {'; '.join(p['problems'])}")


if __name__ == "__main__":
    sys.exit(main())
