"""Record the science values of every workload at seeds 0..9 into
reference.json.

    python3 perfbench/record_reference.py

Run once per workload and seed, untraced.  A run whose invariants fail is
not recorded, and the script exits 1.  Re-record only when a change is meant
to alter the science outputs beyond workloads.REFERENCE_RTOL, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads

SEEDS = range(10)


def main() -> int:
    reference = {}
    failed = 0
    for workload in sorted(workloads.WORKLOADS):
        reference[workload] = {}
        for seed in SEEDS:
            workdir = run.RUNS / "reference" / workload / f"seed-{seed}"
            cfg, config = run.prepare(workdir, workload, seed)
            runner = run.Runner(workdir, config, run.child_env(),
                                time.monotonic() + run.DEADLINE_S)
            result, stderr, out = runner.run("run")
            problems = workloads.check(cfg, out,
                                       -1 if result is None else result["rc"],
                                       stderr, None)
            if problems:
                failed += 1
                print(f"{workload} seed {seed}: {'; '.join(problems)}")
                continue
            reference[workload][str(seed)] = workloads.science_values(cfg,
                                                                      out)
            shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        return 1
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
