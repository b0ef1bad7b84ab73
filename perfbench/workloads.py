"""The benchmark's workloads: config generation from a seed, and output checks.

Each workload is one crossdiff config shape.  The seed jitters the
coefficients of the initial (or manufactured) data by at most 10%, a range in
which every run stays valid and does nearly the same work, so seeds vary the
inputs without varying what is measured.  The program sees only the
generated JSON.

check() decides whether one run's artifacts are correct: the process exited
0 without a JSON error line, the scheme's invariants hold, and, for seeds
with a recorded reference, the science values match it.  The science values
(science_values) are the summary plus the rows that carry the result of the
whole evolution: every diagnostics row of a run, every sweep row (supE, C_hat
and lambda_hat per amplitude) and every MMS level's L2 errors.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path
from typing import Optional

# science values must match the recorded reference to this relative
# tolerance.  A different solver at the same CG tolerance (1e-11, condition
# numbers near 30 for the step operators) moves the smallest sweep
# perturbation by about 1e-7 relative, so 1e-5 admits it; a change of scheme,
# step count or data, or a step CG loosened to 1e-4, moves lambda_hat, the
# final diagnostics or the MMS errors by more
REFERENCE_RTOL = 1e-5
REFERENCE_ATOL = 1e-12
# the discrete mass ledger is exact up to roundoff in the cell sums
LEDGER_RTOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _jitter(rng: random.Random, value: float) -> float:
    return round(value * rng.uniform(0.9, 1.1), 6)


def _run_2d(rng: random.Random) -> dict:
    a, b = _jitter(rng, 0.5), _jitter(rng, 0.2)
    mode = "cos(pi*x)*cos(pi*y)"
    return {
        "command": "run",
        "grid": {"dim": 2, "n": [128, 128], "L": [1.0, 1.0]},
        "model": {"preset": "case2", "chi": 0.25, "l": 0.5},
        "time": {"dt": 0.0002, "t_end": 0.02, "cadence": 20},
        "initial": {"u": f"1 + {a}*{mode}", "v": f"1 + {b}*{mode}"},
        "solver": {"tol": 1e-11},
    }


def _sweep_1d(rng: random.Random) -> dict:
    a, b = _jitter(rng, 0.5), _jitter(rng, 0.1)
    return {
        "command": "sweep",
        "grid": {"dim": 1, "n": 256, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.25, "l": 0.5},
        "time": {"dt": 0.0001, "t_end": 0.04, "cadence": 20},
        "initial": {"u": f"1 + {a}*cos(pi*x)", "v": f"1 + {b}*cos(pi*x)"},
        "stability": {"du": "cos(pi*x)", "dv": "cos(2*pi*x)",
                      "amplitudes": [0.01, 0.005, 0.0025]},
        "solver": {"tol": 1e-11},
    }


def _mms_1d(rng: random.Random) -> dict:
    a, b = _jitter(rng, 0.5), _jitter(rng, 0.25)
    return {
        "command": "mms",
        "grid": {"dim": 1, "n": 32, "L": 1.0},
        "model": {"preset": "case2", "chi": 0.05, "l": 0.5},
        "time": {"dt": 0.001, "t_end": 0.1},
        "mms": {"u": f"2 + {a}*exp(-t)*cos(pi*x)",
                "v": f"2 + {b}*exp(-t)*cos(pi*x)",
                "levels": [32, 64, 128]},
        "solver": {"tol": 1e-12},
    }


WORKLOADS = {"run-2d": _run_2d, "sweep-1d": _sweep_1d, "mms-1d": _mms_1d}


def make_config(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def _steps(dt: float, t_end: float) -> int:
    return max(1, math.ceil(t_end / dt - 1e-9))


def cell_steps(cfg: dict) -> int:
    """Cells x steps x trajectories one run of cfg advances."""
    n = cfg["grid"]["n"]
    cells = math.prod(n) if isinstance(n, list) else n ** cfg["grid"]["dim"]
    dt, t_end = cfg["time"]["dt"], cfg["time"]["t_end"]
    if cfg["command"] == "mms":
        base = cfg["mms"]["levels"][0]
        return sum(m ** cfg["grid"]["dim"]
                   * _steps(dt * (base / m) ** 2, t_end)
                   for m in cfg["mms"]["levels"])
    trajectories = 1
    if cfg["command"] == "sweep":
        trajectories = 2 * len(cfg["stability"]["amplitudes"])
    return cells * _steps(dt, t_end) * trajectories


def grid_shape(cfg: dict) -> tuple:
    """Shape of the finest grid one run of cfg steps on."""
    n = cfg["mms"]["levels"][-1] if cfg["command"] == "mms" \
        else cfg["grid"]["n"]
    return tuple(n) if isinstance(n, list) else (n,) * cfg["grid"]["dim"]


# ---------------------------------------------------------------------------
# output checks

def _rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _invariants(cfg: dict, out: Path, s: dict) -> list:
    problems = []
    command = cfg["command"]
    if command == "run":
        diag = _rows(out / "diagnostics.csv")
        mass0 = diag[0]["mass_u"]
        ledger = s["mass_u"] - mass0 - (s["reaction_mass"] + s["clipped_mass"])
        if not abs(ledger) <= LEDGER_RTOL * abs(mass0):
            problems.append(f"mass ledger off by {ledger:.3e}")
        if not all(r["min_v"] > 0.0 for r in diag) or not s["min_v"] > 0.0:
            problems.append("min_v is not positive")
        if not all(r["min_u"] >= 0.0 for r in diag) or not s["min_u"] >= 0.0:
            problems.append("min_u is negative")
        steps = _steps(cfg["time"]["dt"], cfg["time"]["t_end"])
        ticks = 1 + math.ceil(steps / cfg["time"]["cadence"])
        snapshots = len(list(out.glob("snapshot_*.csv")))
        if len(diag) != ticks or snapshots != ticks:
            problems.append(f"expected {ticks} ticks, got {len(diag)} "
                            f"diagnostics rows and {snapshots} snapshots")
    elif command == "sweep":
        if s["bounded"] is not True:
            problems.append("sweep is not bounded")
        rows = _rows(out / "sweep.csv")
        if len(rows) != len(cfg["stability"]["amplitudes"]) or not all(
                math.isfinite(v) and v > 0.0 for r in rows
                for k, v in r.items() if k != "lambda_hat"):
            problems.append("sweep rows are missing or not positive")
    elif command == "mms":
        for key in ("spatial_order_u", "spatial_order_v"):
            if not 1.8 <= s[key] <= 2.2:
                problems.append(f"{key} = {s[key]} is not near 2")
        for key in ("temporal_order_u", "temporal_order_v"):
            if not 0.8 <= s[key] <= 1.2:
                problems.append(f"{key} = {s[key]} is not near 1")
    return problems


# per command: the CSV whose rows go into the science values
SCIENCE_CSV = {"run": "diagnostics", "sweep": "sweep", "mms": "convergence"}


def science_values(cfg: dict, out: Path) -> dict:
    """The run's results as one flat dict: summary.json's entries, and
    `<csv>[<row>].<column>` for every finite value of the CSV that
    SCIENCE_CSV names."""
    values = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    stem = SCIENCE_CSV[cfg["command"]]
    for i, row in enumerate(_rows(out / f"{stem}.csv")):
        values.update({f"{stem}[{i}].{k}": v for k, v in row.items()
                       if math.isfinite(v)})
    return values


def _reference_mismatch(expected: dict, got: dict) -> list:
    problems = []
    for key, want in sorted(expected.items()):
        have = got.get(key)
        if isinstance(want, bool) or not isinstance(want, (int, float)):
            ok = have == want
        else:
            ok = isinstance(have, (int, float)) and abs(have - want) \
                <= REFERENCE_RTOL * abs(want) + REFERENCE_ATOL
        if not ok:
            problems.append(f"{key} = {have!r}, reference {want!r}")
    return problems


def reference_values(workload: str, seed: int) -> Optional[dict]:
    if not REFERENCE_PATH.exists():
        return None
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return reference.get(workload, {}).get(str(seed))


def check(cfg: dict, out: Path, rc: int, stderr: str,
          expected: Optional[dict]) -> list:
    """Problems with one run's result; an empty list means it passed.

    expected is the recorded reference science values for this workload and
    seed, or None when there is none.
    """
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-500:]}"]
    for line in stderr.splitlines():
        try:
            if "error" in json.loads(line):
                return [f"JSON error line: {line[:500]}"]
        except (ValueError, TypeError):
            continue
    try:
        s = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        problems = _invariants(cfg, out, s)
        if expected is not None:
            problems += _reference_mismatch(expected,
                                            science_values(cfg, out))
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable artifacts: {err!r}"]
    return problems
