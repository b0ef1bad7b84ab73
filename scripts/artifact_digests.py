"""Print the sha256 of every artifact of some configs, as sorted JSON.

    python scripts/artifact_digests.py [CONFIG.json ...]
    python scripts/artifact_digests.py --check DIGESTS.json [CONFIG.json ...]
    python scripts/artifact_digests.py --record DIGESTS.json
    python scripts/artifact_digests.py --keep DIR [...]
    python scripts/artifact_digests.py --diff DIR_A DIR_B

Each config named, or when none is each one under configs/ and under
tests/data/, runs through crossdiff.cli.main into a temporary directory,
in this process.  The digests cover every file the run writes, its exit
status, and what it printed to stdout and to stderr, keyed by
"<config>/<file>".  Two checkouts give the same artifacts exactly when
the digests one printed, saved as DIGESTS.json, pass --check in the
other: it prints each key whose digest differs or that only one side
has, and exits 1 if there is any, 0 otherwise.  --record writes the
digests to DIGESTS.json under "digests", next to the "provenance" they
depend on besides the code (Python, numpy, the machine and numpy's
enabled SIMD paths, which change last bits); --check reads that form as
well.  tests/artifact_digests.json is kept so, and tier-1 checks the
artifacts against it.  crossdiff is imported from the src/ next to this
script, so each checkout measures its own code.

--keep DIR writes each config's run directory to DIR/<config> instead of a
temporary one, so two checkouts' artifacts can be compared with --diff,
which runs nothing: for each file whose bytes differ between the trees it
prints how many numbers differ (CSV cells and JSON numbers), the largest
relative and absolute difference, and the count and first of the other
differences, or that only one tree has it; it exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(configs, keep: Path | None = None) -> dict:
    """{"<config>/<file>": sha256} for each config's artifacts, with the
    entries "<config>/:exit", ":stdout" and ":stderr"; each run directory
    is keep/<config>, which must not exist yet, when keep is given."""
    from crossdiff import cli

    out = {}
    with contextlib.nullcontext(keep) if keep is not None \
            else tempfile.TemporaryDirectory() as root:
        for config in configs:
            name = Path(config).stem
            run_dir = Path(root) / name
            if run_dir.exists():
                raise FileExistsError(f"{run_dir} exists already")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                status = cli.main([str(config), "--output-dir", str(run_dir)])
            out[f"{name}/:exit"] = str(status)
            out[f"{name}/:stdout"] = _sha256(stdout.getvalue().encode())
            out[f"{name}/:stderr"] = _sha256(stderr.getvalue().encode())
            for path in sorted(run_dir.rglob("*")):
                if path.is_file():
                    key = f"{name}/{path.relative_to(run_dir).as_posix()}"
                    out[key] = _sha256(path.read_bytes())
    return out


def _values(path: Path) -> list:
    """An artifact's values in order, each as (key, text, number): the CSV
    cells, the JSON leaves keyed by their path, or the lines of any other
    file, as their repr or JSON text; number is the value as a float, or
    None if it is not a number."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [(None, repr(cell), _float(cell)) for line in text.splitlines()
                for cell in line.split(",")]
    if path.suffix == ".json":
        return [(key, json.dumps(value), float(value) if isinstance(
            value, (int, float)) and not isinstance(value, bool) else None)
            for key, value in _leaves(json.loads(text), "")]
    return [(None, repr(line), None) for line in text.splitlines()]


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _leaves(value, key: str):
    """(key path, value) of each leaf of a loaded JSON value, in order."""
    if not isinstance(value, (dict, list)):
        yield key, value
        return
    for k, v in value.items() if isinstance(value, dict) else enumerate(value):
        yield from _leaves(v, f"{key}/{k}")


def file_difference(a: Path, b: Path) -> str | None:
    """How two artifacts differ, or None when their bytes are equal."""
    if a.read_bytes() == b.read_bytes():
        return None
    values_a, values_b = _values(a), _values(b)
    count, rel, absolute, other = 0, 0.0, 0.0, []
    if len(values_a) != len(values_b):
        other.append(f"{len(values_a)} values vs {len(values_b)}")
    for (key, text_a, x), (key_b, text_b, y) in zip(values_a, values_b):
        if key == key_b and text_a == text_b:
            continue
        if key != key_b or x is None or y is None:
            other.append(f"{key} vs {key_b}" if key != key_b else
                         f"{key}: {text_a} vs {text_b}" if key else
                         f"{text_a} vs {text_b}")
            continue
        # an inf or a nan on either side differs by inf
        diff = abs(x - y) if math.isfinite(x - y) else math.inf
        scale = max(abs(x), abs(y))
        count += 1
        absolute = max(absolute, diff)
        rel = max(rel, diff / scale if 0.0 < scale and diff < math.inf
                  else diff)
    line = (f"{count} numbers differ, largest relative {rel:.2e}, "
            f"largest absolute {absolute:.2e}")
    if other:
        line += f"; {len(other)} other differences, first {other[0]}"
    return line


def diff_trees(tree_a: Path, tree_b: Path) -> int:
    """Print each file whose bytes differ between the trees, and how; 1 if
    there is any, else 0."""
    files = {side: {p.relative_to(side).as_posix()
                    for p in side.rglob("*") if p.is_file()}
             for side in (tree_a, tree_b)}
    differ = False
    for name in sorted(files[tree_a] | files[tree_b]):
        if name not in files[tree_a] or name not in files[tree_b]:
            side = tree_a if name in files[tree_a] else tree_b
            line = f"only in {side}"
        else:
            line = file_difference(tree_a / name, tree_b / name)
        if line is not None:
            differ = True
            print(f"{name}: {line}")
    return 1 if differ else 0


def provenance() -> dict:
    """What the digests depend on besides the code and the configs."""
    import numpy
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpu_features": sorted(name for name, enabled
                                   in __cpu_features__.items() if enabled)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path)
    parser.add_argument("--check", type=Path, metavar="DIGESTS.json",
                        help="compare with these digests instead of "
                        "printing them")
    parser.add_argument("--record", type=Path, metavar="DIGESTS.json",
                        help="write them with their provenance instead of "
                        "printing them")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write each config's run directory under DIR")
    parser.add_argument("--diff", type=Path, nargs=2,
                        metavar=("DIR_A", "DIR_B"),
                        help="run nothing; report the files that differ "
                        "between two --keep trees")
    args = parser.parse_args(argv)
    if args.diff is not None:
        return diff_trees(*args.diff)
    sys.path.insert(0, str(ROOT / "src"))
    configs = args.configs or [
        *sorted((ROOT / "configs").glob("*.json")),
        *sorted((ROOT / "tests" / "data").glob("*.json"))]
    found = digests(configs) if args.keep is None \
        else digests(configs, args.keep)
    if args.record is not None:
        args.record.write_text(json.dumps(
            {"digests": found, "provenance": provenance()}, indent=1,
            sort_keys=True) + "\n", encoding="utf-8")
        return 0
    if args.check is None:
        print(json.dumps(found, indent=1, sort_keys=True))
        return 0
    expected = json.loads(args.check.read_text(encoding="utf-8"))
    expected = expected.get("digests", expected)  # a recorded file
    differ = sorted(key for key in found.keys() | expected.keys()
                    if found.get(key) != expected.get(key))
    for key in differ:
        print(key)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
