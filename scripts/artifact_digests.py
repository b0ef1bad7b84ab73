"""Print the sha256 of every artifact of some configs, as sorted JSON.

    python scripts/artifact_digests.py [CONFIG.json ...]
    python scripts/artifact_digests.py --check DIGESTS.json [CONFIG.json ...]
    python scripts/artifact_digests.py --record DIGESTS.json

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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(configs) -> dict:
    """{"<config>/<file>": sha256} for each config's artifacts, with the
    entries "<config>/:exit", ":stdout" and ":stderr"."""
    from crossdiff import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            name = Path(config).stem
            run_dir = Path(tmp) / name
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
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    found = digests(args.configs or [
        *sorted((ROOT / "configs").glob("*.json")),
        *sorted((ROOT / "tests" / "data").glob("*.json"))])
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
