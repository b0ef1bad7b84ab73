"""Print the sha256 of every artifact of some configs, as sorted JSON.

    python scripts/artifact_digests.py [CONFIG.json ...]

Each config named, or each one under configs/ when none is, runs through
crossdiff.cli.main into a temporary directory, in this process.  The
digests cover every file the run writes, its exit status, and what it
printed to stdout and to stderr, keyed by "<config>/<file>".  Two
checkouts give the same artifacts exactly when

    python scripts/artifact_digests.py > a.json   # in each checkout
    diff a.json b.json

is silent.  crossdiff is imported from the src/ next to this script, so
each checkout measures its own code.  The 9 shipped configs take 7-11 s on
a shared 2-vCPU Xeon host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    configs = [Path(arg) for arg in sys.argv[1:]] \
        or sorted((ROOT / "configs").glob("*.json"))
    print(json.dumps(digests(configs), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
