"""Writes ``pins.json``: the SHA-256 of the stdout of every job any seed
can select, each run once through ``equiloc.cli.main``.

The pins record the outputs of the commit the benchmark was defined on, so
a later change that alters one stdout byte fails the benchmark's checks.
Regenerate them only for a change whose purpose is a new output.  With
``--check`` the script compares instead of writing, e.g. to confirm that
the outputs do not depend on ``PYTHONHASHSEED``.

Usage, from the root of a checkout: ``python3 perfbench/pin.py [--check]``
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import run_job  # noqa: E402


def main(argv) -> int:
    out = HERE.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="pin-", dir=out)
    pins = {}
    try:
        for job in workloads.pool():
            code, stdout, err, error = run_job(job.materialize(directory))
            if code != 0 or error:
                print(f"{job.name}: exit {code} {err}{error or ''}",
                      file=sys.stderr)
                return 1
            pins[job.name] = hashlib.sha256(stdout.encode()).hexdigest()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    path = HERE / "pins.json"
    if "--check" in argv:
        old = json.loads(path.read_text(encoding="utf-8"))
        diff = sorted(k for k in pins if old.get(k) != pins[k])
        print(f"{len(pins)} jobs, {len(diff)} differ: {diff[:10]}")
        return 1 if diff else 0
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"pinned {len(pins)} jobs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
