"""Benchmark of the equiloc command line: times whole workloads through
``equiloc.cli.main``, checks every output, and in a separate traced run
reports per-layer numbers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``BENCHMARK.json`` or ``all``, which
runs them one after another and prints every metric of each.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer ones.  Python needs no build; the program is imported from
``src``.  ``perfbench/README.md`` describes the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import checks
import workloads
from refclock import REF_UNIT_S
from tracing import COUNT_KEYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Seconds a run may take in all; the worker gets what set-up leaves.
DEADLINE_S = 150
#: Fresh-interpreter launches whose median is ``setup_s``, after one
#: untimed launch that warms the file cache.
SETUP_LAUNCHES = 11
#: Reference units each launched interpreter times once it is ready.
SETUP_UNITS = 15
SETUP_CODE = ("import equiloc.cli as c; c.build_parser(); "
              "print('ready', flush=True); "
              "from perfbench import refclock; "
              f"print(refclock.unit_seconds({SETUP_UNITS}))")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def measure_setup(env: dict) -> tuple[float, float]:
    """Median seconds, as measured and at the reference speed, from
    launching an interpreter until ``import equiloc.cli`` and
    ``build_parser()`` are done.  Once ready, the interpreter times
    reference units (``refclock``), which give the host's speed for it."""
    raw, ref = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            unit = proc.stdout.readline()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError("the CLI module did not load")
        if launch:
            raw.append(elapsed)
            ref.append(elapsed * REF_UNIT_S / float(unit))
    return median(raw), median(ref)


def run_worker(jobs, directory: str, seconds: int, trace: bool, env: dict,
               trace_path: Path, timeout: float) -> dict:
    spec_path = Path(directory, "spec.json")
    result_path = Path(directory, "result.json")
    spec = {"jobs": [[job.name, job.materialize(directory)] for job in jobs],
            "seconds": seconds, "trace": trace,
            "trace_path": str(trace_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        str(spec_path), str(result_path)],
                       env=env, cwd=ROOT, timeout=timeout, check=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the worker ran past {timeout:.0f}s") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"the worker exited with {exc.returncode}") from exc
    return json.loads(result_path.read_text(encoding="utf-8"))


def failures(jobs, result: dict, pins: dict) -> list[str]:
    """One reason per failed job run: an exit code other than 0, a
    traceback, a stdout hash other than the pinned one, or a failed
    independent check."""
    by_name = {job.name: job for job in jobs}
    verdicts: dict = {}
    out = []
    for o in result["outcomes"]:
        name, digest = o["name"], o["sha256"]
        if o["traceback"]:
            reason = "traceback: " + o["traceback"].strip().splitlines()[-1]
        elif o["code"] != 0:
            reason = f"exit code {o['code']}: {o['stderr'].strip()[:200]}"
        elif digest != pins.get(name):
            reason = "stdout hash differs from the pinned one"
        else:
            if (name, digest) not in verdicts:
                job = by_name[name]
                verdicts[name, digest] = checks.check(
                    job.kind, job.info, result["texts"][digest])
            reason = verdicts[name, digest]
        if reason:
            out.append(f"{name}: {reason}")
    return out


def layer_metrics(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes: medians of the times, and
    counts that must repeat exactly in every traced pass."""
    summaries = result["summaries"]
    problems = [f"count {key} differs between traced passes"
                for key in sorted(COUNT_KEYS)
                if len({s[key] for s in summaries}) != 1]
    metrics = {key: (summaries[0][key] if key in COUNT_KEYS
                     else median([s[key] for s in summaries]))
               for key in summaries[0]}
    walls = {traced: pass_time(result, traced, REF_WALL)
             for traced in (False, True)}
    metrics["trace.overhead_ratio"] = walls[True] / walls[False]
    return metrics, problems


#: Columns of a job's timing row in the worker's result.
RAW_WALL, RAW_CPU, REF_WALL, REF_CPU = range(4)


def pass_time(result: dict, traced: bool, column: int) -> float:
    """Seconds of one typical pass: the sum over the pass's jobs of each
    job's median over the untraced (or the traced) passes."""
    rows = [p["jobs"] for p in result["passes"] if p["traced"] == traced]
    return sum(median(row[job][column] for row in rows)
               for job in range(len(rows[0])))


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 specs: list[dict]) -> dict:
    started = time.perf_counter()
    jobs = workloads.jobs_for(name, seed)
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        setup = None if trace else measure_setup(env)
        timeout = DEADLINE_S - (time.perf_counter() - started)
        result = run_worker(jobs, directory, seconds, trace, env,
                            OUT / f"trace-{name}-{seed}.jsonl", timeout)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    failed = failures(jobs, result, pins)
    raw = {}
    if trace:
        values, problems = layer_metrics(result)
    else:
        values = {"wall_s": pass_time(result, False, REF_WALL),
                  "cpu_s": pass_time(result, False, REF_CPU),
                  "setup_s": setup[1],
                  "peak_rss_mb": result["peak_rss_kib"] / 1024}
        raw = {"wall_s": pass_time(result, False, RAW_WALL),
               "cpu_s": pass_time(result, False, RAW_CPU),
               "setup_s": setup[0]}
        problems = []
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {"attempted": len(result["outcomes"]), "failed": len(failed),
            "reasons": failed + problems,
            "passes": len(result["passes"]), "raw": raw,
            "metrics": {s["name"]: {"value": values[s["name"]],
                                    "unit": s["unit"]} for s in specs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.SELECT) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equiloc" / "cli.py").is_file():
        print(f"no equiloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the minors check uses equiloc
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = bench["per_layer" if args.trace else "end_to_end"]
    names = (workloads.REPORTED if args.workload == "all"
             else (args.workload,))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), specs)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for reason in run["reasons"][:20]:
            print(f"{name}: FAILED {reason}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, entry in run["metrics"].items():
            print(f"{name:13s} {metric:33s} {entry['value']:>14.6g} "
                  f"{entry['unit']}")
            total["metrics"][prefix + metric] = entry
        for metric, value in run["raw"].items():
            print(f"{name:13s} {metric + ' (as measured)':33s} "
                  f"{value:>14.6g} s")
        print(f"{name:13s} {'failed_ratio':33s} "
              f"{run['failed'] / run['attempted']:>14.6g} "
              f"({run['failed']}/{run['attempted']} job runs, "
              f"{run['passes']} passes)")
        total["attempted"] += run["attempted"]
        total["failed"] += run["failed"]
        total["correct"] = total["correct"] and not run["reasons"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
