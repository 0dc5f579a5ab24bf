"""Runs the passes of one benchmark run in a fresh process.

Usage: ``python3 perfbench/worker.py SPEC RESULT`` with ``src`` on
``PYTHONPATH``.  SPEC is a JSON file ``{"jobs": [[name, argv], ...],
"seconds": s, "trace": bool, "trace_path": path}``.  Jobs run back to back
through ``equiloc.cli.main`` in this one thread (a closed loop with one
client), pass after pass.  An untraced run stops before a pass that would
end past ``seconds``; a traced run alternates untraced and traced passes
until ``seconds`` have elapsed and at least two traced ones ran, so that
their counts can be compared.  A reference clock (``refclock``) runs all
along and gives each job's seconds at the reference speed.  The result
JSON holds every pass's timings and every job's exit code and stdout hash;
the stdout text of each distinct output is kept once for the checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from equiloc import cli

from refclock import RefClock
from tracing import Tracer


def run_job(argv: list[str]) -> tuple[object, str, str, str | None]:
    """Exit code, stdout, stderr and traceback (if any) of one job."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception:  # noqa: BLE001 - a traceback is a failed job
        code = None
        error = traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), error


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs, seconds, traced_run = spec["jobs"], spec["seconds"], spec["trace"]
    tracer = Tracer()
    clock = RefClock()
    clock.start()
    passes, outcomes, texts, summaries, spans = [], [], {}, [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = traced_run and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        stdout_bytes = 0
        results, timings = [], []
        for index, (name, argv) in enumerate(jobs):
            tracer.job = index
            wall0, cpu0 = time.perf_counter(), time.process_time()
            ref_wall0, ref_cpu0 = clock.now()
            results.append(run_job(argv))
            ref_wall1, ref_cpu1 = clock.now()
            timings.append([time.perf_counter() - wall0,
                            time.process_time() - cpu0,
                            ref_wall1 - ref_wall0, ref_cpu1 - ref_cpu0])
        if traced:
            tracer.uninstall()
        for (name, _), (code, out, err, error) in zip(jobs, results):
            data = out.encode("utf-8")
            digest = hashlib.sha256(data).hexdigest()
            texts.setdefault(digest, out)
            stdout_bytes += len(data)
            outcomes.append({"name": name, "code": code, "sha256": digest,
                             "stderr": err, "traceback": error})
        passes.append({"traced": traced, "jobs": timings})
        if traced:
            scale = [t[2] / t[0] if t[0] else 1.0 for t in timings]
            summaries.append(tracer.summary(stdout_bytes, scale))
            spans.extend([len(passes) - 1] + s for s in tracer.spans)
        now = time.perf_counter()
        if traced_run:
            if now - start >= seconds and len(summaries) >= 2:
                break
        elif now - start + (now - pass_start) > seconds:
            break
    clock.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced_run:
        with open(spec["trace_path"], "w", encoding="utf-8") as fh:
            fh.write("# pass, id, parent, job, name, start_s, end_s\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "outcomes": outcomes, "texts": texts,
                   "summaries": summaries, "peak_rss_kib": peak_kib}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
