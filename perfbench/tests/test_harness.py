"""Tests of the benchmark harness on tiny inputs (gg --n 2, thom --k 2, one
small residue job, one small flag-check, one jet).  These inputs are never
used for reported numbers.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from refclock import REF_UNIT_S, RefClock, reference_unit  # noqa: E402
from equiloc import cli  # noqa: E402
from tracing import COUNT_KEYS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def harness(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def tiny(trace: int) -> dict:
    proc = harness("--workload", "tiny", "--seed", "3", "--seconds", "1",
                   "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_stdout(job: workloads.Job, tmp_path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(job.materialize(str(tmp_path))) == 0
    return out.getvalue()


def tiny_job(kind: str) -> workloads.Job:
    return next(j for j in workloads.jobs_for("tiny", 0) if j.kind == kind)


def test_untraced_run_prints_every_end_to_end_metric():
    result = tiny(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 5
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    for spec in SPEC["end_to_end"]:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"] and entry["value"] > 0


def test_reference_clock_reads_reference_units_at_the_reference_speed():
    clock = RefClock()
    clock.start()
    try:
        start = clock.now()
        for _ in range(100):
            reference_unit()
        end = clock.now()
    finally:
        clock.stop()
    assert clock.samples > 1
    for side in (0, 1):  # wall, CPU
        # the host's speed may change in between, hence the loose margin
        assert 0.67 < (end[side] - start[side]) / (100 * REF_UNIT_S) < 1.5


def test_traced_runs_report_every_layer_and_repeat_their_counts():
    first, second = tiny(1), tiny(1)
    assert first["correct"] and second["correct"]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(first["metrics"])
    counts = {k: first["metrics"][k]["value"] for k in COUNT_KEYS}
    assert counts == {k: second["metrics"][k]["value"] for k in COUNT_KEYS}
    assert counts["cli.calls"] == 5
    assert counts["jets.minors"] == 84  # C(9, 3) minors of one 3-jet
    assert counts["jets.det_products"] == 84 * 6
    assert counts["localization.fixed_points"] == 2 * 3 * 12
    for key in ("residue.calls", "algebra.series_mul_calls",
                "algebra.evaluate_calls", "algebra.parse_calls"):
        assert counts[key] > 0
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_metric_notes_cover_exactly_the_declared_metrics():
    notes = json.loads((BENCH / "metrics.json").read_text(encoding="utf-8"))
    assert set(notes["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(notes["end_to_end"]) == {m["name"]
                                        for m in SPEC["end_to_end"]}
    assert set(notes["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(workloads.REPORTED) == set(notes["workloads"])


def test_every_selectable_job_is_pinned():
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    assert {job.name for job in workloads.pool()} == set(pins)
    for name in workloads.REPORTED:
        for seed in (0, 1, 2**40):
            assert all(j.name in pins for j in workloads.jobs_for(name, seed))


def test_same_seed_same_inputs():
    for name in workloads.REPORTED:
        assert workloads.jobs_for(name, 7) == workloads.jobs_for(name, 7)
    assert workloads.jobs_for("minors", 7) != workloads.jobs_for("minors", 8)


@pytest.mark.parametrize("kind", ["gg", "thom", "residue", "flag-check",
                                  "minors"])
def test_checks_accept_the_program_output(kind, tmp_path):
    job = tiny_job(kind)
    assert checks.check(kind, job.info, cli_stdout(job, tmp_path)) is None


def test_checks_reject_altered_outputs(tmp_path):
    gg = tiny_job("gg")
    payload = json.loads(cli_stdout(gg, tmp_path))
    payload["theta"] = str(2 * int(payload["theta"]))
    assert checks.check("gg", gg.info, json.dumps(payload))
    thom = tiny_job("thom")
    assert checks.check("thom", thom.info, "c1^2 + 2*c2\n")
    assert checks.check("thom", thom.info, "c1^2 + c3\n")
    assert checks.check("thom", thom.info, "c1^2 - c2\n")
    residue = tiny_job("residue")
    value = int(cli_stdout(residue, tmp_path))
    assert checks.check("residue", residue.info, f"{value + 1}\n")
    flag = tiny_job("flag-check")
    text = cli_stdout(flag, tmp_path)
    assert checks.check("flag-check", flag.info,
                        text.replace("match=True", "match=False", 1))
    assert checks.check("flag-check", flag.info,
                        text.split("\n", 1)[1])
    minors = tiny_job("minors")
    lines = cli_stdout(minors, tmp_path).split("\n")
    lines[5] = "1/7"
    assert checks.check("minors", minors.info, "\n".join(lines))
    assert checks.check("gg", gg.info, "not json")


def test_parse_sum_reads_the_canonical_printing():
    from equiloc.algebra import parse_polynomial

    text = str(parse_polynomial("3/2*d^2*delta - d + 7 - c1*c2^3"))
    assert checks.parse_sum(text) == {
        (("d", 2), ("delta", 1)): 3 / checks.Fraction(2),
        (("d", 1),): -1, (): 7, (("c1", 1), ("c2", 3)): -1}


def test_failures_count_hash_mismatch_exit_code_and_traceback():
    job = tiny_job("thom")
    digest = "0" * 64
    result = {"texts": {digest: "c1^2 + c2\n"}, "outcomes": [
        {"name": job.name, "code": 0, "sha256": digest, "stderr": "",
         "traceback": None},
        {"name": job.name, "code": 1, "sha256": digest, "stderr": "{}",
         "traceback": None},
        {"name": job.name, "code": None, "sha256": digest, "stderr": "",
         "traceback": "Traceback\nValueError: x"}]}
    assert len(run.failures([job], result, {job.name: digest})) == 2
    assert len(run.failures([job], result, {job.name: "f" * 64})) == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = harness("--workload", "minors", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
