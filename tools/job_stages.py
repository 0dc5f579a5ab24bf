"""Print where the time of one residue job goes: the best of N in-process
runs of each stage, in seconds, and the term counts beside them.

    python tools/job_stages.py JOB.json [--repeat N]

JOB.json holds a job as ``equiloc residue --job`` reads it.  The stages are
``numerator`` (its text parsed, kept factored), ``denominators`` (their
texts parsed), ``form`` (the ResidueForm and its variable checks),
``residue`` (the iterated residue: the denominator split on dense keys,
then the peels) and ``print`` (the answer's text);
``residue_job`` times them together, through the function the command
line calls, and its answer must be the stages' answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from equiloc.algebra import (parse_factored,  # noqa: E402
                             parse_polynomial, zvar)
from equiloc.residue import (ResidueForm,  # noqa: E402
                             iterated_residue, residue_job)


def best(fns, repeat: int) -> list[float]:
    """The least wall time of ``repeat`` calls of each of ``fns``, called
    in turn, so that a stretch of slow host time falls on all of them."""
    times = [float("inf")] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            start = perf_counter()
            fn()
            times[i] = min(times[i], perf_counter() - start)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("job", help="residue job file (JSON)")
    ap.add_argument("--repeat", type=int, default=30,
                    help="runs of each stage; the least time is printed")
    args = ap.parse_args(argv)
    with open(args.job, encoding="utf-8") as fh:
        job = json.load(fh)
    expected = residue_job(job)["residue"]  # also validates the job

    def numerator():
        return parse_factored(job["numerator"])

    def denominators():
        return tuple(parse_polynomial(t) for t in job["denominators"])

    prefactor, body = numerator()
    dens = denominators()
    order = tuple(zvar(int(name[1:])) for name in job["order"])

    def form():
        return ResidueForm(body, dens, order, prefactor=prefactor)

    result = iterated_residue(form())
    if str(result) != expected:
        print("the stages' answer differs from residue_job's", file=sys.stderr)
        return 1
    rows = [("numerator", numerator, f"prefactor {len(prefactor.terms)} "
             f"terms, body {len(body.terms)} terms, "
             f"{len(job['numerator'])} characters"),
            ("denominators", denominators, f"{len(dens)} texts"),
            ("form", form, ""),
            ("residue", lambda: iterated_residue(form()),
             f"{len(result.terms)} terms out"),
            ("print", lambda: str(result), f"{len(expected)} characters"),
            ("residue_job", lambda: residue_job(job), "all of the above")]
    times = best([fn for _, fn, _ in rows], args.repeat)
    for (name, _, note), seconds in zip(rows, times):
        print(f"{name:<13} {seconds:.6f} s  {note}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
