"""Print where the time of one flag-check job goes: the best of R
in-process runs of each stage, in seconds, and the sizes beside them.

    python tools/flag_stages.py N D TRIALS SEED [--repeat R]

The job is ``equiloc flag-check --n N --d D --trials TRIALS --seed SEED``.
Its stages follow ``localization.run_flag_trials``: ``draws`` (the random
classes and their weight draws, from one seeded stream), ``reading``
(each class read once, ``localization._flag_reading``: checked, and its
alternant tree built), ``fixed_sums`` (``flag_fixed_sum`` at every draw)
and ``residues`` (``flag_residue`` at every draw), both served the
readings already made, as a trial's calls after its first are, and
``report`` (each trial's class and value as text, and whether its fixed
sums and residues make one set of a single value).  The reading cache is
emptied before each run of a stage.  ``run_flag_trials`` times them together, and its report must be
the stages' report, or the tool exits 1.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from equiloc import localization  # noqa: E402
from equiloc.localization import (WEIGHT_DRAWS,  # noqa: E402
                                  _flag_reading, draw_weights,
                                  flag_fixed_sum, flag_residue,
                                  random_flag_class, run_flag_trials)
from job_stages import best  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for name in ("n", "d", "trials", "seed"):
        ap.add_argument(name, type=int)
    ap.add_argument("--repeat", type=int, default=10,
                    help="runs of each stage; the least time is printed")
    args = ap.parse_args(argv)
    n, d, trials, seed = args.n, args.d, args.trials, args.seed
    expected = run_flag_trials(n, d, trials, seed)  # also validates n, d

    def draws():
        rng = random.Random(seed)
        return [(random_flag_class(n, d, rng),
                 [draw_weights(n, rng) for _ in range(WEIGHT_DRAWS)])
                for _ in range(trials)]

    drawn = draws()

    def reading():
        # draw_weights draws integers: every draw has the scale L = 1
        return {(Q, d, 1): _flag_reading(Q, d, 1) for Q, _ in drawn}

    readings = reading()

    def served(stage):
        """``stage`` with each reading looked up in ``readings``."""
        def run():
            localization._flag_reading = lambda *key: readings[key]
            try:
                return stage()
            finally:
                localization._flag_reading = _flag_reading
        return run

    @served
    def fixed_sums():
        return [[flag_fixed_sum(n, d, Q, w) for w in ws] for Q, ws in drawn]

    @served
    def residues():
        return [[flag_residue(n, d, Q, w) for w in ws] for Q, ws in drawn]

    fixed, residual = fixed_sums(), residues()

    def report():
        results = [{"trial": t, "class": str(Q), "value": str(fs[0]),
                    "match": len({*fs, *fr}) == 1}
                   for t, ((Q, _), fs, fr) in enumerate(zip(drawn, fixed,
                                                            residual))]
        return {"n": n, "d": d, "trials": trials, "seed": seed,
                "all_match": all(r["match"] for r in results),
                "results": results}

    if report() != expected:
        print("the stages' report differs from run_flag_trials'",
              file=sys.stderr)
        return 1
    calls = trials * WEIGHT_DRAWS
    rows = [("draws", draws, f"{trials} classes, "
             f"{sum(len(Q.terms) for Q, _ in drawn)} terms"),
            ("reading", reading, f"{len(readings)} classes read"),
            ("fixed_sums", fixed_sums,
             f"{calls} sums of {math.comb(n, d)} subsets each"),
            ("residues", residues, f"{calls} residues"),
            ("report", report, ""),
            ("run_flag_trials", lambda: run_flag_trials(n, d, trials, seed),
             "all of the above")]
    # each run starts from an empty reading cache: no stage finds a
    # reading that another stage, or its own last run, left there
    times = best([lambda fn=fn: (_flag_reading.cache_clear(), fn())
                  for _, fn, _ in rows], args.repeat)
    for (name, _, note), seconds in zip(rows, times):
        print(f"{name:<15} {seconds:.6f} s  {note}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
