"""Print where the time and the terms of one equiloc command go.

    PYTHONPATH=src python tools/stages.py [--repeat R] -- SUBCOMMAND ARGS...

The command runs in-process through ``equiloc.cli.main``: once as it is,
then R times (default 10) with each stage of :data:`STAGES` wrapped by a
timer in every ``equiloc`` module that binds it, so the rows time what
the command calls.  Each run starts with the package's function caches
empty, as a new process does.  One row per stage that ran: its calls in
one run, its least own seconds over the R runs (its time less that of
the stages it called) and the sizes of its results, summed over one run
and read after the timing.  The last row is the least time of the whole
``cli.main``.

Exits 1 if a stage of :data:`STAGES` no longer exists, or if a timed run's
exit code, stdout or stderr differs from the first run's; else with the
command's own exit code.
"""

import argparse
import contextlib
import io
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

from equiloc import cli
from equiloc.algebra import term_list

#: Each stage, by its dotted name in ``equiloc``, and what :func:`sizes`
#: reads of its results (None: nothing).
STAGES = {
    "cli.build_parser": None,
    "algebra.parse_polynomial": "terms", "algebra.parse_factored": "pair",
    "algebra.Polynomial.__str__": "characters",
    "residue.ResidueForm.__new__": "form", "residue.iterated_residue": "terms",
    "residue.residue_job": None, "thom.residue_form": "form",
    "thom.orbit_table": "orbits", "thom.read_codims": "results",
    "thom.thom_polynomial": None, "thom.thom_scan": "results",
    "hyperbolicity._tower_residue": "terms",
    "localization.random_flag_class": "terms",
    "localization.draw_weights": "weights", "localization._read_class": None,
    "localization.flag_fixed_sum": None, "localization.flag_residue": None,
    "localization.run_flag_trials": None, "localization.grass_sum_at": None,
    "jets._integer_rho": None, "jets.kxk_minors": "minors",
}


def sizes(kind: str, result) -> dict:
    """The sizes of one result, read through public names only: the terms
    of a polynomial, of a (prefactor, body) pair, or of a residue form's
    prefactor and body with its denominators; else the result's length."""
    if kind == "form":
        return {**sizes("pair", (result.prefactor, result.numerator)),
                "denominators": len(result.denominators)}
    if kind == "pair":
        return {"prefactor terms": len(term_list(result[0])),
                "body terms": len(term_list(result[1]))}
    return {kind: len(term_list(result) if kind == "terms" else result)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=10, help="timed runs")
    ap.add_argument("command", nargs="+", help="SUBCOMMAND ARGS, after --")
    args = ap.parse_args(argv)
    owners = {}  # each stage's module or class, and its binding there
    for name in STAGES:
        path, _, attr = f"equiloc.{name}".rpartition(".")
        try:
            owner = pkgutil.resolve_name(path)
            owners[name] = owner, vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            print(f"stages.py: no stage {name} in equiloc", file=sys.stderr)
            return 1
    modules = [m for k, m in sys.modules.items() if k.startswith("equiloc")]

    def run():
        """((exit code, stdout, stderr), seconds) of one cli.main call."""
        for cache in {v for m in modules for v in vars(m).values()
                      if hasattr(v, "cache_clear")}:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = cli.main(args.command)
        return (code, out.getvalue(), err.getvalue()), perf_counter() - start

    first, _ = run()
    # every binding of each stage: in its class, or in any module
    wrapped = [(m, a, fn, name) for name, (o, fn) in owners.items()
               for m in {o, *modules} for a, v in vars(m).items() if v is fn]
    calls, inner, runs = defaultdict(list), [0.0], []

    def timer(name, fn):
        def stage(*a, **kw):
            inner.append(0.0)  # the time of the stages this call makes
            result, start = [], perf_counter()
            try:
                result.append(fn(*a, **kw))
                return result[0]
            finally:  # (own seconds,) or (own seconds, result)
                spent = perf_counter() - start
                calls[name].append((spent - inner.pop(), *result))
                inner[-1] += spent
        return stage

    try:
        for owner, attr, fn, name in wrapped:
            setattr(owner, attr, timer(name, fn))
        for _ in range(max(args.repeat, 1)):
            calls.clear()
            outcome, seconds = run()
            if outcome != first:
                print("stages.py: a timed run's exit code, stdout or stderr "
                      "differs from the first run's", file=sys.stderr)
                return 1
            runs.append((seconds, {k: sum(c[0] for c in v)
                                   for k, v in calls.items()}))
    finally:
        for owner, attr, fn, _ in wrapped:
            setattr(owner, attr, fn)
    row = "{:<32} {:>6} {:>10}  {}".format
    print(row("stage", "calls", "own s", "sizes"))
    for name in filter(calls.__contains__, STAGES):
        total = Counter()
        for _, *result in calls[name] if STAGES[name] else ():  # [] if raised
            total.update(*(sizes(STAGES[name], r) for r in result))
        least = min(own[name] for _, own in runs)
        note = ", ".join(f"{n} {label}" for label, n in total.items())
        print(row(name, len(calls[name]), f"{least:.6f}", note).rstrip())
    print(row("cli.main", 1, f"{min(s for s, _ in runs):.6f}", "").rstrip())
    return first[0]


if __name__ == "__main__":
    sys.exit(main())
