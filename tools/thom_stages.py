"""Print where the time of one Thom polynomial goes: the best of N
in-process runs of each stage, in seconds, and the term counts beside them.

    python tools/thom_stages.py K CODIM [--repeat N]

The stages are ``form`` (the residue form, its body one tagged term per
composition, one tag per S_k-orbit), ``residue`` (the iterated residue, a
polynomial in the tag), ``table`` (the residue again and its read into
the table {lambda: S_k(lambda)}, so ``table`` less ``residue`` is the
read) and ``read`` (the read of ``thom_polynomial``: each orbit of the
table mapped to its Chern monomial); ``thom_polynomial`` times them
together, through the function the command line calls, and its answer
must be the stages' answer.  The
``scan`` row times ``thom-scan`` of orders 1..K at codims 0..CODIM, one
residue per order read at every codim, and each of its answers must be
``thom_polynomial``'s.  Orders 1..4 use the built-in numerator table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from equiloc.residue import iterated_residue  # noqa: E402
from equiloc.thom import (QTable, orbit_table, orbits,  # noqa: E402
                          read_codims, residue_form, thom_polynomial,
                          thom_scan)
from job_stages import best  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("k", type=int, help="order of the singularity, 1..4")
    ap.add_argument("codim", type=int, help="relative codimension")
    ap.add_argument("--repeat", type=int, default=30,
                    help="runs of each stage; the least time is printed")
    args = ap.parse_args(argv)
    k, codim, q = args.k, args.codim, QTable.builtin()
    expected = thom_polynomial(k, codim, q).polynomial  # also validates

    def read(table):
        return read_codims(k, codim, table, [codim])[0].polynomial

    form, lambdas = residue_form(k, codim, q), orbits(k, high=codim)
    tagged = iterated_residue(form)
    table = orbit_table(form, lambdas)
    result = read(table)
    if result != expected:
        print("the stages' answer differs from thom_polynomial's",
              file=sys.stderr)
        return 1
    scan = thom_scan(k, codim, q)
    if any(r.polynomial != thom_polynomial(r.k, r.codim, q).polynomial
           for r in scan):
        print("the scan's answer differs from thom_polynomial's",
              file=sys.stderr)
        return 1
    rows = [("form", lambda: residue_form(k, codim, q),
             f"body {len(form.numerator.terms)} terms, prefactor "
             f"{len(form.prefactor.terms)} terms, "
             f"{len(form.denominators)} denominators"),
            ("residue", lambda: iterated_residue(form),
             f"{len(tagged.terms)} tagged terms out"),
            ("table", lambda: orbit_table(form, lambdas),
             f"{len(table)} of {len(lambdas)} orbits with a nonzero sum"),
            ("read", lambda: read(table),
             f"{len(result.terms)} Chern monomials"),
            ("thom_polynomial", lambda: thom_polynomial(k, codim, q),
             "all of the above"),
            ("scan", lambda: thom_scan(k, codim, q),
             f"{len(scan)} results from {k} residues")]
    times = best([fn for _, fn, _ in rows], args.repeat)
    for (name, _, note), seconds in zip(rows, times):
        print(f"{name:<16} {seconds:.6f} s  {note}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
