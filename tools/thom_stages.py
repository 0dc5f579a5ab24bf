"""Print where the time of one Thom polynomial goes: the best of N
in-process runs of each stage, in seconds, and the term counts beside them.

    python tools/thom_stages.py K CODIM [--repeat N]

The stages are ``form`` (the residue form, its body one tagged term per
composition), ``residue`` (the iterated residue, a polynomial in the tag)
and ``decode`` (each tag power read back into its Chern monomial);
``thom_polynomial`` times them together, through the function the command
line calls, and its answer must be the stages' answer.  Orders 1..4 use
the built-in numerator table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from equiloc.residue import iterated_residue  # noqa: E402
from equiloc.thom import (QTable, _untag, residue_form,  # noqa: E402
                          thom_polynomial)
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
    base = k * (codim + 1) + 1

    form = residue_form(k, codim, q)
    tagged = iterated_residue(form)
    result = _untag(tagged, base)
    if result != expected:
        print("the stages' answer differs from thom_polynomial's",
              file=sys.stderr)
        return 1
    rows = [("form", lambda: residue_form(k, codim, q),
             f"body {len(form.numerator.terms)} terms, prefactor "
             f"{len(form.prefactor.terms)} terms, "
             f"{len(form.denominators)} denominators"),
            ("residue", lambda: iterated_residue(form),
             f"{len(tagged.terms)} tagged terms out"),
            ("decode", lambda: _untag(tagged, base),
             f"{len(result.terms)} Chern monomials"),
            ("thom_polynomial", lambda: thom_polynomial(k, codim, q),
             "all of the above")]
    times = best([fn for _, fn, _ in rows], args.repeat)
    for (name, _, note), seconds in zip(rows, times):
        print(f"{name:<16} {seconds:.6f} s  {note}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
