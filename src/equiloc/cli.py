"""Single executable exposing all computations as subcommands.

Identical invocations produce byte-identical stdout: the randomized
weight draws of ``grass-integrate`` and ``flag-check`` are driven by
``--seed`` (default 0) and every polynomial is printed in the canonical
term order.  Domain errors exit with code 1, malformed input and bad
arguments with code 2, both with a JSON error object on stderr.

Each handler imports the modules it runs when it runs, so a process
loads only the computing modules of its one subcommand, and ``--help``
and usage errors load none.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import DomainError, EquilocError, InputError


def _rat(text: str) -> Fraction:
    """A rational literal of the polynomial grammar, ``a`` or ``a/b``, with
    an optional sign."""
    if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # over the digit limit, b = 0
            pass
    raise InputError(f"not a rational number: {text!r}")


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; InputError when a key repeats, since any one
    reading of it would be a guess."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise InputError(f"repeated JSON key: {key!r}")
        data[key] = value
    return data


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(
            f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    return data


def _emit(args, text_value, json_value):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True, indent=2))
    else:
        print(text_value)


def _load_jet(path: str, n: int, k: int):
    from .jets import JetCurve
    data = _load_json(path)
    arrays = [a for a in ("coefficients", "derivatives") if a in data]
    if len(arrays) != 1:
        raise InputError("jet file needs one 'coefficients' or one "
                         "'derivatives' array")
    rows, derivative = data[arrays[0]], arrays == ["derivatives"]
    if (min(n, k) < 1 or not isinstance(rows, list) or len(rows) != k
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise InputError(f"jet file must hold a {k} x {n} array, n, k >= 1")
    try:
        rows = [[Fraction(str(x)) for x in row] for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad jet entry: {exc}") from exc
    if derivative:
        return JetCurve.from_derivatives(rows)
    return JetCurve(rows)


def _load_qtable(path: str):
    from .algebra import parse_polynomial
    from .thom import QTable
    table = QTable.builtin()
    data = _load_json(path)
    for key in sorted(data):
        try:
            k = int(key)
        except ValueError as exc:
            raise InputError(f"bad order key in q-file: {key!r}") from exc
        table = table.with_entry(k, parse_polynomial(data[key]))
    return table


def _basis_labels(n: int, k: int) -> list[str]:
    from .jets import sym_basis
    labels = []
    for exps in sym_basis(n, k):
        parts = [f"e{i + 1}" if e == 1 else f"e{i + 1}^{e}"
                 for i, e in enumerate(exps) if e]
        labels.append("*".join(parts))
    return labels


# -- subcommand handlers -------------------------------------------------

def _cmd_residue(args):
    from .residue import residue_job
    job = _load_json(args.job)
    out = residue_job(job)
    _emit(args, out["residue"], out)


def _cmd_grass_integrate(args):
    from .algebra import format_rational, parse_polynomial
    from .localization import grass_integrate
    cls = parse_polynomial(getattr(args, "class"))
    value = grass_integrate(args.n, args.k, cls, seed=args.seed)
    _emit(args, format_rational(value),
          {"n": args.n, "k": args.k, "class": getattr(args, "class"),
           "integral": format_rational(value)})


def _cmd_flag_check(args):
    from .localization import run_flag_trials
    report = run_flag_trials(args.n, args.d, args.trials, seed=args.seed)
    lines = [f"trial {r['trial']}: value={r['value']} match={r['match']}"
             for r in report["results"]]
    lines.append(f"all_match={report['all_match']}")
    _emit(args, "\n".join(lines), report)
    if not report["all_match"]:
        raise DomainError("fixed-point and residue values disagreed")


def _thom_json(result) -> dict:
    """The JSON row of a :class:`~equiloc.thom.ThomResult`."""
    from .algebra import format_rational, term_list
    return {"k": result.k, "codim": result.codim,
            "polynomial": str(result.polynomial),
            "terms": [[m, format_rational(c)]
                      for m, c in term_list(result.polynomial)],
            "sign_calibration": result.sign_calibration}


def _cmd_thom(args):
    from .thom import thom_polynomial
    result = thom_polynomial(args.k, args.codim, args.q_file)
    _emit(args, str(result.polynomial), _thom_json(result))


def _cmd_thom_scan(args):
    from .algebra import format_rational
    from .thom import positivity_check, thom_scan
    rows, lines = [], []
    for result in thom_scan(args.kmax, args.lmax, args.q_file):
        entry = _thom_json(result)
        line = f"k={result.k} codim={result.codim}: {result.polynomial}"
        if args.check_positivity:
            report = positivity_check(result)
            entry["negative_terms"] = [[m, format_rational(c)]
                                       for m, c in report.negative_terms]
            line += ("  [all coefficients nonnegative]"
                     if report.all_nonnegative
                     else f"  [NEGATIVE: {report.negative_terms}]")
        rows.append(entry)
        lines.append(line)
    _emit(args, "\n".join(lines), rows)


def _cmd_gg(args):
    from . import hyperbolicity
    from .algebra import format_rational
    delta, d = (None if t is None else _rat(t) for t in (args.delta, args.d))
    result = hyperbolicity.intersection_polynomial(args.n, args.q_file)
    payload = {"n": args.n, "polynomial": str(result.polynomial),
               "theta": format_rational(result.theta),
               "leading": str(result.leading)}
    values = {}
    if delta is not None:
        values[hyperbolicity.DELTA_VAR] = delta
        payload["delta"] = args.delta
    if d is not None:
        values[hyperbolicity.D_VAR] = d
        payload["d"] = args.d
    poly = result.polynomial
    if values:
        poly = poly.evaluate(values)
        payload["value"] = str(poly)
    _emit(args, str(poly), payload)


def _cmd_theta(args):
    from .algebra import format_rational
    from .hyperbolicity import leading_constant
    value = format_rational(leading_constant(args.n, args.q_file))
    _emit(args, value, {"n": args.n, "theta": value})


def _cmd_euler(args):
    from .algebra import format_rational
    from .hyperbolicity import euler_characteristic
    d = _rat(args.d) if args.d is not None else None
    result = euler_characteristic(args.n, d, args.q_file)
    payload = {"n": args.n, "chi": str(result.chi)}
    if d is not None:
        payload["d"] = format_rational(d)
    _emit(args, str(result.chi), payload)


def _cmd_rho(args):
    from .algebra import format_rational
    from .jets import rho
    curve = _load_jet(args.jet, args.n, args.k)
    matrix = [[format_rational(x) for x in row] for row in rho(curve)]
    text = "\n".join("\t".join(row) for row in matrix)
    _emit(args, text, {"n": args.n, "k": args.k,
                       "basis": _basis_labels(args.n, args.k),
                       "matrix": matrix})


def _cmd_minors(args):
    from .algebra import format_rational
    from .jets import invariant_minors
    curve = _load_jet(args.jet, args.n, args.k)
    minors = [format_rational(x) for x in invariant_minors(curve)]
    _emit(args, "\n".join(minors),
          {"n": args.n, "k": args.k, "minors": minors})


class _ArgParser(argparse.ArgumentParser):
    """Raises :class:`InputError` where argparse would print usage and exit."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _ArgParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    seeded = _ArgParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for randomized weight draws")
    tabled = _ArgParser(add_help=False)
    tabled.add_argument("--q-file", type=_load_qtable, default=None,
                        help="JSON map of extra numerator polynomials")
    jet = _ArgParser(add_help=False)
    jet.add_argument("--n", type=int, required=True)
    jet.add_argument("--k", type=int, required=True)
    jet.add_argument("--jet", required=True, help="path to the jet file")

    parser = _ArgParser(
        prog="equiloc",
        description="exact localization / iterated-residue calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residue", parents=[common],
                       help="run a JSON residue job")
    p.add_argument("--job", required=True, help="path to the job file")
    p.set_defaults(func=_cmd_residue)

    p = sub.add_parser("grass-integrate", parents=[common, seeded],
                       help="intersection number on Grass(k, n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--class", required=True,
                   help="polynomial in c1..ck, e.g. 'c1^2*c2'")
    p.set_defaults(func=_cmd_grass_integrate)

    p = sub.add_parser("flag-check", parents=[common, seeded],
                       help="fixed-point vs residue identity trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_flag_check)

    p = sub.add_parser("thom", parents=[common, tabled],
                       help="singularity-locus polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--codim", type=int, default=0)
    p.set_defaults(func=_cmd_thom)

    p = sub.add_parser("thom-scan", parents=[common, tabled],
                       help="table of polynomials over a (k, codim) range")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--check-positivity", action="store_true")
    p.set_defaults(func=_cmd_thom_scan)

    p = sub.add_parser("gg", parents=[common, tabled],
                       help="hypersurface intersection polynomial p(n, d, delta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--d", default=None)
    p.set_defaults(func=_cmd_gg)

    p = sub.add_parser("theta", parents=[common, tabled],
                       help="leading-coefficient constant")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("euler", parents=[common, tabled],
                       help="Euler characteristic of the weight-m jet sheaf")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", default=None, help="hypersurface degree; "
                   "omit to keep it symbolic")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("rho", parents=[common, jet],
                       help="jet embedding matrix")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("minors", parents=[common, jet],
                       help="maximal minors of the jet embedding matrix")
    p.set_defaults(func=_cmd_minors)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except EquilocError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
