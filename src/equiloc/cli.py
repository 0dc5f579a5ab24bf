"""Single executable exposing all computations as subcommands.

Identical invocations produce byte-identical stdout: the randomized
weight draws of ``grass-integrate`` and ``flag-check`` are driven by
``--seed`` (default 0) and every polynomial is printed in the canonical
term order.  Domain errors exit with code 1, malformed input and bad
arguments with code 2, both with a JSON error object on stderr.

Each handler imports the modules it runs when it runs, so a process
loads only the computing modules of its one subcommand, and ``--help``
and usage errors load none.  Likewise a process builds only its own
subcommand's parser: when the first argument names a subcommand,
:func:`main` builds that one subparser, and any other invocation (none,
``-h``, an unknown name) gets the full parser.  The help, usage and
error texts are the same either way.  Under ``--format text`` no JSON
value is built.
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


def _int(text: str) -> int:
    """An integer read from outside, an option or a q-file order key:
    ASCII digits with an optional minus sign.  ``int()`` alone also reads
    ``" 5"``, ``"+5"``, ``"1_0"`` and the digits of other scripts.
    Raises ValueError, which argparse reports as a bad value."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names the type: "invalid int value: ..."


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
    """Print ``text_value``, or under ``--format json`` the value that the
    zero-argument callable ``json_value`` builds, which text never calls."""
    if args.format == "json":
        print(json.dumps(json_value(), sort_keys=True, indent=2))
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
    try:  # a JSON int, or a string a or a/b; no float, no exponent
        rows = [[_rat(str(x)) for x in row] for row in rows]
    except InputError as exc:
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
            k = _int(key)
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
    _emit(args, out["residue"], lambda: out)


def _cmd_grass_integrate(args):
    from .algebra import format_rational, parse_polynomial
    from .localization import grass_integrate
    cls = parse_polynomial(getattr(args, "class"))
    value = grass_integrate(args.n, args.k, cls, seed=args.seed)
    text = format_rational(value)
    _emit(args, text, lambda: {"n": args.n, "k": args.k,
                               "class": getattr(args, "class"),
                               "integral": text})


def _cmd_flag_check(args):
    from .localization import run_flag_trials
    report = run_flag_trials(args.n, args.d, args.trials, seed=args.seed)
    lines = [f"trial {r['trial']}: value={r['value']} match={r['match']}"
             for r in report["results"]]
    lines.append(f"all_match={report['all_match']}")
    _emit(args, "\n".join(lines), lambda: report)
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
    _emit(args, str(result.polynomial), lambda: _thom_json(result))


def _cmd_thom_scan(args):
    from .algebra import format_rational
    from .thom import positivity_check, thom_scan
    rows, lines = [], []  # rows: each result and the JSON keys it adds
    for result in thom_scan(args.kmax, args.lmax, args.q_file):
        line = f"k={result.k} codim={result.codim}: {result.polynomial}"
        extra = {}
        if args.check_positivity:
            report = positivity_check(result)
            terms = [[m, format_rational(c)] for m, c in report.negative_terms]
            extra["negative_terms"] = terms
            line += ("  [all coefficients nonnegative]"
                     if report.all_nonnegative else "  [NEGATIVE: "
                     + ", ".join(f"{m}={c}" for m, c in terms) + "]")
        rows.append((result, extra))
        lines.append(line)
    _emit(args, "\n".join(lines),
          lambda: [{**_thom_json(result), **extra} for result, extra in rows])


def _cmd_gg(args):
    from . import hyperbolicity
    from .algebra import format_rational
    delta, d = (None if t is None else _rat(t) for t in (args.delta, args.d))
    result = hyperbolicity.intersection_polynomial(args.n, args.q_file)
    values = {v: x for v, x in ((hyperbolicity.DELTA_VAR, delta),
                                (hyperbolicity.D_VAR, d)) if x is not None}
    poly = result.polynomial.evaluate(values) if values else result.polynomial
    text = str(poly)

    def payload():
        out = {"n": args.n, "polynomial": str(result.polynomial),
               "theta": format_rational(result.theta),
               "leading": str(result.leading)}
        out.update((key, value) for key, value in (("delta", args.delta),
                                                   ("d", args.d))
                   if value is not None)
        if values:
            out["value"] = text
        return out
    _emit(args, text, payload)


def _cmd_theta(args):
    from .algebra import format_rational
    from .hyperbolicity import leading_constant
    value = format_rational(leading_constant(args.n, args.q_file))
    _emit(args, value, lambda: {"n": args.n, "theta": value})


def _cmd_euler(args):
    from .algebra import format_rational
    from .hyperbolicity import euler_characteristic
    d = _rat(args.d) if args.d is not None else None
    result = euler_characteristic(args.n, d, args.q_file)
    chi = str(result.chi)
    _emit(args, chi, lambda: {"n": args.n, "chi": chi, **(
        {} if d is None else {"d": format_rational(d)})})


def _cmd_rho(args):
    from .algebra import format_rational
    from .jets import rho
    curve = _load_jet(args.jet, args.n, args.k)
    matrix = [[format_rational(x) for x in row] for row in rho(curve)]
    text = "\n".join("\t".join(row) for row in matrix)
    _emit(args, text, lambda: {"n": args.n, "k": args.k,
                               "basis": _basis_labels(args.n, args.k),
                               "matrix": matrix})


def _cmd_minors(args):
    from .algebra import format_rational
    from .jets import invariant_minors
    curve = _load_jet(args.jet, args.n, args.k)
    minors = [format_rational(x) for x in invariant_minors(curve)]
    _emit(args, "\n".join(minors),
          lambda: {"n": args.n, "k": args.k, "minors": minors})


class _ArgParser(argparse.ArgumentParser):
    """Raises :class:`InputError` where argparse would print usage and exit."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _option(*flags, **kwargs) -> tuple:
    """One ``add_argument`` call, as its (flags, keywords)."""
    return flags, kwargs


_FORMAT = _option("--format", choices=("text", "json"), default="text")
_SEED = _option("--seed", type=_int, default=0,
                help="seed for randomized weight draws")
_Q_FILE = _option("--q-file", type=_load_qtable, default=None,
                  help="JSON map of extra numerator polynomials")
_N = _option("--n", type=_int, required=True)
_K = _option("--k", type=_int, required=True)
_JET = (_N, _K, _option("--jet", required=True, help="path to the jet file"))

#: Each subcommand: its handler, its help line and its options after
#: ``--format``, in the order ``--help`` lists them.
_COMMANDS = {
    "residue": (_cmd_residue, "run a JSON residue job", (
        _option("--job", required=True, help="path to the job file"),)),
    "grass-integrate": (
        _cmd_grass_integrate, "intersection number on Grass(k, n)", (
            _SEED, _N, _K, _option("--class", required=True,
                                   help="polynomial in c1..ck, "
                                   "e.g. 'c1^2*c2'"))),
    "flag-check": (
        _cmd_flag_check, "fixed-point vs residue identity trials", (
            _SEED, _N, _option("--d", type=_int, required=True),
            _option("--trials", type=_int, default=20))),
    "thom": (_cmd_thom, "singularity-locus polynomial", (
        _Q_FILE, _K, _option("--codim", type=_int, default=0))),
    "thom-scan": (
        _cmd_thom_scan, "table of polynomials over a (k, codim) range", (
            _Q_FILE, _option("--kmax", type=_int, required=True),
            _option("--lmax", type=_int, required=True),
            _option("--check-positivity", action="store_true"))),
    "gg": (
        _cmd_gg, "hypersurface intersection polynomial p(n, d, delta)", (
            _Q_FILE, _N, _option("--delta", default=None),
            _option("--d", default=None))),
    "theta": (_cmd_theta, "leading-coefficient constant", (_Q_FILE, _N)),
    "euler": (
        _cmd_euler, "Euler characteristic of the weight-m jet sheaf", (
            _Q_FILE, _N, _option("--d", default=None,
                                 help="hypersurface degree; "
                                 "omit to keep it symbolic"))),
    "rho": (_cmd_rho, "jet embedding matrix", _JET),
    "minors": (_cmd_minors, "maximal minors of the jet embedding matrix",
               _JET),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """The ``equiloc`` parser, with the subparser of every subcommand, or
    of the one named ``only``."""
    parser = _ArgParser(
        prog="equiloc",
        description="exact localization / iterated-residue calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=text)
            for flags, kwargs in (_FORMAT, *options):
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(only).parse_args(argv)
        args.func(args)
    except EquilocError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
