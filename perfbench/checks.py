"""Independent checks of each job's stdout, run outside the timed passes.

Each check returns ``None`` when the output is right and a short reason
otherwise.  Polynomial outputs are read with the small parser below, not
with equiloc's grammar, and the residue answers are compared with a
fixed-point sum written here from the localization formula.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction

_RATIONAL = re.compile(r"^\d+(/\d+)?$")

#: Thom polynomials of orders 2 and 3 at codim 0 (criteria 4 and 5).
_GOLDEN_THOM = {(2, 0): "c1^2 + c2", (3, 0): "c1^3 + 3*c1*c2 + 2*c3"}


def parse_sum(text: str) -> dict:
    """A printed polynomial as ``{((name, exp), ...): Fraction}``; reads
    the canonical form ``[-]t1 +|- t2 ...`` with ``t = [coef*]v^e*w...``."""
    terms: dict = {}
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        coef, factors = Fraction(1), token.split("*")
        if _RATIONAL.match(factors[0]):
            coef = Fraction(factors.pop(0))
        mono = []
        for f in factors:
            name, _, exp = f.partition("^")
            mono.append((name, int(exp) if exp else 1))
        key = tuple(sorted(mono))
        if key in terms:
            raise ValueError(f"monomial {key} printed twice")
        terms[key] = sign * coef
        sign = 1
    return terms


def _evaluate(poly: dict, values: dict) -> dict:
    out: dict = {}
    for mono, c in poly.items():
        rest = []
        for name, e in mono:
            if name in values:
                c *= Fraction(values[name]) ** e
            else:
                rest.append((name, e))
        key = tuple(rest)
        out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


def check_gg(info: dict, stdout: str) -> str | None:
    """Criterion 8: the d^n coefficient is (1 - n^2 C(n+1,2) delta) theta
    with its root at 2/(n^3 (n+1)); and the value is p at (delta, d)."""
    n = info["n"]
    payload = json.loads(stdout)
    theta = Fraction(payload["theta"])
    leading = parse_sum(payload["leading"])
    poly = parse_sum(payload["polynomial"])
    factor = n * n * math.comb(n + 1, 2)
    if theta <= 0:
        return f"theta {theta} is not positive"
    if leading != {(): theta, (("delta", 1),): -factor * theta}:
        return "leading coefficient is not (1 - n^2 C(n+1,2) delta) theta"
    if _evaluate(leading, {"delta": Fraction(2, n ** 3 * (n + 1))}):
        return "leading coefficient does not vanish at 2/(n^3(n+1))"
    top = {tuple(p for p in m if p[0] != "d"): c for m, c in poly.items()
           if dict(m).get("d") == n}
    if top != leading:
        return "d^n coefficient of p differs from the leading coefficient"
    value = _evaluate(poly, {"delta": info["delta"], "d": info["d"]})
    if value != ({(): Fraction(payload["value"])}
                 if Fraction(payload["value"]) else {}):
        return "value is not p at the given delta and d"
    return None


def check_thom(info: dict, stdout: str) -> str | None:
    """Criteria 3 to 7: nonnegative integer coefficients, Chern weight
    k(codim+1) everywhere, and the golden values of orders 1 to 3."""
    k, codim = info["k"], info["codim"]
    poly = parse_sum(stdout.strip())
    if not poly:
        return "empty polynomial"
    for mono, c in poly.items():
        if c.denominator != 1 or c < 0:
            return f"coefficient {c} is not a nonnegative integer"
        if any(not re.fullmatch(r"c\d+", name) for name, _ in mono):
            return f"monomial {mono} is not in the Chern classes"
        if sum(int(name[1:]) * e for name, e in mono) != k * (codim + 1):
            return f"monomial {mono} has the wrong Chern weight"
    golden = (f"c{codim + 1}" if k == 1
              else _GOLDEN_THOM.get((k, codim)))
    if golden is not None and poly != parse_sum(golden):
        return f"differs from the golden value {golden}"
    return None


def fixed_point_sum(n: int, d: int, cls: dict, weights) -> Fraction:
    """Pushforward of a class in z1..zd from the flag manifold Fl_d(C^n):
    the sum over ordered d-tuples of distinct weights of the class at the
    tuple over the product of the tangent weights."""
    total = Fraction(0)
    for seq in itertools.permutations(range(n), d):
        full = list(seq) + [j for j in range(n) if j not in seq]
        w = [weights[j] for j in full]
        num = sum(c * math.prod(w[int(name[1:]) - 1] ** e for name, e in mono)
                  for mono, c in cls.items())
        den = math.prod(w[i] - w[m] for m in range(d) for i in range(m + 1, n))
        total += Fraction(num) / den
    return total


def check_residue(info: dict, stdout: str) -> str | None:
    """The residue of a flag pushforward job equals its fixed-point sum at
    seeded distinct integer weights."""
    n, d = info["n"], info["d"]
    weights = random.Random(info["weights_seed"]).sample(
        range(-10 ** 6, 10 ** 6), n)
    expected = fixed_point_sum(n, d, parse_sum(info["class"]), weights)
    if Fraction(stdout.strip()) != expected:
        return f"residue {stdout.strip()} != fixed-point sum {expected}"
    return None


def check_flag(info: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    trials = [line for line in lines if line.startswith("trial ")]
    if len(trials) != info["trials"]:
        return f"{len(trials)} trial lines for {info['trials']} trials"
    if not all(line.endswith(" match=True") for line in trials):
        return "a trial did not match"
    if lines[-1:] != ["all_match=True"]:
        return "all_match is not True"
    return None


def _det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [list(r) for r in rows]
    k = len(a)
    result = Fraction(1)
    for c in range(k):
        pivot = next((r for r in range(c, k) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        p = a[c][c]
        result *= p
        for r in range(c + 1, k):
            f = a[r][c] / p
            if f:
                for j in range(c + 1, k):
                    a[r][j] -= f * a[c][j]
    return result


def check_minors(info: dict, stdout: str) -> str | None:
    """The printed minors of a jet equal the minors of the jet composed
    with a seeded unipotent reparametrization."""
    from equiloc.jets import JetCurve, ReparamJet, compose, rho

    rows = [[Fraction(x) for x in row] for row in info["rows"]]
    k = len(rows)
    rng = random.Random(info["phi_seed"])
    phi = ReparamJet([1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                            for _ in range(k - 1)])
    matrix = rho(compose(JetCurve(rows), phi))
    expected = [_det([[row[j] for j in cols] for row in matrix])
                for cols in itertools.combinations(range(len(matrix[0])), k)]
    printed = [Fraction(x) for x in stdout.split()]
    if printed != expected:
        return "minors differ from those of the reparametrized jet"
    return None


CHECKS = {"gg": check_gg, "thom": check_thom, "residue": check_residue,
          "flag-check": check_flag, "minors": check_minors}


def check(kind: str, info: dict, stdout: str) -> str | None:
    """Reason the output is wrong, or None; malformed output is wrong."""
    try:
        return CHECKS[kind](info, stdout)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
