"""Spans around equiloc's module entry points, wrapped from outside.

The tracer replaces each entry point, in every ``equiloc`` module and class
that binds it, by a wrapper that records a span ``[id, parent, job, name,
start, end]`` and, for some entry points, exact work counts.  Spans stay in
memory until the run ends.  The ``algebra`` entry points are deliberately
coarse: wrapping every ``Polynomial.__mul__`` made flag-check run 1.7x as
long.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

class Tracer:
    """Records spans and counts while installed; :meth:`summary` turns one
    pass's records into per-layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name, fn, count):
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else None
            record = [len(spans), parent, self.job, name, 0.0, 0.0]
            spans.append(record)
            stack.append(record[0])
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, parent, args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, count=None):
        """Wrap ``owner.attr`` and every other binding of the same object
        in the loaded equiloc modules and in ``owner`` itself."""
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, count)
        holders = [m for key, m in sys.modules.items()
                   if key == "equiloc" or key.startswith("equiloc.")]
        if isinstance(owner, type):
            holders.append(owner)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def install(self):
        from equiloc import (algebra, cli, hyperbolicity, jets, localization,
                             residue, thom)
        self.patch(cli, "main", "cli.main")
        for attr in ("intersection_polynomial", "leading_constant",
                     "euler_characteristic"):
            self.patch(hyperbolicity, attr, f"hyperbolicity.{attr}")
        self.patch(thom, "thom_polynomial", "thom.thom_polynomial")
        self.patch(thom, "residue_form", "thom.residue_form", _count_form)
        self.patch(localization, "run_flag_trials",
                   "localization.run_flag_trials")
        self.patch(localization, "grass_integrate",
                   "localization.grass_integrate")
        self.patch(localization, "flag_fixed_sum",
                   "localization.flag_fixed_sum", _count_fixed_points)
        self.patch(localization, "flag_residue", "localization.flag_residue")
        self.patch(jets, "rho", "jets.rho")
        self.patch(jets, "kxk_minors", "jets.kxk_minors", _count_minors)
        self.patch(residue, "residue_job", "residue.residue_job")
        self.patch(residue, "iterated_residue", "residue.iterated_residue",
                   _count_residue)
        self.patch(algebra.LaurentSeries, "__mul__", "algebra.series_mul",
                   _count_series_mul)
        self.patch(algebra.Polynomial, "evaluate", "algebra.evaluate")
        self.patch(algebra, "parse_polynomial", "algebra.parse")
        self.patch(algebra.Polynomial, "__str__", "algebra.format")
        self.patch(algebra, "term_list", "algebra.format")

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- summarizing ---------------------------------------------------------

    def summary(self, stdout_bytes: int, scale: list[float]) -> dict:
        """Per-layer metrics of the spans and counts recorded since the
        last :meth:`reset`.  ``scale[job]`` turns the job's measured
        seconds into seconds at the reference speed (``refclock``)."""
        spans = self.spans
        # a span's layer is its name up to the first dot
        layer = [s[3].split(".", 1)[0] for s in spans]
        above: list[frozenset] = []  # layers of each span's ancestors
        for s in spans:
            p = s[1]
            above.append(frozenset() if p is None
                         else above[p] | {layer[p]})
        dur = [(s[5] - s[4]) * scale[s[2]] for s in spans]
        by_name: Counter = Counter()
        calls: Counter = Counter()
        busy: Counter = Counter()
        for i, s in enumerate(spans):
            by_name[s[3]] += dur[i]
            calls[s[3]] += 1
            if layer[i] not in above[i]:
                busy[layer[i]] += dur[i]
        hyp_residue = sum(dur[i] for i in range(len(spans))
                          if layer[i] == "residue"
                          and "hyperbolicity" in above[i]
                          and "residue" not in above[i])
        cli_children = sum(dur[i] for i, s in enumerate(spans)
                           if s[1] is not None and layer[s[1]] == "cli")
        c = self.counts
        return {
            "cli.calls": calls["cli.main"],
            "cli.self_s": busy["cli"] - cli_children,
            "cli.stdout_bytes": stdout_bytes,
            "hyperbolicity.busy_s": busy["hyperbolicity"],
            "hyperbolicity.self_s": busy["hyperbolicity"] - hyp_residue,
            "hyperbolicity.numerator_terms": c["hyperbolicity.terms"],
            "hyperbolicity.useful_term_ratio": _ratio(
                c["hyperbolicity.useful"], c["hyperbolicity.terms"]),
            "thom.busy_s": busy["thom"],
            "thom.form_s": by_name["thom.residue_form"],
            "thom.numerator_terms": c["thom.terms"],
            "thom.useful_term_ratio": _ratio(c["thom.useful"],
                                             c["thom.terms"]),
            "localization.busy_s": busy["localization"],
            "localization.fixed_sum_s": by_name["localization.flag_fixed_sum"],
            "localization.residue_s": by_name["localization.flag_residue"],
            "localization.fixed_points": c["localization.fixed_points"],
            "jets.rho_s": by_name["jets.rho"],
            "jets.minors_s": by_name["jets.kxk_minors"],
            "jets.minors": c["jets.minors"],
            "jets.det_products": c["jets.det_products"],
            "residue.calls": calls["residue.iterated_residue"],
            "residue.busy_s": busy["residue"],
            "residue.numerator_terms_in": c["residue.terms_in"],
            "residue.denominators": c["residue.denominators"],
            "residue.terms_out": c["residue.terms_out"],
            "algebra.series_mul_calls": calls["algebra.series_mul"],
            "algebra.series_mul_s": by_name["algebra.series_mul"],
            "algebra.series_mul_pairs": c["algebra.series_mul_pairs"],
            "algebra.evaluate_calls": calls["algebra.evaluate"],
            "algebra.evaluate_s": by_name["algebra.evaluate"],
            "algebra.parse_calls": calls["algebra.parse"],
            "algebra.parse_s": by_name["algebra.parse"],
            "algebra.format_s": by_name["algebra.format"],
        }


#: Summary keys computed from exact counts, ratios of counts included;
#: they must repeat exactly.  The other keys are seconds.
COUNT_KEYS = frozenset({
    "cli.calls", "cli.stdout_bytes", "hyperbolicity.numerator_terms",
    "hyperbolicity.useful_term_ratio", "thom.numerator_terms",
    "thom.useful_term_ratio", "localization.fixed_points", "jets.minors",
    "jets.det_products", "residue.calls", "residue.numerator_terms_in",
    "residue.denominators", "residue.terms_out", "algebra.series_mul_calls",
    "algebra.series_mul_pairs", "algebra.evaluate_calls",
    "algebra.parse_calls"})


def _ratio(num: int, den: int) -> float:
    """An exact ratio as a float; 0 where the layer did not run."""
    return float(Fraction(num, den)) if den else 0.0


# -- count hooks: (tracer, parent span id, call args, result) ----------------

def _count_form(tracer, parent, args, form):
    from equiloc.algebra import CHERN

    k, codim = args[0], args[1]
    target = k * (codim + 1)
    terms = form.numerator.terms
    useful = sum(1 for m in terms
                 if sum(e * v.index for v, e in m.exps if v.kind == CHERN)
                 == target)
    tracer.counts["thom.terms"] += len(terms)
    tracer.counts["thom.useful"] += useful


def _count_residue(tracer, parent, args, result):
    form = args[0]
    terms = form.numerator.terms
    c = tracer.counts
    c["residue.terms_in"] += len(terms)
    c["residue.denominators"] += len(form.denominators)
    c["residue.terms_out"] += len(result.terms)
    if parent is None or not tracer.spans[parent][3].startswith(
            "hyperbolicity."):
        return
    # Useful terms carry the full power n of the nilpotent h, the only
    # power the residue is read at; a numerator without h is all useful.
    useful = 0
    for m in terms:
        h = [(v, e) for v, e in m.exps if v.nilpotency is not None]
        if not h or h[0][1] == h[0][0].nilpotency:
            useful += 1
    c["hyperbolicity.terms"] += len(terms)
    c["hyperbolicity.useful"] += useful


def _count_fixed_points(tracer, parent, args, result):
    n, d = args[0], args[1]
    tracer.counts["localization.fixed_points"] += math.perm(n, d)


def _count_minors(tracer, parent, args, result):
    k = len(args[0])
    tracer.counts["jets.minors"] += len(result)
    tracer.counts["jets.det_products"] += len(result) * math.factorial(k)


def _count_series_mul(tracer, parent, args, result):
    a, b = args
    b_terms = len(b.terms) if hasattr(b, "terms") else int(b != 0)
    tracer.counts["algebra.series_mul_pairs"] += len(a.terms) * b_terms
