"""Thom polynomials of corank-one (curvilinear) singularity loci via the
iterated-residue formula, with positivity and coefficient-ratio reports.

The residue form, its contour and its sign are built in one place,
:func:`curvilinear_form`: its plain iterated residue is the calibrated
value, and the hyperbolicity module reads its tower residues the same way.
The residue keeps Chern weight, so only the Thom polynomial's is built.
No Chern class meets a denominator or the prefactor either, so the body
carries none: each Chern monomial is one power of a private tag variable,
which names the S_k-orbit of the exponent vectors it came from, and
:func:`thom_polynomial` reads the Chern monomials back off the tags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .algebra import (RESIDUE, Monomial, Polynomial, Slate, compositions,
                      cvar, svar, vandermonde, zvar)
from .errors import InputError, MissingQ, SizeLimitExceeded
from .residue import ResidueForm, iterated_residue

_BUILTIN_Q = {
    1: Polynomial.one(),
    2: Polynomial.one(),
    3: Polynomial.one(),
    4: (2 * Polynomial.var(zvar(1)) + Polynomial.var(zvar(2))
        - Polynomial.var(zvar(4))),
}


@dataclass(frozen=True)
class QTable:
    """Numerator polynomials of the residue formula, indexed by the order k.
    Orders 1..4 are built in; user-supplied entries may add other orders,
    each once."""

    entries: MappingProxyType = field(
        default_factory=lambda: MappingProxyType(dict(_BUILTIN_Q)))

    @classmethod
    def builtin(cls) -> "QTable":
        return cls()

    def with_entry(self, k: int, poly: Polynomial) -> "QTable":
        if k < 1:
            raise InputError(f"order k must be >= 1, got {k}")
        if k in self.entries:  # built in, or a q-file naming k twice
            raise InputError(f"will not override the entry for k={k}")
        bad = [v.name for v in poly.variables()
               if v.kind != RESIDUE or not (1 <= v.index <= k)]
        if bad:
            raise InputError(
                f"entry for k={k} may only use z1..z{k}, found {bad}")
        new = dict(self.entries)
        new[k] = poly
        return QTable(MappingProxyType(new))

    def get(self, k: int) -> Polynomial:
        if k < 1:
            raise InputError(f"order k must be >= 1, got {k}")
        try:
            return self.entries[k]
        except KeyError:
            raise MissingQ(f"no numerator polynomial for order k={k}") from None


@dataclass(frozen=True)
class ThomResult:
    k: int
    codim: int
    polynomial: Polynomial
    sign_calibration: int


def denominator_triples(k: int) -> list[tuple[int, int, int]]:
    """All (i, j, l) with 1 <= i <= j and i + j <= l <= k."""
    return [(i, j, l)
            for i in range(1, k + 1)
            for j in range(i, k + 1)
            for l in range(i + j, k + 1)]


def curvilinear_form(k: int, qk: Polynomial, *factors) -> ResidueForm:
    """The calibrated residue form of order k: numerator ``(-1)^k Q_k *
    prod_{i<j}(z_i - z_j)`` (``qk`` is the table entry) times the given
    factors; denominators ``z_i + z_j - z_l`` over
    :func:`denominator_triples`; contour ``z_1..z_k``, ``z_k`` most dominant.

    The factor with the most terms is the form's numerator, multiplied by
    nothing; ``(-1)^k Q_k``, the Vandermonde and the other factors make up
    its prefactor, which the engine multiplies slice by slice into the
    denominator expansions at the first peel.  The global sign ``(-1)^k``
    cancels the engine's orientation ``(-1)^k``, so the iterated residue
    of this form is the plain ``(z_1...z_k)^-1`` coefficient of the
    expansion.  This makes the k = 1 family come out as ``+c_(codim+1)``
    and is asserted against classical values for k = 2, 3 in the tests.
    """
    zs = tuple(zvar(l) for l in range(1, k + 1))
    *small, body = (sorted(factors, key=lambda f: len(f.terms))
                    or [Polynomial.one()])
    prefactor = (-qk if k % 2 else qk) * vandermonde(zs)
    for f in small:
        prefactor = prefactor * f
    dens = tuple(Polynomial.var(zs[i - 1]) + Polynomial.var(zs[j - 1])
                 - Polynomial.var(zs[l - 1])
                 for i, j, l in denominator_triples(k))
    return ResidueForm(body, dens, zs, prefactor)


#: The tag of a Thom body term, one power per Chern monomial; the text
#: grammar cannot read its name, so no input holds it.
_ORBIT = svar("#orbit")

#: Most terms the cut Chern-tail product for (k, codim) may reach, which
#: bounds the work of :func:`residue_form`; checked before it starts.
MAX_TAIL_TERMS = 2_000


def check_tail_size(k: int, codim: int) -> None:
    """SizeLimitExceeded when the Chern-tail product for (k, codim), cut at
    weight cmax = k(codim+1), would exceed MAX_TAIL_TERMS terms: after j of
    the k tails it would hold C(cmax + j, j).  :func:`residue_form` builds
    only its C(cmax + k - 1, k - 1) terms of weight cmax, so this bounds
    that work.  The check stops at the first j over the limit."""
    cmax = k * (codim + 1)
    for j in range(1, k + 1):
        terms = math.comb(cmax + j, j)
        if terms > MAX_TAIL_TERMS:
            raise SizeLimitExceeded(
                f"order {k}, codimension {codim}: the Chern-tail product "
                f"reaches {terms} terms, over the limit of {MAX_TAIL_TERMS}")


def residue_form(k: int, codim: int, q: QTable) -> ResidueForm:
    """The calibrated residue form for (k, codim): :func:`curvilinear_form`
    times the part of ``prod_l c(1/z_l) z_l^codim`` of Chern weight cmax =
    k(codim+1), the only weight the residue reads, since no other factor
    has a Chern class.  A composition (a_1..a_k) of cmax gives the term
    ``prod_l c_(a_l) z_l^(codim - a_l)`` (c_0 = 1), written with the tag
    ``t^g`` in place of its Chern monomial: g spells the sorted parts in
    base cmax + 1, one tag per S_k-orbit of compositions, so one per Chern
    monomial.  The terms are built on dense keys over z_1..z_k and t."""
    qk = q.get(k)
    check_tail_size(k, codim)
    cmax = k * (codim + 1)
    terms = {}
    for parts in compositions(cmax, k):
        tag = 0
        for a in sorted(parts):
            tag = tag * (cmax + 1) + a
        terms[(*(codim - a for a in parts), tag)] = 1
    slate = Slate([zvar(l) for l in range(1, k + 1)] + [_ORBIT])
    return curvilinear_form(k, qk, Polynomial(slate.sparse(terms)))


def _untag(tagged: Polynomial, base: int) -> Polynomial:
    """The residue of a tagged Thom body with each tag power t^g read back
    into its Chern monomial: one factor c_a per base-``base`` digit a of g
    (``divmod``).  The zero parts sort first, so they are leading zeros of
    g and no digit read is 0."""
    terms = {}
    for m, c in tagged.terms.items():
        g, pairs = m.exponent(_ORBIT), []
        while g:
            g, a = divmod(g, base)
            pairs.append((cvar(a), 1))
        terms[Monomial.make(pairs)] = c
    return Polynomial(terms)


def thom_polynomial(k: int, codim: int,
                    q: QTable | None = None) -> ThomResult:
    """Universal polynomial of the order-k singularity locus in the Chern
    classes c_1..c_{k(codim+1)} of the difference bundle: the residue of
    :func:`residue_form`, a polynomial in its tag, with each tag power
    read back into its Chern monomial."""
    if codim < 0:
        raise InputError(f"codimension must be >= 0, got {codim}")
    q = q or QTable.builtin()
    tagged = iterated_residue(residue_form(k, codim, q))
    return ThomResult(k, codim, _untag(tagged, k * (codim + 1) + 1),
                      (-1) ** k)


@dataclass(frozen=True)
class PositivityReport:
    k: int
    codim: int
    negative_terms: tuple[tuple[str, Fraction], ...]

    @property
    def all_nonnegative(self) -> bool:
        return not self.negative_terms


def positivity_check(result: ThomResult) -> PositivityReport:
    """List every monomial of the polynomial with a negative coefficient."""
    bad = tuple(sorted((repr(m), Fraction(c))
                       for m, c in result.polynomial.terms.items() if c < 0))
    return PositivityReport(result.k, result.codim, bad)


def generating_coefficient(k: int, exponents,
                           q: QTable | None = None) -> Fraction:
    """Exact coefficient of ``z^exponents`` in the Laurent expansion of the
    generating function ``prod(z_i - z_j) Q_k / prod(z_i + z_j - z_l)`` on
    the calibrated contour (z_k most dominant); InputError unless there
    are exactly k exponents."""
    if len(exponents) != k:
        raise InputError(f"order {k} needs {k} exponents, got "
                         f"{len(exponents)}")
    q = q or QTable.builtin()
    shift = Monomial.make([(zvar(i + 1), -exponents[i] - 1)
                           for i in range(k)])
    form = curvilinear_form(k, q.get(k), Polynomial({shift: 1}))
    return iterated_residue(form).constant_value()


@dataclass(frozen=True)
class RatioReport:
    k: int
    depth: int
    bound: int
    coefficients: tuple[tuple[tuple[int, ...], Fraction], ...]
    ratios: tuple[tuple[tuple[int, ...], int, int, Fraction, bool], ...]

    @property
    def all_within_bound(self) -> bool:
        return all(ok for *_, ok in self.ratios)


def ratio_check(k: int, q: QTable | None = None,
                depth: int = 3) -> RatioReport:
    """Expand the generating function over all exponent vectors with entries
    in [-depth, depth] and report each neighbouring-coefficient ratio
    (exponent moved by +1/-1 in two slots) against the bound k^2.  The
    generating function does not depend on the codimension."""
    q = q or QTable.builtin()
    gen_degree = {m.degree for m in q.get(k).terms}
    vandermonde_degree = k * (k - 1) // 2
    levels = {vandermonde_degree + g - len(denominator_triples(k))
              for g in gen_degree}
    coeffs: dict[tuple[int, ...], Fraction] = {}
    span = range(-depth, depth + 1)
    for head in itertools.product(span, repeat=k - 1):
        for level in levels:
            exps = head + (level - sum(head),)
            if exps[-1] in span:
                value = generating_coefficient(k, exps, q)
                if value:
                    coeffs[exps] = value
    ratios = []
    for exps, value in sorted(coeffs.items()):
        for a, b in itertools.permutations(range(k), 2):
            neighbour = list(exps)
            neighbour[a] += 1
            neighbour[b] -= 1
            neighbour = tuple(neighbour)
            if neighbour in coeffs:
                ratio = value / coeffs[neighbour]
                ratios.append((exps, a + 1, b + 1, ratio, ratio < k * k))
    return RatioReport(k, depth, k * k,
                       tuple(sorted(coeffs.items())), tuple(ratios))
