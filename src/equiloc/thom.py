"""Thom polynomials of corank-one (curvilinear) singularity loci via the
iterated-residue formula, with positivity and coefficient-ratio reports.

The residue form, its contour and its sign are built in one place,
:func:`curvilinear_form`: its plain iterated residue is the calibrated
value.  Every body this package sums over is symmetric in z_1..z_k, so
it is built once, by :func:`orbit_form`: one power of a private tag
variable per S_k-orbit of exponent vectors, times the orbit's sum of
monomials.  The residue, a polynomial in the tag, gives the residue of
each orbit sum (:func:`orbit_sums`), and a caller weighs them.  The Thom
body's orbits are the compositions of the Chern weight k(codim+1) the
residue reads, each weighed by its Chern monomial; the hyperbolicity
module weighs the orbits of its tower by multinomials.

The orbit sums of the Thom residue do not depend on the codim, and the
residue at codim L holds those of every codim l <= L, so one read
(:func:`read_codims`) gives the polynomial at each such l:
:func:`thom_polynomial` reads its own codim, and :func:`thom_scan` takes
one residue per order, at its largest codim, and reads every codim off
it, after checking its largest order's table entry and tail size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .algebra import (RESIDUE, Polynomial, Slate, cvar, svar, term_list,
                      vandermonde, zvar)
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


def curvilinear_form(k: int, qk: Polynomial, body: Polynomial) -> ResidueForm:
    """The calibrated residue form of order k: numerator ``(-1)^k Q_k *
    prod_{i<j}(z_i - z_j)`` (``qk`` is the table entry) times ``body``;
    denominators ``z_i + z_j - z_l`` over :func:`denominator_triples`;
    contour ``z_1..z_k``, ``z_k`` most dominant.

    The body is the form's numerator, multiplied by nothing; ``(-1)^k
    Q_k`` and the Vandermonde make up its prefactor, which the engine
    multiplies slice by slice into the denominator expansions at the first
    peel.  The global sign ``(-1)^k`` cancels the engine's orientation
    ``(-1)^k``, so the iterated residue of this form is the plain
    ``(z_1...z_k)^-1`` coefficient of the expansion.  This makes the k = 1
    family come out as ``+c_(codim+1)`` and is asserted against classical
    values for k = 2, 3 in the tests.
    """
    zs = tuple(zvar(l) for l in range(1, k + 1))
    prefactor = (-qk if k % 2 else qk) * vandermonde(zs)
    dens = tuple(Polynomial.var(zs[i - 1]) + Polynomial.var(zs[j - 1])
                 - Polynomial.var(zs[l - 1])
                 for i, j, l in denominator_triples(k))
    return ResidueForm(body, dens, zs, prefactor)


def partitions(total: int, k: int) -> list[tuple[int, ...]]:
    """The nondecreasing compositions of ``total`` into k parts, one per
    S_k-orbit of compositions, in lexicographic order.  They are built part
    by part: each part runs from the one before it up to an equal share of
    what is left, so no composition is built only to be dropped."""
    def rest(total, k, low):
        if k == 1:
            return [(total,)]
        return [(first, *tail) for first in range(low, total // k + 1)
                for tail in rest(total - first, k - 1, first)]
    return rest(total, k, 0)


#: The tag of an orbit-form body term; the text grammar cannot read its
#: name, so no input holds it.
_ORBIT = svar("#orbit")


def orbit_form(k: int, qk: Polynomial, orbits) -> ResidueForm:
    """:func:`curvilinear_form` of the body ``sum_g t^g sum_v z^v``, v over
    the distinct permutations of ``orbits[g]``, built on dense keys over
    z_1..z_k and the tag t.  Its residue is ``sum_g S(orbits[g]) t^g``,
    where S(lambda) is the residue of the orbit sum of z^lambda; a body
    symmetric in z is a sum of such orbit sums, so its residue is read off
    this one (:func:`orbit_sums`)."""
    terms = {(*v, g): 1 for g, orbit in enumerate(orbits)
             for v in itertools.permutations(orbit)}
    slate = Slate([zvar(l) for l in range(1, k + 1)] + [_ORBIT])
    return curvilinear_form(k, qk, slate.polynomial(terms))


def orbit_sums(tagged: Polynomial, orbits) -> dict:
    """{lambda: S(lambda)} from the residue of :func:`orbit_form`, for the
    orbits whose sum has a nonzero residue."""
    return {orbits[g]: c for (g,), c in Slate([_ORBIT]).dense(tagged).items()}


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


def _thom_orbits(k: int, codim: int) -> list[tuple[int, ...]]:
    """codim - a for each nondecreasing composition a of cmax = k(codim+1)
    into k parts: the exponents of ``prod_l c_(a_l) z_l^(codim - a_l)``."""
    return [tuple(codim - a for a in parts)
            for parts in partitions(k * (codim + 1), k)]


def residue_form(k: int, codim: int, q: QTable) -> ResidueForm:
    """The calibrated residue form for (k, codim): the :func:`orbit_form` of
    the part of ``prod_l c(1/z_l) z_l^codim`` of Chern weight cmax =
    k(codim+1), the only weight the residue reads, since no other factor
    has a Chern class.  A composition (a_1..a_k) of cmax gives the term
    ``prod_l c_(a_l) z_l^(codim - a_l)`` (c_0 = 1), whose Chern monomial
    depends only on its S_k-orbit, so the orbit tag stands in for it."""
    qk = q.get(k)
    check_tail_size(k, codim)
    return orbit_form(k, qk, _thom_orbits(k, codim))


def read_codims(k: int, top: int, tagged: Polynomial, codims) -> list:
    """The result at each codim l <= top of ``codims`` from ``tagged``, the
    residue of :func:`residue_form` at (k, top).  Its orbits are the sorted
    vectors of sum -k and no entry above top, and their sums do not depend
    on the codim, so the orbits of l are those with no entry above l; each
    sum is weighed by its Chern monomial ``prod_j c_(l - lambda_j)``
    (c_0 = 1)."""
    sums = orbit_sums(tagged, _thom_orbits(k, top))
    return [ThomResult(k, l, Polynomial.from_terms(
                (c, [(cvar(l - e), 1) for e in orbit if e < l])
                for orbit, c in sums.items() if max(orbit) <= l), (-1) ** k)
            for l in codims]


def thom_polynomial(k: int, codim: int,
                    q: QTable | None = None) -> ThomResult:
    """Universal polynomial of the order-k singularity locus in the Chern
    classes c_1..c_{k(codim+1)} of the difference bundle: the residue of
    :func:`residue_form` read at its own codim (:func:`read_codims`)."""
    if codim < 0:
        raise InputError(f"codimension must be >= 0, got {codim}")
    q = q or QTable.builtin()
    tagged = iterated_residue(residue_form(k, codim, q))
    return read_codims(k, codim, tagged, [codim])[0]


def thom_scan(kmax: int, lmax: int, q: QTable | None = None) -> list:
    """:func:`thom_polynomial` at every order 1..kmax and codim 0..lmax,
    order-major, from one residue per order, taken at lmax.  The largest
    order's table entry, its tail size and then every other order's entry
    are checked before any residue."""
    if kmax < 1 or lmax < 0:
        raise InputError(f"thom-scan needs --kmax >= 1 and --lmax >= 0, got "
                         f"{kmax} and {lmax}")
    q = q or QTable.builtin()
    q.get(kmax)
    check_tail_size(kmax, lmax)
    for k in range(1, kmax):
        q.get(k)
    return [result for k in range(1, kmax + 1) for result in read_codims(
        k, lmax, iterated_residue(residue_form(k, lmax, q)), range(lmax + 1))]


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
    bad = tuple(sorted(t for t in term_list(result.polynomial) if t[1] < 0))
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
    shift = [(zvar(i), -e - 1) for i, e in enumerate(exponents, 1)]
    form = curvilinear_form(k, q.get(k), Polynomial.from_terms([(1, shift)]))
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
    gen_degree = q.get(k).weighted_degrees(lambda v: 1)
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
