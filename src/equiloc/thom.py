"""Thom polynomials of corank-one (curvilinear) singularity loci via the
iterated-residue formula, with positivity and coefficient-ratio reports.

The residue form, its contour and its sign are built in one place,
:func:`curvilinear_form`: its plain iterated residue is the calibrated
value.  Every body this package sums over is symmetric in z_1..z_k, so
it is a sum of orbit sums of monomials z^lambda, and its residue is
sum_lambda N_lambda S_k(lambda), where S_k(lambda) is the residue of the
orbit sum of z^lambda (the Thom series coefficients of Feher and
Rimanyi, Ann. Math. 176, 2012; the orbit form is Berczi and Szenes's,
Ann. Math. 175, 2012).  Each lambda is a sorted (nondecreasing) vector of
sum -k, listed by one enumerator, :func:`orbits`; :func:`orbit_form`
builds the body with one power of a private tag variable per orbit, and
:func:`orbit_table` takes its one residue and returns the table
{lambda: S_k(lambda)}.  Every curvilinear command reads a table: the
Thom body weighs each entry by a Chern monomial, and the hyperbolicity
module by multinomials.

The Thom body at codim L holds the orbits with no entry above L, and
S_k(lambda) does not depend on the codim, so the table at L gives the
polynomial at each codim l <= L (:func:`read_codims`):
:func:`thom_polynomial` reads its own codim, and :func:`thom_scan` builds
one table per order, at its largest codim, and reads every codim off it,
after checking its largest order's table entry and tail size.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .algebra import (RESIDUE, Polynomial, Slate, cvar, svar, term_list,
                      vandermonde, zvar)
from .errors import InputError, MissingQ, SizeLimitExceeded
from .residue import ResidueForm, iterated_residue

_BUILTIN_Q = MappingProxyType({
    1: Polynomial.one(),
    2: Polynomial.one(),
    3: Polynomial.one(),
    4: (2 * Polynomial.var(zvar(1)) + Polynomial.var(zvar(2))
        - Polynomial.var(zvar(4))),
})


class QTable(namedtuple("QTable", "entries", defaults=(_BUILTIN_Q,))):
    """Numerator polynomials of the residue formula, indexed by the order k,
    in a read-only mapping.  Orders 1..4 are built in; user-supplied entries
    may add other orders, each once."""

    __slots__ = ()

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


#: The Thom polynomial of order k at a codim, and the sign the residue form
#: carries to calibrate it.
ThomResult = namedtuple("ThomResult", "k codim polynomial sign_calibration")


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


def orbits(k: int, low=None, high=None) -> list[tuple[int, ...]]:
    """The sorted (nondecreasing) vectors of k integers of sum -k with every
    entry in [low, high], one per S_k-orbit, in lexicographic order; a
    bound left out is the one the other implies: -k - (k-1) times it.
    They are built part by part, each part from the one before it (or low)
    up to an equal share of what the rest must sum to, and no lower than
    that sum less what the parts after it can hold under high, so no
    vector is built only to be dropped."""
    high = -k - (k - 1) * low if high is None else high
    # each row: a prefix, what the rest of it sums to, and its floor
    rows = [((), -k, -k - (k - 1) * high if low is None else low)]
    for parts in range(k, 0, -1):
        rows = [((*v, x), total - x, x) for v, total, first in rows
                for x in range(max(first, total - (parts - 1) * high),
                               min(high, total // parts) + 1)]
    return [v for v, _, _ in rows]


#: The tag of an orbit-form body term; the text grammar cannot read its
#: name, so no input holds it.
_ORBIT = svar("#orbit")


def orbit_form(k: int, qk: Polynomial, lambdas) -> ResidueForm:
    """:func:`curvilinear_form` of the body ``sum_g t^g sum_v z^v``, v over
    the distinct permutations of ``lambdas[g]``, built on dense keys over
    z_1..z_k and the tag t.  Its residue is ``sum_g S_k(lambdas[g]) t^g``,
    which :func:`orbit_table` reads."""
    terms = {(*v, g): 1 for g, orbit in enumerate(lambdas)
             for v in itertools.permutations(orbit)}
    slate = Slate([zvar(l) for l in range(1, k + 1)] + [_ORBIT])
    return curvilinear_form(k, qk, slate.polynomial(terms))


def orbit_table(form: ResidueForm, lambdas) -> dict:
    """{lambda: S_k(lambda)} over the orbits ``lambdas`` of ``form``, their
    :func:`orbit_form`, from its one residue; an orbit whose sum has a
    zero residue is left out."""
    tagged = iterated_residue(form)
    return {lambdas[g]: c
            for (g,), c in Slate([_ORBIT]).dense(tagged).items()}


#: Most terms the cut Chern-tail product for (k, codim) may reach, by the
#: count of :func:`check_tail_size`; checked before any residue starts.
MAX_TAIL_TERMS = 2_000


def check_tail_size(k: int, codim: int) -> None:
    """SizeLimitExceeded when the Chern-tail product for (k, codim), cut at
    weight cmax = k(codim+1), would exceed MAX_TAIL_TERMS terms: after j of
    the k tails it would hold C(cmax + j, j).  No code forms that product:
    :func:`residue_form` builds one term per permutation of each orbit, so
    the count bounds no work that runs.  The check stays because it is the
    only one that refuses every order k >= 7 (C(2k, k) > MAX_TAIL_TERMS at
    codim 0).  It stops at the first j over the limit."""
    cmax = k * (codim + 1)
    for j in range(1, k + 1):
        terms = math.comb(cmax + j, j)
        if terms > MAX_TAIL_TERMS:
            raise SizeLimitExceeded(
                f"order {k}, codimension {codim}: the Chern-tail product "
                f"reaches {terms} terms, over the limit of {MAX_TAIL_TERMS}")


def residue_form(k: int, codim: int, q: QTable) -> ResidueForm:
    """The calibrated residue form for (k, codim): the :func:`orbit_form` of
    the part of ``prod_l c(1/z_l) z_l^codim`` of Chern weight cmax =
    k(codim+1), the only weight the residue reads, since no other factor
    has a Chern class.  A composition (a_1..a_k) of cmax gives the term
    ``prod_l c_(a_l) z_l^(codim - a_l)`` (c_0 = 1), whose Chern monomial
    depends only on its S_k-orbit, so the orbit tag stands in for it; the
    orbits are those of :func:`orbits` with no entry above codim."""
    qk = q.get(k)
    check_tail_size(k, codim)
    return orbit_form(k, qk, orbits(k, high=codim))


def _thom_table(k: int, top: int, q: QTable) -> dict:
    """The :func:`orbit_table` of :func:`residue_form` at (k, top)."""
    return orbit_table(residue_form(k, top, q), orbits(k, high=top))


def read_codims(k: int, top: int, table: dict, codims) -> list:
    """The result at each codim l of ``codims`` from ``table``, the order-k
    table of the orbits with no entry above top; InputError for an l above
    top, whose orbits the table lacks.  S_k(lambda) does not depend on the
    codim, so the orbits of l are those with no entry above l, each
    weighed by its Chern monomial ``prod_j c_(l - lambda_j)`` (c_0 = 1)."""
    if max(codims, default=top) > top:
        raise InputError(f"codim above {top}, the top of the order-{k} table")
    return [ThomResult(k, l, Polynomial.from_terms(
                (c, [(cvar(l - e), 1) for e in orbit if e < l])
                for orbit, c in table.items() if orbit[-1] <= l), (-1) ** k)
            for l in codims]


def thom_polynomial(k: int, codim: int,
                    q: QTable | None = None) -> ThomResult:
    """Universal polynomial of the order-k singularity locus in the Chern
    classes c_1..c_{k(codim+1)} of the difference bundle: the order-k
    table built at codim, read there (:func:`read_codims`)."""
    if codim < 0:
        raise InputError(f"codimension must be >= 0, got {codim}")
    q = q or QTable.builtin()
    return read_codims(k, codim, _thom_table(k, codim, q), [codim])[0]


def thom_scan(kmax: int, lmax: int, q: QTable | None = None) -> list:
    """:func:`thom_polynomial` at every order 1..kmax and codim 0..lmax,
    order-major, from one table per order, built at lmax.  The largest
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
        k, lmax, _thom_table(k, lmax, q), range(lmax + 1))]


class PositivityReport(namedtuple("PositivityReport",
                                  "k codim negative_terms")):
    """The (monomial text, coefficient) pairs of a Thom polynomial with a
    negative coefficient, sorted."""

    __slots__ = ()

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


class RatioReport(namedtuple("RatioReport",
                             "k depth bound coefficients ratios")):
    """The nonzero generating-function coefficients, as sorted (exponents,
    value) pairs, and each neighbouring ratio as (exponents, a, b, ratio,
    ratio < bound)."""

    __slots__ = ()

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
