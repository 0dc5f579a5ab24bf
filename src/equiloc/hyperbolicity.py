"""Intersection polynomial and Euler characteristics of the invariant-jet
tower of a smooth degree-d hypersurface in P^(n+1).

Every residue here is the iterated residue of the order-n form built by
:func:`equiloc.thom.curvilinear_form`, which carries the calibrating sign.
The n = 1 case is pinned independently by classical curve geometry
(canonical degree and Riemann-Roch), which fixes the sign of the
``z_1 + ... + z_n`` block inside the positivity form R.

The hyperplane class h satisfies h^(n+1) == 0 on the hypersurface, and
pairing with the fundamental class replaces h^n by d, so a series in h is
held as the list of its coefficients of h^0 .. h^n; :func:`_series_mul`
multiplies two such lists and cuts the product at h^n.  The denominators
are homogeneous in the z's alone, so the residue reads a numerator only at
h^n and z-degree n^2 - n; :func:`_tower_form` builds just that part, and
the intersection polynomial and the Euler characteristic differ only in
its z-free coefficients x_j.

By the splitting principle T_X + O(d) = (n+2) O(1) - O, the multiplicative
class of T_X with series 1/g is g(d h) / g(h)^(n+2); one helper,
:func:`_hypersurface_class`, gives its coefficient list in y, read as the
Todd class at y = h (g = (1 - e^-y)/y) and, at y = h/z_l with one factor
per l, as the Chern tail of the tower (g = 1 + y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Monomial, Polynomial, svar, zvar
from .errors import DomainError, InputError, SizeLimitExceeded
from .residue import iterated_residue
from .thom import QTable, curvilinear_form

D_VAR = svar("d")
DELTA_VAR = svar("delta")
M_VAR = svar("m")


#: Most terms the largest numerator factors of a tower residue may have
#: together, checked from n before any factor is built: the powers of
#: Z = z_1 + ... + z_n, Z^(n^2) for the leading constant and
#: Z^(n^2-n) .. Z^(n^2) for the intersection polynomial and the Euler
#: characteristic.
MAX_FACTOR_TERMS = 50_000


def _table_entry(n: int, q: QTable | None, low: int) -> Polynomial:
    """Q_n from the table, once the terms of Z^low .. Z^(n^2), one per
    monomial of degree low .. n^2 in z_1..z_n, are within MAX_FACTOR_TERMS.
    For n >= 2, Z^(n^2) alone has more than n^2 terms, so a larger n is
    rejected before any binomial is formed."""
    qn = (q or QTable.builtin()).get(n)
    terms = (math.comb(n * n + n, n) - math.comb(low + n - 1, n)
             if n * n <= MAX_FACTOR_TERMS else None)
    if terms is None or terms > MAX_FACTOR_TERMS:
        raise SizeLimitExceeded(
            f"order {n}: the powers of z_1 + ... + z_n reach "
            f"{'more than n^2' if terms is None else terms} terms, over the "
            f"limit of {MAX_FACTOR_TERMS}")
    return qn


@dataclass(frozen=True)
class GGResult:
    """Intersection polynomial data: p(n, d, delta) is the residue of the
    h^n part of the numerator; pairing with the fundamental class gives the
    actual intersection number d * p."""

    n: int
    polynomial: Polynomial
    theta: Fraction
    leading: Polynomial


@dataclass(frozen=True)
class EulerResult:
    n: int
    d: object  # Fraction for numeric degree, None for symbolic
    chi: Polynomial


def _zshift(n: int, power: int) -> Polynomial:
    mono = Monomial.make([(zvar(l), -power) for l in range(1, n + 1)])
    return Polynomial({mono: 1})


def _series_mul(a: list, b: list, n: int) -> list:
    """The product of two series given as lists of at most n + 1
    coefficients, cut at the power n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:n + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return out


def _hypersurface_class(n: int, g, d_poly: Polynomial) -> list:
    """Coefficients 0..n in y of g(d y) * g(y)^-(n+2), for a unit series g
    with rational coefficients g[0] == 1, g[1], ... (those past g[n] are
    not read)."""
    g = list(g[:n + 1]) + [0] * (n + 1 - len(g))
    inv = [1]  # 1 / g(y)
    for k in range(1, n + 1):
        inv.append(-sum(g[i] * inv[k - i] for i in range(1, k + 1)))
    power = [1]
    for _ in range(n + 2):
        power = _series_mul(power, inv, n)
    return _series_mul([c * d_poly ** i for i, c in enumerate(g)], power, n)


def _hypersurface_tail(n: int, d_poly: Polynomial) -> list:
    """[T_0, ..., T_n], the coefficients of h^0 .. h^n of
    prod_l (1 + d h/z_l) / (1 + h/z_l)^(n+2); T_i has z-degree -i."""
    cls = _hypersurface_class(n, (1, 1), d_poly)
    tail = [1]
    for l in range(1, n + 1):
        factor = [c * Polynomial({Monomial.make([(zvar(l), -i)]): 1})
                  for i, c in enumerate(cls)]
        tail = _series_mul(tail, factor, n)
    return tail


def _zsum(n: int) -> Polynomial:
    acc = Polynomial.zero()
    for l in range(1, n + 1):
        acc = acc + Polynomial.var(zvar(l))
    return acc


def _tower_form(n: int, qn: Polynomial, xs, d_poly: Polynomial):
    """The order-n form of sum_j xs[j] Z^(n^2-j) T_(n-j) (z_1...z_n)^-n:
    the part of (sum_j xs[j] h^j Z^(n^2-j)) times the tail that the residue
    reads, since T_i, its h^i coefficient, has z-degree -i."""
    zsum = _zsum(n)
    tail = _hypersurface_tail(n, d_poly)
    top, power = Polynomial.zero(), zsum ** (n * n - n)
    for j in range(n, -1, -1):
        top = top + xs[j] * power * tail[n - j]
        power = power * zsum
    return curvilinear_form(n, qn, _zshift(n, n), top)


def leading_constant(n: int, q: QTable | None = None) -> Fraction:
    """Constant term of the degree-zero form
    ``prod(z_i - z_j) Q_n (z_1+...+z_n)^(n^2) / [prod(z_i+z_j-z_l)
    (z_1...z_n)^n]`` under the calibrated contour; this is the constant
    multiplying the top d-coefficient of the intersection polynomial."""
    qn = _table_entry(n, q, n * n)
    form = curvilinear_form(n, qn, _zsum(n) ** (n * n), _zshift(n, n + 1))
    return iterated_residue(form).constant_value()


def intersection_polynomial(n: int, q: QTable | None = None) -> GGResult:
    """p(n, d, delta): the calibrated residue of the positivity form
    R = B^N - N B^(N-1) t h times the hypersurface tail, with B = Z + b h,
    N = n^2, b = 2n^2 and t = b + delta C(n+1,2)(d-n-2); the h^j
    coefficient of R is x_j Z^(N-j), x_j = C(N,j) b^j - N C(N-1,j-1)
    b^(j-1) t.

    Theta(n) is p's d^n coefficient at delta = 0, for any Q: d enters T_i
    with degree at most i and x_j only through delta (d - n - 2), so at
    delta = 0 the d^n part of the numerator is x_0 Z^N d^n / (z_1...z_n),
    x_0 = 1, which with the shift (z_1...z_n)^-n is the numerator of
    :func:`leading_constant`."""
    qn = _table_entry(n, q, n * n - n)
    big, b = n * n, 2 * n * n
    t = b + (Polynomial.var(DELTA_VAR) * math.comb(n + 1, 2)
             * (Polynomial.var(D_VAR) - (n + 2)))
    xs = [math.comb(big, j) * b ** j
          - (big * math.comb(big - 1, j - 1) * b ** (j - 1) * t if j else 0)
          for j in range(n + 1)]
    p = iterated_residue(_tower_form(n, qn, xs, Polynomial.var(D_VAR)))
    leading = p.coefficient(D_VAR, n)
    theta = leading.evaluate({DELTA_VAR: 0}).constant_value()
    return GGResult(n, p, theta, leading)


def positivity_threshold(result: GGResult, delta) -> int:
    """An explicit integer d0 with p(n, d, delta) > 0 for every d >= d0,
    by a root bound on the univariate specialization: beyond the Cauchy
    bound all real roots are passed and the sign is the leading sign."""
    delta = Fraction(delta)
    p = result.polynomial.evaluate({DELTA_VAR: delta})
    degree = p.degree_in(D_VAR)
    coeffs = [p.coefficient(D_VAR, i).constant_value()
              for i in range(degree + 1)]
    lead = coeffs[-1]
    if lead <= 0:
        raise InputError(
            f"leading coefficient {lead} is not positive at delta={delta}")
    bound = 1 + max((abs(c / lead) for c in coeffs[:-1]), default=Fraction(0))
    d0 = math.floor(bound) + 1
    check = sum(c * Fraction(d0) ** i for i, c in enumerate(coeffs))
    if check <= 0:
        raise DomainError(f"p(n, {d0}, {delta}) = {check} is not positive "
                          "beyond the root bound")
    return d0


def _todd_class(n: int, d_poly: Polynomial) -> list:
    """Coefficients 0..n in h of td(T_X): the class with series
    y / (1 - e^-y), whose inverse is g(y) = (1 - e^-y)/y =
    sum_i (-y)^i / (i+1)!."""
    g = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(n + 1)]
    return _hypersurface_class(n, g, d_poly)


def euler_characteristic(n: int, d=None,
                         q: QTable | None = None) -> EulerResult:
    """A polynomial in m for the Euler characteristic χ of the weight-m
    invariant-jet sheaf on a smooth degree-d hypersurface.  For n = 1 it
    is χ exactly.  For n >= 2 it holds only the powers m^(n^2 − n) ..
    m^(n^2), and only the leading coefficient, that of m^(n^2), is χ's:
    the form carries no Todd class of the fibre directions.  At n = 2,
    d = 5 it reads 0, −205/4 and −870 at m = 0, 1, 2, where χ is 5, −505
    and −3340.  ``d=None`` keeps the degree symbolic."""
    qn = _table_entry(n, q, n * n - n)
    d_poly = (Polynomial.var(D_VAR) if d is None
              else Polynomial.rational(Fraction(d)))
    # h^j of the Todd class meets the one term of the Chern character
    # e^(m Z) of the weight-m tautological bundle the residue reads
    td, big = _todd_class(n, d_poly), n * n
    xs = [td[j] * Fraction(1, math.factorial(big - j))
          * Polynomial.var(M_VAR, big - j) for j in range(n + 1)]
    chi = iterated_residue(_tower_form(n, qn, xs, d_poly)) * d_poly
    return EulerResult(n, None if d is None else Fraction(d), chi)

