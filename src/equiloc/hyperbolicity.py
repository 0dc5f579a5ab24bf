"""Intersection polynomial and Euler characteristics of the invariant-jet
tower of a smooth degree-d hypersurface in P^(n+1).

Every residue here is the iterated residue of the order-n form built by
:func:`equiloc.thom.curvilinear_form`, which carries the calibrating sign.
The n = 1 case is pinned independently by classical curve geometry
(canonical degree and Riemann-Roch), which fixes the sign of the
``z_1 + ... + z_n`` block inside the positivity form R.

The hyperplane class h is nilpotent of order n (h^(n+1) == 0); pairing
with the fundamental class replaces h^n by d.  The residue keeps h-degree,
so :func:`_h_top` builds only the h^n part of the numerator.

By the splitting principle T_X + O(d) = (n+2) O(1) - O, the multiplicative
class of T_X with series 1/g is g(d h) / g(h)^(n+2); one helper,
:func:`_hypersurface_class`, builds the Chern tail of the tower (g = 1 + y
at y = h/z_l, one factor per l) and the Todd class (g = (1 - e^-y)/y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentSeries, Monomial, Polynomial, Var, svar, zvar
from .errors import DomainError, InputError, SizeLimitExceeded
from .residue import iterated_residue
from .thom import QTable, curvilinear_form

D_VAR = svar("d")
DELTA_VAR = svar("delta")
M_VAR = svar("m")


#: Most terms the largest numerator factor of a tower residue may have,
#: checked from n before any factor is built: (z_1 + ... + z_n)^(n^2)
#: for the leading constant, B^(n^2) in the positivity form and the cut
#: Chern character for the Euler characteristic.
MAX_FACTOR_TERMS = 50_000


def _check_factor_terms(n: int, what: str, terms: int) -> None:
    if terms > MAX_FACTOR_TERMS:
        raise SizeLimitExceeded(
            f"order {n}: {what} reaches {terms} terms, over the limit of "
            f"{MAX_FACTOR_TERMS}")


def _hvar(n: int) -> Var:
    return svar("h", nilpotency=n)


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


def _zshift(n: int, power: int) -> LaurentSeries:
    mono = Monomial.make([(zvar(l), -power) for l in range(1, n + 1)])
    return LaurentSeries({mono: 1})


def _hypersurface_class(n: int, g, y, d_poly: Polynomial) -> Polynomial:
    """g(d y) * g(y)^-(n+2) for a unit series g with coefficients
    g[0] == 1, g[1], ... (those past g[n] are not read) and a y that
    carries h, so y^(n+1) == 0 and the inverse sum_(j<=n) (1 - g(y))^j is
    exact."""
    s = sd = 0  # g(y) - 1 and g(d y) - 1
    power = 1
    for i, c in enumerate(g[1:n + 1], 1):
        power = power * y
        s = s + c * power
        sd = sd + c * d_poly ** i * power
    inv = term = 1
    for _ in range(n):
        term = term * -s
        inv = inv + term
    return (1 + sd) * inv ** (n + 2)


def _hypersurface_tail(n: int, h: Var, d_poly: Polynomial) -> LaurentSeries:
    """prod_l (1 + d h/z_l) / (1 + h/z_l)^(n+2)."""
    acc = 1
    for l in range(1, n + 1):
        y = LaurentSeries({Monomial.make([(h, 1), (zvar(l), -1)]): 1})
        acc = acc * _hypersurface_class(n, (1, 1), y, d_poly)
    return acc


def _h_top(a: Polynomial, b: Polynomial, h: Var, n: int) -> Polynomial:
    """The h^n coefficient of ``a * b``; no other h-grade is formed."""
    return sum((a.coefficient(h, j) * b.coefficient(h, n - j)
                for j in range(n + 1)), Polynomial.zero())


def _zsum(n: int) -> Polynomial:
    acc = Polynomial.zero()
    for l in range(1, n + 1):
        acc = acc + Polynomial.var(zvar(l))
    return acc


def _positivity_form(n: int, h: Var) -> Polynomial:
    """R = B^(n^2) - n^2 B^(n^2-1) (2n^2 h + delta C(n+1,2)(d-n-2) h) with
    B = (z_1 + ... + z_n) + 2n^2 h."""
    hp = Polynomial.var(h)
    base = _zsum(n) + 2 * n * n * hp
    twist = (2 * n * n * hp
             + Polynomial.var(DELTA_VAR) * math.comb(n + 1, 2)
             * (Polynomial.var(D_VAR) - (n + 2)) * hp)
    return base ** (n * n) - n * n * base ** (n * n - 1) * twist


def leading_constant(n: int, q: QTable | None = None) -> Fraction:
    """Constant term of the degree-zero form
    ``prod(z_i - z_j) Q_n (z_1+...+z_n)^(n^2) / [prod(z_i+z_j-z_l)
    (z_1...z_n)^n]`` under the calibrated contour; this is the constant
    multiplying the top d-coefficient of the intersection polynomial."""
    qn = (q or QTable.builtin()).get(n)
    _check_factor_terms(n, "(z_1 + ... + z_n)^(n^2)",
                        math.comb(n * n + n - 1, n - 1))
    form = curvilinear_form(n, qn, _zsum(n) ** (n * n), _zshift(n, n + 1))
    return iterated_residue(form).constant_value()


def intersection_polynomial(n: int, q: QTable | None = None) -> GGResult:
    """p(n, d, delta): the calibrated residue of the h^n part of the
    positivity form times the hypersurface tail."""
    qn = (q or QTable.builtin()).get(n)
    # B^(n^2) has at most one term per monomial of degree n^2 in z_1..z_n, h
    _check_factor_terms(n, "the positivity form", math.comb(n * n + n, n))
    h = _hvar(n)
    top = _h_top(_positivity_form(n, h),
                 _hypersurface_tail(n, h, Polynomial.var(D_VAR)), h, n)
    p = iterated_residue(curvilinear_form(n, qn, _zshift(n, n), top))
    theta = leading_constant(n, q)
    leading = p.coefficient(D_VAR, n)
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


def _todd_class(n: int, h: Var, d_poly: Polynomial) -> Polynomial:
    """td(T_X): the class with series y / (1 - e^-y), whose inverse is
    g(y) = (1 - e^-y)/y = sum_i (-y)^i / (i+1)!."""
    g = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(n + 1)]
    return _hypersurface_class(n, g, Polynomial.var(h), d_poly)


def euler_characteristic(n: int, d=None,
                         q: QTable | None = None) -> EulerResult:
    """Euler characteristic of the weight-m invariant-jet sheaf on a smooth
    degree-d hypersurface, as an exact polynomial in m (degree <= n^2).
    ``d=None`` keeps the degree symbolic."""
    qn = (q or QTable.builtin()).get(n)
    # one term per monomial of degree n^2 - n .. n^2 in z_1..z_n
    _check_factor_terms(n, "the Chern character",
                        math.comb(n * n + n, n) - math.comb(n * n - 1, n))
    h = _hvar(n)
    d_poly = (Polynomial.var(D_VAR) if d is None
              else Polynomial.rational(Fraction(d)))
    # Chern character of the tautological weight-m line bundle: by the
    # z-grading only powers n^2-n .. n^2 of m(z_1+...+z_n) can survive
    # against the h-grading, so the exponential is cut there.
    zsum = _zsum(n)
    ch = Polynomial.zero()
    mp = Polynomial.var(M_VAR)
    for p in range(max(0, n * n - n), n * n + 1):
        ch = ch + Fraction(1, math.factorial(p)) * mp ** p * zsum ** p
    top = _h_top(_todd_class(n, h, d_poly), _hypersurface_tail(n, h, d_poly),
                 h, n)
    form = curvilinear_form(n, qn, _zshift(n, n), top, ch)
    chi = iterated_residue(form) * d_poly
    return EulerResult(n, None if d is None else Fraction(d), chi)

