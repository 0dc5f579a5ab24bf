"""Intersection polynomial and Euler characteristics of the invariant-jet
tower of a smooth degree-d hypersurface in P^(n+1).

Every number here is read off one order-n table {lambda: S_n(lambda)} of
:func:`equiloc.thom.orbit_table`, whose orbit form carries the
calibrating sign: each body is symmetric in z, so its residue is the sum
of the entries S_n(lambda) weighed by the body's z^lambda coefficients,
here multinomials (:func:`_multinomial_sum`).  The n = 1 case is pinned
independently by classical curve geometry (canonical degree and
Riemann-Roch), which fixes the sign of the ``z_1 + ... + z_n`` block
inside the positivity form R.

The hyperplane class h satisfies h^(n+1) == 0 on the hypersurface, and
pairing with the fundamental class replaces h^n by d, so a series in h is
held as the list of its coefficients of h^0 .. h^n; :func:`_series_mul`
multiplies two such lists and cuts the product at h^n.  The denominators
are homogeneous in the z's alone, so the residue reads a numerator only at
h^n and z-degree n^2 - n, where the intersection polynomial and the Euler
characteristic are both sum_j x_j Z^(n^2-j) T_(n-j) and differ only in the
z-free coefficients x_j.  :func:`_tower_residue` builds one table, over
the orbits the parts reach, which depends on n alone; it weighs each
entry by the parts' multinomials and tail coefficients (integer
polynomials in a symbolic d), and applies the x_j after that; a numeric
degree is substituted into the result.  No power of Z = z_1 + ... + z_n
is built.  :func:`leading_constant` reads a table of its own, over the
orbits with no entry below -(n+1).

By the splitting principle T_X + O(d) = (n+2) O(1) - O, the multiplicative
class of T_X with series 1/g is g(d h) / g(h)^(n+2); one helper,
:func:`_hypersurface_class`, gives its coefficient list in y, read as the
Todd class at y = h (g = (1 - e^-y)/y) and, at y = h/z_l with one factor
per l, as the Chern tail of the tower (g = 1 + y).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import Polynomial, compositions, svar
from .errors import DomainError, InputError, SizeLimitExceeded
from .thom import QTable, orbit_form, orbit_table, orbits

D_VAR = svar("d")
DELTA_VAR = svar("delta")
M_VAR = svar("m")


#: Most monomials z^v of degree low .. n^2 in z_1..z_n whose multinomials
#: a tower residue may weigh its table entries by (low = n^2 for the leading
#: constant, n^2 - n for the intersection polynomial and the Euler
#: characteristic), checked from n before any form is built.  The orbit
#: form's body has one term per z^(v - a - n) these reach: all C(n^2 +
#: n - 1, n - 1) of degree n^2 for the leading constant, and 3,115 at
#: n = 4, where 3,480 monomials are counted, for the tower.
MAX_FACTOR_TERMS = 50_000


def _table_entry(n: int, q: QTable | None, low: int) -> Polynomial:
    """Q_n from the table, once the monomials of degree low .. n^2 in
    z_1..z_n are within MAX_FACTOR_TERMS.  For n >= 2, more than n^2 have
    degree n^2 alone, so a larger n is rejected before any binomial is
    formed."""
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    qn = (q or QTable.builtin()).get(n)
    terms = (math.comb(n * n + n, n) - math.comb(low + n - 1, n)
             if n * n <= MAX_FACTOR_TERMS else None)
    if terms is None or terms > MAX_FACTOR_TERMS:
        raise SizeLimitExceeded(
            f"order {n}: the tower weighs its table by "
            f"{'more than n^2' if terms is None else terms} monomials of "
            f"degree {low}..{n * n} in z_1..z_{n}, over the limit of "
            f"{MAX_FACTOR_TERMS}")
    return qn


#: Intersection polynomial data: p(n, d, delta), the ``polynomial``, is the
#: residue of the h^n part of the numerator; pairing with the fundamental
#: class gives the actual intersection number d * p.  ``theta`` is the
#: leading constant and ``leading`` p's d^n coefficient.
GGResult = namedtuple("GGResult", "n polynomial theta leading")

#: The Euler characteristic ``chi`` at order n, and ``d``, the Fraction of a
#: numeric degree substituted into it, or None for a symbolic one.
EulerResult = namedtuple("EulerResult", "n d chi")


def _series_mul(a: list, b: list, n: int) -> list:
    """The product of two series given as lists of at most n + 1
    coefficients, cut at the power n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:n + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return out


def _hypersurface_class(n: int, g) -> list:
    """Coefficients 0..n in y of g(d y) * g(y)^-(n+2), at a symbolic d, for
    a unit series g with rational coefficients g[0] == 1, g[1], ... (those
    past g[n] are not read)."""
    g = list(g[:n + 1]) + [0] * (n + 1 - len(g))
    inv = [1]  # 1 / g(y)
    for k in range(1, n + 1):
        inv.append(-sum(g[i] * inv[k - i] for i in range(1, k + 1)))
    power = [1]
    for _ in range(n + 2):
        power = _series_mul(power, inv, n)
    d = Polynomial.var(D_VAR)
    return _series_mul([c * d ** i for i, c in enumerate(g)], power, n)


def _multinomial_sum(table: dict, p: int, shift) -> Fraction:
    """sum_lambda S(lambda) p! / prod_l (lambda_l + shift_l)! over the
    orbits lambda of ``table`` with every lambda_l + shift_l >= 0: the
    residue of the orbit-form body whose z^lambda coefficient is that
    multinomial.  Each multinomial is an int before it meets S."""
    total = Fraction(0)
    for orbit, s in table.items():
        vs = [e + b for e, b in zip(orbit, shift)]
        if min(vs) >= 0:
            total += s * (math.factorial(p)
                          // math.prod(map(math.factorial, vs)))
    return total


def _tower_residue(n: int, qn: Polynomial, xs) -> Polynomial:
    """sum_j xs[j] R_j, where R_j, an integer polynomial in d, is the
    residue of the order-n form of Z^(n^2-j) T_(n-j) (z_1...z_n)^-n.  The
    sum is the residue of the part of (sum_j xs[j] h^j Z^(n^2-j)) times
    the tail that the residue reads, since T_i, its h^i coefficient, has
    z-degree -i; the xs hold no z, so they are applied after the residue.

    The z^lambda coefficient of that body is N_j(lambda), the sum over the
    compositions a of n - j of (n^2-j)! / prod_l (lambda_l + n + a_l)!
    times prod_l cls[a_l]; it is symmetric in lambda, so R_j is read off
    one table, over the lambda of sum -n with lambda_l + n + a_l >= 0 for
    some a of size <= n: the orbits above -2n whose entries fall short of
    -n by at most n in all."""
    cls = _hypersurface_class(n, (1, 1))
    lambdas = [v for v in orbits(n, low=-2 * n)
               if sum(max(-n - e, 0) for e in v) <= n]
    table = orbit_table(orbit_form(n, qn, lambdas), lambdas)
    total = Polynomial.zero()
    for j in range(n + 1):
        for a in compositions(n - j, n):
            weight = _multinomial_sum(table, n * n - j, [n + b for b in a])
            total = total + xs[j] * weight * math.prod(
                (cls[b] for b in a), start=Polynomial.one())
    return total


def leading_constant(n: int, q: QTable | None = None) -> Fraction:
    """Constant term of the degree-zero form
    ``prod(z_i - z_j) Q_n (z_1+...+z_n)^(n^2) / [prod(z_i+z_j-z_l)
    (z_1...z_n)^(n+1)]`` under the calibrated contour; this is the constant
    multiplying the top d-coefficient of the intersection polynomial.  The
    z^lambda coefficient of its body is (n^2)! / prod_l (lambda_l + n + 1)!,
    read against the table of the orbits with no entry below -(n+1)."""
    qn = _table_entry(n, q, n * n)
    lambdas = orbits(n, low=-n - 1)
    table = orbit_table(orbit_form(n, qn, lambdas), lambdas)
    return _multinomial_sum(table, n * n, [n + 1] * n)


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
    :func:`leading_constant`.  The x_j, which hold delta and d, are applied
    after the residues of :func:`_tower_residue`."""
    qn = _table_entry(n, q, n * n - n)
    big, b = n * n, 2 * n * n
    t = b + (Polynomial.var(DELTA_VAR) * math.comb(n + 1, 2)
             * (Polynomial.var(D_VAR) - (n + 2)))
    xs = [math.comb(big, j) * b ** j
          - (big * math.comb(big - 1, j - 1) * b ** (j - 1) * t if j else 0)
          for j in range(n + 1)]
    p = _tower_residue(n, qn, xs)
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


def _todd_class(n: int) -> list:
    """Coefficients 0..n in h of td(T_X) at a symbolic d: the class with
    series y / (1 - e^-y), whose inverse is g(y) = (1 - e^-y)/y =
    sum_i (-y)^i / (i+1)!."""
    g = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(n + 1)]
    return _hypersurface_class(n, g)


def euler_characteristic(n: int, d=None,
                         q: QTable | None = None) -> EulerResult:
    """A polynomial in m for the Euler characteristic χ of the weight-m
    invariant-jet sheaf on a smooth degree-d hypersurface.  For n = 1 it
    is χ exactly.  For n >= 2 it holds only the powers m^(n^2 − n) ..
    m^(n^2), and only the leading coefficient, that of m^(n^2), is χ's:
    the form carries no Todd class of the fibre directions.  At n = 2,
    d = 5 it reads 0, −205/4 and −870 at m = 0, 1, 2, where χ is 5, −505
    and −3340.  ``d=None`` keeps the degree symbolic.  The x_j, the Todd
    class times the one m-term of the Chern character each, are applied
    after the residues of :func:`_tower_residue`, and a numeric d once, to
    the symbolic χ."""
    qn = _table_entry(n, q, n * n - n)
    # h^j of the Todd class meets the one term of the Chern character
    # e^(m Z) of the weight-m tautological bundle the residue reads
    td, big = _todd_class(n), n * n
    xs = [td[j] * Fraction(1, math.factorial(big - j))
          * Polynomial.var(M_VAR, big - j) for j in range(n + 1)]
    chi = _tower_residue(n, qn, xs) * Polynomial.var(D_VAR)
    d = None if d is None else Fraction(d)
    return EulerResult(n, d, chi if d is None else chi.evaluate({D_VAR: d}))
