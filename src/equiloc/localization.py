"""Torus fixed-point integration on Grassmannians and partial flag manifolds.

Fixed-point sums yield intersection numbers as sums of rational functions
of the torus weights.  Exactness strategy: the quantities are provably
weight-independent, so sums are evaluated at random distinct rational
weights, with agreement across :data:`WEIGHT_DRAWS` independent seeded
draws as the certificate.

A fixed-point sum runs on integer-scaled weights: the weights are scaled
once by the common multiple L of their denominators, the class is read
once into integer terms, and each fixed point adds one exact ``Fraction``
of two ints, its class value over its product of tangent weights.  The
powers of L and the class's coefficient denominator are applied once, at
the end.  A weight list whose length is not n, or a class holding a
variable the sum does not assign, is an ``InputError`` before any fixed
point is summed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import attrgetter, mul

from .algebra import (Polynomial, Slate, compositions, cvar, vandermonde,
                      zvar)
from .errors import (DegreeMismatch, InconsistentDraws, InputError,
                     RepeatedWeights, SizeLimitExceeded)
from .residue import ResidueForm, iterated_residue

_WEIGHT_POOL = range(-999_983, 1_000_003)

#: Most fixed points :func:`grass_integrate` and :func:`run_flag_trials`
#: sum per weight draw, checked before any is listed.
MAX_FIXED_POINTS = 10_000

#: Seeded weight draws that must agree to certify a numeric fixed-point sum.
WEIGHT_DRAWS = 3


def flag_dimension(n: int, d: int) -> int:
    return d * n - d * (d + 1) // 2


def _check_fixed_points(space: str, counts) -> None:
    """SizeLimitExceeded at the first of the growing fixed-point ``counts``
    of ``space`` over MAX_FIXED_POINTS, before a larger one is computed."""
    for count in counts:
        if count > MAX_FIXED_POINTS:
            raise SizeLimitExceeded(f"{space} has more than the limit of "
                                    f"{MAX_FIXED_POINTS} fixed points")


def _distinct(n: int, weights) -> list[Fraction]:
    """The n weights as Fractions, checked to be n and pairwise distinct."""
    weights = [Fraction(w) for w in weights]
    if len(weights) != n:
        raise InputError(f"need one weight per coordinate line: n = {n}, "
                         f"got {len(weights)} weights")
    if len(set(weights)) != len(weights):
        raise RepeatedWeights("weight values must be pairwise distinct")
    return weights


def draw_weights(n: int, rng: random.Random) -> list[Fraction]:
    return [Fraction(w) for w in rng.sample(_WEIGHT_POOL, n)]


def _require_variables(poly: Polynomial, var, count: int,
                       what: str) -> None:
    """InputError naming the first variable of ``poly`` other than
    var(1)..var(count)."""
    allowed = {var(i) for i in range(1, count + 1)}
    for v in sorted(poly.variables(), key=attrgetter("sort_key")):
        if v not in allowed:
            raise InputError(f"{what} must be a polynomial in {var(1).name}"
                             f"..{var(count).name}, found {v.name}")


def grass_class_degree_check(n: int, k: int, cls: Polynomial):
    """Require every monomial to use c_1..c_k only, with weighted degree
    (deg c_i = i) equal to dim Grass(k, n) = k(n-k)."""
    target = k * (n - k)
    _require_variables(cls, cvar, k, "class")
    degrees = cls.weighted_degrees(lambda v: v.index)
    if degrees - {target}:
        found = sorted(degrees - {target})
        raise DegreeMismatch(
            f"class has weighted degree {found}, expected {target}")


def _scaled(n: int, weights) -> tuple[list[int], int]:
    """The n weights, checked by :func:`_distinct`, as the integers L·w_i,
    and L, the least common multiple of their denominators."""
    weights = _distinct(n, weights)
    scale = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (scale // w.denominator) for w in weights], scale


def _integer_terms(poly: Polynomial, variables, grades, scale: int):
    """``poly``, a polynomial in ``variables`` only, read for evaluation at
    integer-scaled values: returns (coeffs, columns, den, top) such that,
    when each variable of grade g takes a value x/scale^g,

        poly = Σ_t coeffs[t]·Π_j x_j^columns[j][t] / (den · scale^top).

    The coefficients are ints and columns[j] lists the exponents of
    variable j.  ``den`` clears the coefficient denominators and ``top`` is
    the largest weighted degree; a term of weighted degree g carries
    scale^(top − g), so a non-homogeneous ``poly`` stays exact."""
    dense = Slate(variables, variables).dense(poly.terms)
    den = math.lcm(*(c.denominator for c in dense.values()))
    degrees = [sum(map(mul, grades, exps)) for exps in dense]
    top = max(degrees, default=0)
    coeffs = [c.numerator * (den // c.denominator) * scale ** (top - g)
              for c, g in zip(dense.values(), degrees)]
    columns = [tuple(exps[j] for exps in dense)
               for j in range(len(variables))]
    return coeffs, columns, den, top


def _value(coeffs, columns, powers) -> int:
    """Σ_t coeffs[t]·Π_j powers[j][columns[j][t]]: the integer terms of
    :func:`_integer_terms` at the values whose power tables are
    ``powers``."""
    acc = coeffs
    for row, column in zip(powers, columns):
        acc = map(mul, acc, map(row.__getitem__, column))
    return sum(acc)


def _elementary(values) -> list[int]:
    """e_1..e_k of the k values, from the expansion of Π (1 + x·t)."""
    e = [1] + [0] * len(values)
    for j, x in enumerate(values, 1):
        for i in range(j, 0, -1):
            e[i] += e[i - 1] * x
    return e[1:]


def grass_sum_at(n: int, k: int, cls: Polynomial, mu) -> Fraction:
    """Fixed-point sum of cls(e_1..e_k of tautological weights) over the
    product of tangent weights, at the given weight vector.

    Fixed points are indexed by ordered k-tuples of coordinate lines (the
    coset set S_n/S_(n-k)); the summand depends only on the underlying
    subspace, so each of the C(n, k) coordinate subspaces contributes with
    multiplicity k!.  The plain subspace-indexed sum is this value divided
    by k!.

    The sum runs on the integer-scaled weights u = L·mu: there c_i is
    e_i(u)/L^i, each tangent weight is a difference of two u over L, and
    each subspace adds one exact ``Fraction``.
    """
    u, scale = _scaled(n, mu)
    _require_variables(cls, cvar, k, "class")
    coeffs, columns, den, top = _integer_terms(
        cls, [cvar(i) for i in range(1, k + 1)], range(1, k + 1), scale)
    tops = [max(column, default=0) for column in columns]
    total = Fraction(0)
    for subset in itertools.combinations(range(n), k):
        powers = [[x ** e for e in range(t + 1)]
                  for x, t in zip(_elementary([u[i] for i in subset]), tops)]
        tangent = math.prod(u[s] - u[i] for i in subset
                            for s in range(n) if s not in subset)
        total += Fraction(_value(coeffs, columns, powers), tangent)
    return (math.factorial(k) * total
            * Fraction(scale) ** (k * (n - k) - top) / den)


def grass_integrate(n: int, k: int, cls: Polynomial, *,
                    seed: int = 0) -> Fraction:
    """Fixed-point pairing of a polynomial in the Chern classes of the
    tautological bundle over Grass(k, n), evaluated at random weights (see
    :func:`grass_sum_at` for the ordered-tuple normalization)."""
    if not (0 < k < n):
        raise InputError(f"need 0 < k < n, got k={k}, n={n}")
    _check_fixed_points(f"Grass({k}, {n})", (
        math.comb(n, j) for j in range(min(k, n - k) + 1)))
    grass_class_degree_check(n, k, cls)
    rng = random.Random(seed)
    values = [grass_sum_at(n, k, cls, draw_weights(n, rng))
              for _ in range(WEIGHT_DRAWS)]
    if any(v != values[0] for v in values[1:]):
        raise InconsistentDraws(
            "fixed-point sum varied across weight draws; this is a bug")
    return values[0]


def flag_fixed_sum(n: int, d: int, Q: Polynomial, weights) -> Fraction:
    """Sum over the torus fixed flags of Q at the flag's weights divided by
    the product of tangent weights, exactly at the given weights.

    The fixed flags are the ordered d-tuples ``head`` of coordinate lines;
    z_(m+1) takes the weight of line head[m], whose tangent weights are
    w_i − w_head[m] over the lines i not in head[:m+1].  The sum runs on
    the integer-scaled weights u = L·w, one exact ``Fraction`` per fixed
    flag; the powers of L and Q's coefficient denominator are applied
    once, at the end."""
    u, scale = _scaled(n, weights)
    _require_variables(Q, zvar, d, "Q")
    coeffs, columns, den, top = _integer_terms(
        Q, [zvar(l) for l in range(1, d + 1)], [1] * d, scale)
    most = max(itertools.chain(*columns), default=0)
    powers = [[x ** e for e in range(most + 1)] for x in u]
    total = Fraction(0)
    for head in itertools.permutations(range(n), d):
        tangent = 1
        rest = list(range(n))
        for h in head:
            rest.remove(h)
            uh = u[h]
            for i in rest:
                tangent *= u[i] - uh
        total += Fraction(_value(coeffs, columns, [powers[h] for h in head]),
                          tangent)
    return total * Fraction(scale) ** (flag_dimension(n, d) - top) / den


def flag_residue(n: int, d: int, Q: Polynomial, weights) -> Fraction:
    """The same pushforward as :func:`flag_fixed_sum`, computed as the
    iterated residue of the Vandermonde-weighted form with z_1 least and
    z_d most dominant."""
    weights = _distinct(n, weights)
    zs = tuple(zvar(l) for l in range(1, d + 1))
    dens = tuple(Polynomial.rational(w) - Polynomial.var(z)
                 for z in zs for w in weights)
    form = ResidueForm(Q * vandermonde(zs), dens, zs)
    return iterated_residue(form).constant_value()


def random_flag_class(n: int, d: int, rng: random.Random) -> Polynomial:
    """Random homogeneous polynomial in z1..zd of degree dim Flag_d(n)."""
    degree = flag_dimension(n, d)
    monomials = list(compositions(degree, d))
    pairs = []
    for exps in monomials:
        if rng.random() < 0.35:
            c = rng.randint(1, 9) * rng.choice((-1, 1))
            pairs.append((c, [(zvar(i + 1), e)
                              for i, e in enumerate(exps) if e]))
    if not pairs:
        exps = rng.choice(monomials)
        pairs.append((1, [(zvar(i + 1), e)
                          for i, e in enumerate(exps) if e]))
    return Polynomial.from_terms(pairs)


def run_flag_trials(n: int, d: int, trials: int, seed: int = 0) -> dict:
    """Check the fixed-point/residue identity on random classes, each at
    :data:`WEIGHT_DRAWS` independent weight draws; returns a JSON-able
    report."""
    if not 1 <= d < n:
        raise InputError(f"need 1 <= d < n, got d={d}, n={n}")
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    _check_fixed_points(f"Flag_{d}(C^{n})",
                        (math.perm(n, j) for j in range(d + 1)))
    rng = random.Random(seed)
    results = []
    all_ok = True
    for t in range(trials):
        Q = random_flag_class(n, d, rng)
        values = []
        ok = True
        for _ in range(WEIGHT_DRAWS):
            w = draw_weights(n, rng)
            fs = flag_fixed_sum(n, d, Q, w)
            fr = flag_residue(n, d, Q, w)
            ok = ok and fs == fr
            values.append(fs)
        ok = ok and values.count(values[0]) == len(values)
        all_ok = all_ok and ok
        results.append({"trial": t, "class": str(Q),
                        "value": str(values[0]), "match": ok})
    return {"n": n, "d": d, "trials": trials, "seed": seed,
            "all_match": all_ok, "results": results}
