"""Torus fixed-point integration on Grassmannians and partial flag manifolds.

Fixed-point sums yield intersection numbers as sums of rational functions
of the torus weights.  Exactness strategy: the quantities are provably
weight-independent, so sums are evaluated at random distinct rational
weights, with agreement across :data:`WEIGHT_DRAWS` independent seeded
draws as the certificate.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .algebra import CHERN, Polynomial, compositions, cvar, vandermonde, zvar
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


def _elementary_values(values, i):
    return sum(map(math.prod, itertools.combinations(values, i)), Fraction(0))


def _check_fixed_points(space: str, counts) -> None:
    """SizeLimitExceeded at the first of the growing fixed-point ``counts``
    of ``space`` over MAX_FIXED_POINTS, before a larger one is computed."""
    for count in counts:
        if count > MAX_FIXED_POINTS:
            raise SizeLimitExceeded(f"{space} has more than the limit of "
                                    f"{MAX_FIXED_POINTS} fixed points")


def _distinct(weights) -> list[Fraction]:
    weights = [Fraction(w) for w in weights]
    if len(set(weights)) != len(weights):
        raise RepeatedWeights("weight values must be pairwise distinct")
    return weights


def draw_weights(n: int, rng: random.Random) -> list[Fraction]:
    return [Fraction(w) for w in rng.sample(_WEIGHT_POOL, n)]


def grass_class_degree_check(n: int, k: int, cls: Polynomial):
    """Require every monomial to use c_1..c_k only, with weighted degree
    (deg c_i = i) equal to dim Grass(k, n) = k(n-k)."""
    target = k * (n - k)
    for v in cls.variables():
        if v.kind != CHERN or not (1 <= v.index <= k):
            raise InputError(
                f"class must be a polynomial in c1..c{k}, found {v.name}")
    degrees = cls.weighted_degrees(lambda v: v.index)
    if degrees - {target}:
        found = sorted(degrees - {target})
        raise DegreeMismatch(
            f"class has weighted degree {found}, expected {target}")


def grass_sum_at(n: int, k: int, cls: Polynomial, mu) -> Fraction:
    """Fixed-point sum of cls(e_1..e_k of tautological weights) over the
    product of tangent weights, at the given weight vector.

    Fixed points are indexed by ordered k-tuples of coordinate lines (the
    coset set S_n/S_(n-k)); the summand depends only on the underlying
    subspace, so each of the C(n, k) coordinate subspaces contributes with
    multiplicity k!.  The plain subspace-indexed sum is this value divided
    by k!.
    """
    mu = _distinct(mu)
    orderings = math.factorial(k)
    total = Fraction(0)
    for subset in itertools.combinations(range(n), k):
        chosen = [mu[i] for i in subset]
        assignment = {cvar(i): _elementary_values(chosen, i)
                      for i in range(1, k + 1)}
        num = cls.evaluate(assignment).constant_value()
        den = math.prod(mu[s] - mu[i] for i in subset
                        for s in range(n) if s not in subset)
        total += orderings * num / den
    return total


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
    the product of tangent weights, exactly at the given weights."""
    weights = _distinct(weights)
    total = Fraction(0)
    for head in itertools.permutations(range(n), d):
        seq = [weights[i] for i in head] + [w for i, w in enumerate(weights)
                                            if i not in head]
        num = Q.evaluate({zvar(l + 1): seq[l]
                          for l in range(d)}).constant_value()
        den = Fraction(1)
        for m in range(d):
            for i in range(m + 1, n):
                den *= seq[i] - seq[m]
        total += num / den
    return total


def flag_residue(n: int, d: int, Q: Polynomial, weights) -> Fraction:
    """The same pushforward as :func:`flag_fixed_sum`, computed as the
    iterated residue of the Vandermonde-weighted form with z_1 least and
    z_d most dominant."""
    weights = _distinct(weights)
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
