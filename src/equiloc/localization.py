"""Torus fixed-point integration on Grassmannians and partial flag manifolds.

Fixed-point sums yield intersection numbers as sums of rational functions
of the torus weights.  Exactness strategy: the quantities are provably
weight-independent, so sums are evaluated at random distinct rational
weights, with agreement across :data:`WEIGHT_DRAWS` independent seeded
draws as the certificate.

A fixed-point sum runs on integer-scaled weights: the weights are scaled
once by the common multiple L of their denominators, and the class is
read through one ``Slate`` into int terms keyed by exponent tuples, with
no column layout.  On Grass(k, n) each coordinate subspace adds one exact
``Fraction`` of two ints, its class value over its product of tangent
weights.  On Fl_d(C^n) the d! fixed flags over one d-subspace H share
their tangent weights up to sign, so their signed class values are summed
as integers first: the class is antisymmetrized into alternants, which
are evaluated down a prefix tree walked by subsets of lines, one state
per set of lines chosen so far, not per ordering.  The subsets then share
one denominator: with Δ = Π_(a<b) (u_b − u_a) over the scaled weights u,
H's product of tangent weights is (−1)^(m_H)·Δ / V(u_(H^c)), V the
Vandermonde of the lines outside H, so the flag sum is one int divided
once by Δ.  The class's reading and alternant tree hold no weight, and
the last one is cached: a ``flag-check`` trial reads its class once for
its six values, three draws by two routes.  ``grass_integrate`` reads its
class once, in the degree check, for all its draws.  The powers of L and the
class's coefficient denominator are applied once, at the end.  A
negative d or k, a weight list whose length is not n, or a class holding
a variable the sum does not assign or a negative power of one, is an
``InputError`` before any fixed point is summed or residue taken.  The
residue side passes the class as the numerator and the Vandermonde of
z_1..z_d, built once per d, as the form's prefactor.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from operator import add, attrgetter, mul, sub

from .algebra import (Polynomial, Slate, compositions, cvar, vandermonde,
                      zvar)
from .errors import (DegreeMismatch, InconsistentDraws, InputError,
                     RepeatedWeights, SizeLimitExceeded)
from .residue import ResidueForm, iterated_residue

_WEIGHT_POOL = range(-999_983, 1_000_003)

#: Most torus fixed points of the space :func:`grass_integrate` or
#: :func:`run_flag_trials` works on: the C(n, k) coordinate subspaces of
#: Grass(k, n), one fraction of its sum each, or the n!/(n-d)! ordered flags
#: of Flag_d(C^n), whose sum adds one int per d-subset, C(n, d) in all,
#: and lists no flag.  Checked from n and k or d before any sum starts.
MAX_FIXED_POINTS = 10_000

#: Most work of one exact fixed-point sum in :func:`grass_integrate` and
#: :func:`run_flag_trials`, counted as terms × tangent weights of each ×
#: C(n, 2), the weight differences a denominator may hold: one term per
#: coordinate subspace or d-subset; checked after :data:`MAX_FIXED_POINTS`,
#: before any sum starts.
MAX_SUM_WORK = 500_000_000

#: Most trials :func:`run_flag_trials` runs, checked before the first.
MAX_TRIALS = 1_000

#: Seeded weight draws that must agree to certify a numeric fixed-point sum.
WEIGHT_DRAWS = 3


def flag_dimension(n: int, d: int) -> int:
    return d * n - d * (d + 1) // 2


def _check_fixed_points(space: str, counts) -> None:
    """SizeLimitExceeded at the first of the growing fixed-point ``counts``
    of ``space`` over MAX_FIXED_POINTS, before a larger one is computed.
    The counts are of fixed points, not of the fractions a sum adds: for a
    flag space, the ordered flags, which no code lists."""
    for count in counts:
        if count > MAX_FIXED_POINTS:
            raise SizeLimitExceeded(f"{space} has more than the limit of "
                                    f"{MAX_FIXED_POINTS} fixed points")


def _check_sum_work(space: str, n: int, terms: int, dim: int) -> None:
    """SizeLimitExceeded when a sum over ``space`` of ``terms`` terms, each
    over ``dim`` tangent weights, exceeds MAX_SUM_WORK."""
    work = terms * dim * math.comb(n, 2)
    if work > MAX_SUM_WORK:
        raise SizeLimitExceeded(
            f"the fixed-point sum on {space} adds {terms} terms of "
            f"{dim} tangent weights each, {work} units of work, over the "
            f"limit of {MAX_SUM_WORK}")


def _check_rank(name: str, value: int) -> None:
    """InputError when the rank ``value`` named ``name`` is negative."""
    if value < 0:
        raise InputError(f"need {name} >= 0, got {name}={value}")


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


def grass_class_degree_check(n: int, k: int, cls: Polynomial):
    """Require every monomial to use c_1..c_k only, with weighted degree
    (deg c_i = i) equal to dim Grass(k, n) = k(n-k).  Returns the class's
    reading (:func:`_read_class`), which then holds at every scale, since
    each of its terms has the largest degree."""
    target = k * (n - k)
    reading = _read_class(cls, cvar, k, range(1, k + 1), "class")
    wrong = set(reading[2]) - {target}
    if wrong:
        raise DegreeMismatch(
            f"class has weighted degree {sorted(wrong)}, expected {target}")
    return reading


def _scaled(n: int, weights) -> tuple[list[int], int]:
    """The n weights, checked by :func:`_distinct`, as the integers L·w_i,
    and L, the least common multiple of their denominators."""
    weights = _distinct(n, weights)
    scale = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (scale // w.denominator) for w in weights], scale


def _read_class(poly: Polynomial, var, count: int, grades, what: str,
                scale: int = 1):
    """``poly`` read once, through one ``Slate`` with var(1)..var(count)
    first: InputError naming the first variable of ``poly``, in variable
    order, that is not one of them or that carries a negative exponent;
    else (terms, den, degrees), ready for evaluation at integer-scaled
    values.  ``terms`` maps each term's exponent tuple to an int
    coefficient and ``degrees`` lists the terms' weighted degrees, in the
    same order, var(i) of grade grades[i-1].  When each variable of grade
    g takes a value x/scale^g,

        poly = Σ_a terms[a]·Π_i x_i^a_i / (den · scale^top),

    with ``den`` clearing the coefficient denominators and ``top`` the
    largest degree: a term of degree g carries scale^(top − g), so a
    non-homogeneous ``poly`` stays exact."""
    slate = Slate(poly.variables(), [var(i) for i in range(1, count + 1)])
    dense = slate.dense(poly)
    lows = map(min, zip(*dense))  # each variable's least exponent
    bad = [v for i, (v, e) in enumerate(zip(slate.vars, lows))
           if e < 0 or i >= count]
    if bad:
        v = min(bad, key=attrgetter("sort_key"))
        found = (f"a negative power of {v.name}" if slate.index[v] < count
                 else v.name)
        raise InputError(f"{what} must be a polynomial in {var(1).name}"
                         f"..{var(count).name}, found {found}")
    den = math.lcm(*(c.denominator for c in dense.values()))
    degrees = [sum(map(mul, grades, exps)) for exps in dense]
    top = max(degrees, default=0)
    terms = {exps: c.numerator * (den // c.denominator) * scale ** (top - g)
             for (exps, c), g in zip(dense.items(), degrees)}
    return terms, den, degrees


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
    _check_rank("k", k)
    u, scale = _scaled(n, mu)
    reading = _read_class(cls, cvar, k, range(1, k + 1), "class", scale)
    return _grass_sum(n, k, reading, u, scale)


def _grass_sum(n: int, k: int, reading, u, scale: int) -> Fraction:
    """:func:`grass_sum_at` at the weights u/scale, u as from
    :func:`_scaled`, of the class read at that scale."""
    terms, den, degrees = reading
    tops = list(map(max, zip(*terms)))
    total = Fraction(0)
    for subset in itertools.combinations(range(n), k):
        powers = [[x ** e for e in range(t + 1)]
                  for x, t in zip(_elementary([u[i] for i in subset]), tops)]
        tangent = math.prod(u[s] - u[i] for i in subset
                            for s in range(n) if s not in subset)
        value = sum(c * math.prod(map(list.__getitem__, powers, exps))
                    for exps, c in terms.items())
        total += Fraction(value, tangent)
    return (math.factorial(k) * total * Fraction(scale)
            ** (k * (n - k) - max(degrees, default=0)) / den)


def grass_integrate(n: int, k: int, cls: Polynomial, *,
                    seed: int = 0) -> Fraction:
    """Fixed-point pairing of a polynomial in the Chern classes of the
    tautological bundle over Grass(k, n), evaluated at random weights (see
    :func:`grass_sum_at` for the ordered-tuple normalization).  The class
    is read once, by the degree check, for every draw."""
    if not (0 < k < n):
        raise InputError(f"need 0 < k < n, got k={k}, n={n}")
    space = f"Grass({k}, {n})"
    _check_fixed_points(space, (
        math.comb(n, j) for j in range(min(k, n - k) + 1)))
    _check_sum_work(space, n, math.comb(n, k), k * (n - k))
    reading = grass_class_degree_check(n, k, cls)
    rng = random.Random(seed)
    values = [_grass_sum(n, k, reading, *_scaled(n, draw_weights(n, rng)))
              for _ in range(WEIGHT_DRAWS)]
    if any(v != values[0] for v in values[1:]):
        raise InconsistentDraws(
            "fixed-point sum varied across weight draws; this is a bug")
    return values[0]


def _prefix_levels(terms: dict) -> tuple[tuple, tuple]:
    """How :func:`_subset_numerators` substitutes z_1, z_2, ... in turn
    into ``terms``, a nonempty dict from exponent tuples of z_1..z_d to
    int coefficients: returns the coefficients in the order the steps read
    them and, for each step, the exponents ``exps`` and the ``spans`` it
    reads.

    Before step m the terms left are keyed by their exponents of
    z_(m+1)..z_d, sorted by their exponents of z_d, then z_(d−1), and so
    on, so the keys that agree in z_(m+2)..z_d are adjacent.  Step m
    substitutes z_(m+1) = x: it multiplies the value of each key by
    x^exps[i] and sums each slice in ``spans``, one per distinct rest
    z_(m+2)..z_d, in the same order.  The keys depend only on the
    exponents, so one tree serves every value substituted; it is all
    tuples, so no caller can change it under another."""
    keys = sorted(terms, key=lambda key: key[::-1])
    start = tuple(terms[key] for key in keys)
    levels = []
    for _ in range(len(keys[0])):
        starts = [i for i, key in enumerate(keys)
                  if not i or key[1:] != keys[i - 1][1:]]
        spans = tuple(map(slice, starts, starts[1:] + [len(keys)]))
        levels.append((tuple(key[0] for key in keys), spans))
        keys = [keys[i][1:] for i in starts]
    return start, tuple(levels)


def _alternant_tree(terms: dict):
    """The weight-free half of :func:`_subset_numerators` for the class of
    int ``terms`` keyed by exponent tuples of z_1..z_d (:func:`_read_class`):
    the signed sum of z^a over the orderings of z_1..z_d is the alternant
    det(x_h^(a_i)), so a term with a repeated exponent adds nothing, and
    every other term is added, with sign (−1)^inv(a), to the strictly
    decreasing rearrangement λ of a.  Returns (most, start, levels): the
    largest exponent of a nonzero alternant and the prefix tree of the
    alternants' coefficients (:func:`_prefix_levels`); None when every
    alternant cancels."""
    alternants: dict[tuple, int] = {}
    for a, c in terms.items():
        if len(set(a)) == len(a):
            lam = tuple(sorted(a, reverse=True))
            odd = sum(x < y for x, y in itertools.combinations(a, 2)) & 1
            alternants[lam] = alternants.get(lam, 0) + (-c if odd else c)
    alternants = {lam: c for lam, c in alternants.items() if c}
    if not alternants:
        return None
    most = max(itertools.chain(*alternants), default=0)
    return (most, *_prefix_levels(alternants))


def _subset_numerators(u, tree) -> dict[int, int]:
    """N_H = Σ_σ (−1)^inv(σ)·Q(x_σ(1), ..., x_σ(d)) for each d-subset H of
    the lines range(n) where it is nonzero, keyed by the bitmask of H: σ
    runs over the orderings of H, inv(σ) counts their inverted pairs, Q is
    given by the ``tree`` of its alternants (:func:`_alternant_tree`), and
    x_i = u[i].

    N_H = Σ_λ C_λ·det(x_h^(λ_i)), and the alternants are evaluated down
    the prefix tree walked by subset: after r steps there is one state per
    r-set of lines chosen, the signed sum over the orderings of that set,
    as placing line h next flips the sign once per chosen line above h,
    whatever order they were chosen in.  Step r thus builds C(n, r)
    states, not n!/(n−r)!, and each level's states go once the next is
    built."""
    if tree is None:
        return {}
    most, start, levels = tree
    powers = [[x ** e for e in range(most + 1)] for x in u]
    states = {0: start}
    for exps, spans in levels:
        reached: dict[int, list] = {}
        zeros = [0] * len(spans)
        for mask, values in states.items():
            for h, row in enumerate(powers):
                if mask >> h & 1:
                    continue
                terms = list(map(mul, values, map(row.__getitem__, exps)))
                # h after the chosen lines above it: one inversion each
                merge = sub if (mask >> h).bit_count() & 1 else add
                key = mask | 1 << h
                reached[key] = list(map(merge, reached.get(key, zeros),
                                        map(sum, map(terms.__getitem__,
                                                     spans))))
        states = reached
    return {mask: value for mask, (value,) in states.items() if value}


def _vandermonde(u, lines) -> int:
    """Π (u_b − u_a) over the pairs a < b of ``lines``, in increasing
    order."""
    return math.prod(u[b] - u[a] for a, b in itertools.combinations(lines, 2))


@functools.lru_cache(maxsize=1)
def _flag_reading(Q: Polynomial, d: int, scale: int):
    """Q read as a class on Fl_d at weights of common denominator
    ``scale`` (:func:`_read_class`), with everything of the fixed-point
    sum that no weight changes: (den, top, tree), Q's coefficient
    denominator, its largest degree and its alternant tree
    (:func:`_alternant_tree`).  ``scale`` is in the key because a
    non-homogeneous Q's int terms carry scale^(top − g).  The one reading
    cached is the last, so the calls of one trial, at each draw and by
    both routes, read its class once; a bad class raises on every call,
    as ``lru_cache`` keeps no exception."""
    terms, den, degrees = _read_class(Q, zvar, d, [1] * d, "Q", scale)
    return den, max(degrees, default=0), _alternant_tree(terms)


def flag_fixed_sum(n: int, d: int, Q: Polynomial, weights) -> Fraction:
    """Sum over the torus fixed flags of Q at the flag's weights divided by
    the product of tangent weights, exactly at the given weights.

    The fixed flags are the ordered d-tuples ``head`` of coordinate lines;
    z_(m+1) takes the weight of line head[m], whose tangent weights are
    w_i − w_head[m] over the lines i not in head[:m+1].  The tangent
    weights of a head with set H are, up to sign, those of H in
    increasing order: the pairs that touch H are the same for every
    ordering σ of H, and each inverted pair flips one factor, so the
    product is (−1)^inv(σ)·D_H.  The sum is therefore one term
    N_H / D_H per d-subset H, with N_H the signed sum of Q over the d!
    orderings, a sum of alternants (:func:`_subset_numerators`): the
    fibration of the flags over Grass(d, n).  Fl_0 is a point, where the
    sum is Q's constant; a negative d is an ``InputError``.

    The sum runs on the integer-scaled weights u = L·w over one common
    denominator.  With Δ = Π_(a<b) (u_b − u_a), the pairs inside H give
    the factors of D_H within H, the pairs outside H give V(u_(H^c)), the
    Vandermonde of the lines outside H, and the pairs across give D_H's
    other factors, each with sign −1 when the line outside H is the
    lower:

        D_H = (−1)^(m_H)·Δ / V(u_(H^c)),  m_H = #{a < b : a ∉ H, b ∈ H}.

    So the sum is the int Σ_H (−1)^(m_H)·N_H·V(u_(H^c)) divided once by
    Δ; the powers of L and Q's coefficient denominator are applied at the
    same time.  The last reading of a class is cached
    (:func:`_flag_reading`), so the sums of one trial read it once."""
    _check_rank("d", d)
    u, scale = _scaled(n, weights)
    den, top, tree = _flag_reading(Q, d, scale)
    total = 0
    for mask, value in _subset_numerators(u, tree).items():
        rest = [a for a in range(n) if not mask >> a & 1]
        outer = _vandermonde(u, rest)
        # m_H counts, for each line a outside H, the lines of H above a
        odd = sum((mask >> a).bit_count() for a in rest) & 1
        total += -value * outer if odd else value * outer
    delta = _vandermonde(u, range(n))
    return (Fraction(total, delta * den) * Fraction(scale)
            ** (flag_dimension(n, d) - top))


@functools.cache
def _flag_frame(d: int):
    """z_1..z_d, the polynomials -z_l and vandermonde(z_1..z_d), built
    once per d."""
    zs = tuple(zvar(l) for l in range(1, d + 1))
    return zs, tuple(-Polynomial.var(z) for z in zs), vandermonde(zs)


def flag_residue(n: int, d: int, Q: Polynomial, weights) -> Fraction:
    """The same pushforward as :func:`flag_fixed_sum`, computed as the
    iterated residue of Q·vandermonde(z_1..z_d) over Π (w_i − z_l), with
    z_1 least and z_d most dominant.  The Vandermonde is the form's
    prefactor, so Q·V is never formed.  Q is checked by the reading the
    fixed sum at the same weights makes (:func:`_flag_reading`), so a
    trial that has summed its class reads it no more."""
    _check_rank("d", d)
    weights = _distinct(n, weights)
    _flag_reading(Q, d, math.lcm(*(w.denominator for w in weights)))
    zs, negated, vander = _flag_frame(d)
    constants = list(map(Polynomial.rational, weights))
    dens = tuple(z + c for z in negated for c in constants)
    form = ResidueForm(Q, dens, zs, prefactor=vander)
    return iterated_residue(form).constant_value()


def random_flag_class(n: int, d: int, rng: random.Random) -> Polynomial:
    """Random homogeneous polynomial in z1..zd of degree dim Flag_d(n),
    built on exponent tuples over one ``Slate`` of z1..zd.  Each monomial
    draws ``random``, then for a kept one ``randint`` and ``choice``; a
    class that kept none is one monomial, drawn by ``choice``."""
    monomials = list(compositions(flag_dimension(n, d), d))
    picked = {exps: rng.randint(1, 9) * rng.choice((-1, 1))
              for exps in monomials if rng.random() < 0.35}
    slate = Slate((), [zvar(i) for i in range(1, d + 1)])
    return slate.polynomial(picked or {rng.choice(monomials): 1})


def run_flag_trials(n: int, d: int, trials: int, seed: int = 0) -> dict:
    """Check the fixed-point/residue identity on random classes, each at
    :data:`WEIGHT_DRAWS` independent weight draws; returns a JSON-able
    report."""
    if not 1 <= d < n:
        raise InputError(f"need 1 <= d < n, got d={d}, n={n}")
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    if trials > MAX_TRIALS:
        raise SizeLimitExceeded(
            f"{trials} trials exceed the limit of {MAX_TRIALS}")
    space = f"Flag_{d}(C^{n})"
    _check_fixed_points(space, (math.perm(n, j) for j in range(d + 1)))
    _check_sum_work(space, n, math.comb(n, d), flag_dimension(n, d))
    rng = random.Random(seed)
    results = []
    for t in range(trials):
        Q = random_flag_class(n, d, rng)
        draws = [draw_weights(n, rng) for _ in range(WEIGHT_DRAWS)]
        values = [route(n, d, Q, w) for w in draws
                  for route in (flag_fixed_sum, flag_residue)]
        results.append({"trial": t, "class": str(Q), "value": str(values[0]),
                        "match": len(set(values)) == 1})
    return {"n": n, "d": d, "trials": trials, "seed": seed,
            "all_match": all(r["match"] for r in results),
            "results": results}
