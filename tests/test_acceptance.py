"""Acceptance suite: every criterion at its stated tolerance (all values
exact), one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from equiloc.algebra import (CHERN, Polynomial, parse_polynomial, zvar)
from equiloc.hyperbolicity import (DELTA_VAR, D_VAR, M_VAR,
                                   euler_characteristic,
                                   intersection_polynomial)
from equiloc.jets import JetCurve, ReparamJet, compose, invariant_minors
from equiloc.localization import (draw_weights, flag_fixed_sum, flag_residue,
                                  grass_integrate, random_flag_class)
from equiloc.residue import ResidueForm, iterated_residue
from equiloc.thom import thom_polynomial
from oracles import brute_residue, brute_thom
from test_jets import GOLDEN_JET, golden_matrix

P = Polynomial


def check(number: int, description: str, ok: bool):
    print(f"criterion {number:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def thom_table():
    return {(k, codim): thom_polynomial(k, codim)
            for k in range(1, 5) for codim in range(0, 3)}


@pytest.fixture(scope="module")
def gg_results():
    return {n: intersection_polynomial(n) for n in range(1, 5)}


def test_criterion_01_grassmannian_golden_value():
    start = time.perf_counter()
    value = grass_integrate(4, 2, parse_polynomial("c1^2*c2"))
    elapsed = time.perf_counter() - start
    check(1, f"grass-integrate(4, 2, c1^2*c2) = {value} in {elapsed:.3f}s",
          value == 2 and elapsed < 1.0)


def test_criterion_02_flag_residue_identity():
    rng = random.Random(2025)
    pairs = [(n, d) for n in range(2, 6) for d in range(1, min(3, n) + 1)]
    start = time.perf_counter()
    trials = 0
    ok = True
    while trials < 20:
        n, d = rng.choice(pairs)
        Q = random_flag_class(n, d, rng)
        values = set()
        for _ in range(3):
            w = draw_weights(n, rng)
            fs = flag_fixed_sum(n, d, Q, w)
            fr = flag_residue(n, d, Q, w)
            ok = ok and fs == fr
            values.add(fs)
        ok = ok and len(values) == 1
        trials += 1
    elapsed = time.perf_counter() - start
    check(2, f"fixed-point sum == residue on 20 random flags "
             f"(3 draws each) in {elapsed:.1f}s", ok and elapsed < 30.0)


def test_criterion_03_first_order_family(thom_table):
    ok = all(thom_polynomial(1, codim).polynomial ==
             parse_polynomial(f"c{codim + 1}") for codim in range(0, 7))
    check(3, "order-1 polynomials are c_(codim+1) for codim = 0..6", ok)


def test_criterion_04_second_order_value(thom_table):
    golden = parse_polynomial("c1^2 + c2")
    oracle = brute_thom(2, 0, 8)
    engine = thom_table[(2, 0)].polynomial
    check(4, f"order-2 value {engine} (oracle agrees: {oracle == golden})",
          oracle == golden and engine == golden)


def test_criterion_05_third_order_value(thom_table):
    golden = parse_polynomial("c1^3 + 3*c1*c2 + 2*c3")
    oracle = brute_thom(3, 0, 10)
    engine = thom_table[(3, 0)].polynomial
    check(5, f"order-3 value {engine} (oracle agrees: {oracle == golden})",
          oracle == golden and engine == golden)


def test_criterion_06_positivity(thom_table):
    ok = all(Fraction(c).denominator == 1 and c >= 0
             for result in thom_table.values()
             for c in result.polynomial.terms.values())
    check(6, "all coefficients nonnegative integers for k <= 4, codim <= 2",
          ok)


def test_criterion_07_degree_invariant(thom_table):
    ok = True
    for (k, codim), result in thom_table.items():
        degrees = result.polynomial.weighted_degrees(
            lambda v: v.index if v.kind == CHERN else 0)
        ok = ok and degrees == {k * (codim + 1)}
    check(7, "every monomial has weighted degree k(codim+1)", ok)


def test_criterion_08_leading_coefficient_identity(gg_results):
    ok = True
    for n, result in gg_results.items():
        factor = n * n * math.comb(n + 1, 2)
        expected = (parse_polynomial(f"1 - {factor}*delta")
                    * P.rational(result.theta))
        root = Fraction(2, n ** 3 * (n + 1))
        ok = ok and result.leading == expected
        ok = ok and result.leading.evaluate({DELTA_VAR: root}).is_zero
        ok = ok and result.polynomial.coefficient(D_VAR, n) == result.leading
    check(8, "d^n coefficient factors as (1 - n^2 C(n+1,2) delta) * theta, "
             "root at 2/(n^3(n+1)), for n = 1..4", ok)


def test_criterion_09_theta_positivity(gg_results):
    thetas = {n: gg_results[n].theta for n in range(1, 5)}
    shown = {n: str(v) for n, v in sorted(thetas.items())}
    ok = thetas[1] == 1 and all(thetas[n] > 0 for n in range(1, 5))
    check(9, f"theta values {shown} positive, theta(1) = 1", ok)


def test_criterion_10_euler_characteristic():
    golden = parse_polynomial("d*(d - 3)*m - 1/2*d*(d - 3)")
    chi1 = euler_characteristic(1).chi
    bounds = all(euler_characteristic(n, d=9).chi.degree_in(M_VAR) <= n * n
                 for n in (1, 2, 3))
    check(10, f"chi(1, d; m) = {chi1}; deg_m <= n^2 for n <= 3",
          chi1 == golden and bounds)


def test_criterion_11_embedding_golden_matrix():
    from equiloc.jets import rho
    matrix = rho(GOLDEN_JET)
    expected = golden_matrix()
    ok = (len(matrix) == 4 and all(len(r) == 14 for r in matrix)
          and matrix == expected)
    check(11, "order-4 plane-jet embedding matrix matches entrywise (4 x 14)",
          ok)


def test_criterion_12_minor_invariance():
    rng = random.Random(424)
    gamma = JetCurve([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(2)] for _ in range(4)])
    base = invariant_minors(gamma)
    ok = True
    for _ in range(50):
        phi = ReparamJet([Fraction(1)] +
                         [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(3)])
        ok = ok and invariant_minors(compose(gamma, phi)) == base
    check(12, "all 4x4 minors invariant under 50 random unipotent "
              "reparametrizations at (n, k) = (2, 4)", ok)


def test_criterion_13_residue_property_suites():
    # orientation
    ok = True
    for d in (1, 2, 3):
        order = tuple(zvar(i) for i in range(1, d + 1))
        dens = tuple(P.var(zvar(i)) for i in range(1, d + 1))
        value = iterated_residue(ResidueForm(P.one(), dens, order))
        ok = ok and value == (-1) ** d
    # linearity on 100 random two-variable forms
    rng = random.Random(31337)
    order2 = (zvar(1), zvar(2))
    for _ in range(100):
        den_texts = []
        for _ in range(rng.randint(1, 3)):
            top = rng.randint(1, 2)
            parts = [f"{rng.randint(-2, 2)}*z{i + 1}" for i in range(top - 1)]
            parts.append(f"{rng.choice((-2, -1, 1, 2))}*z{top}")
            if rng.random() < 0.5:
                parts.append(f"{rng.randint(1, 3)}*l1")
            den_texts.append(" + ".join(parts))
        dens = tuple(parse_polynomial(t) for t in den_texts)

        def rand_num():
            pairs = []
            for _ in range(rng.randint(1, 3)):
                pairs.append((rng.randint(-4, 4),
                              [(zvar(1), rng.randint(0, 2)),
                               (zvar(2), rng.randint(0, 2))]))
            return P.from_terms(pairs)

        a, b = rand_num(), rand_num()
        ra = iterated_residue(ResidueForm(a, dens, order2))
        rb = iterated_residue(ResidueForm(b, dens, order2))
        rab = iterated_residue(ResidueForm(a + b, dens, order2))
        ok = ok and rab == ra + rb
        # truncation-enlargement stability against the brute expansion
        parsed = [parse_polynomial(t) for t in den_texts]
        low = brute_residue(a, parsed, ["z1", "z2"], 7)
        high = brute_residue(a, parsed, ["z1", "z2"], 12)
        ok = ok and low == high == ra
    check(13, "orientation (-1)^d for d <= 3; linearity on 100 random "
              "forms; truncation-enlargement stability", ok)
