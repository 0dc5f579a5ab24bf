"""Fixed-point sums on Grassmannians and flags, and the residue identity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from equiloc.algebra import (Polynomial, parse_polynomial, vandermonde, wvar,
                             zvar)
from equiloc.errors import DegreeMismatch, InputError, RepeatedWeights
from equiloc.localization import (draw_weights, flag_dimension,
                                  flag_fixed_sum, flag_residue,
                                  grass_integrate, grass_sum_at,
                                  random_flag_class, run_flag_trials)
from equiloc.residue import ResidueForm, iterated_residue

P = Polynomial


def symbolic_fixed_sum_numerator(n: int, d: int, Q: Polynomial):
    """The flag fixed-point sum times vandermonde(l1..ln): over each fixed
    flag, Q at its weights times the product of the factors l_a - l_b
    (a < b) of the Vandermonde that are not its tangent weights, with the
    sign of the tangent weights written as l_a - l_b."""
    lam = {i: P.var(wvar(i)) for i in range(1, n + 1)}
    total = P.zero()
    for head in itertools.permutations(range(1, n + 1), d):
        seq = list(head) + [j for j in range(1, n + 1) if j not in head]
        sign, used = 1, set()
        for m in range(d):
            for i in range(m + 1, n):
                a, b = seq[i], seq[m]
                if a > b:
                    sign, a, b = -sign, b, a
                used.add((a, b))
        cofactor = P.rational(sign)
        for a, b in itertools.combinations(range(1, n + 1), 2):
            if (a, b) not in used:
                cofactor = cofactor * (lam[a] - lam[b])
        rename = {zvar(l + 1): wvar(seq[l]) for l in range(d)}
        renamed = P.from_terms((c, [(rename.get(v, v), e) for v, e in m.exps])
                               for m, c in Q.terms.items())
        total = total + renamed * cofactor
    return total


class TestGrassIntegrate:
    def test_golden_two(self):
        assert grass_integrate(4, 2, parse_polynomial("c1^2*c2")) == 2

    def test_projective_plane(self):
        assert grass_integrate(3, 1, parse_polynomial("c1^2")) == 1

    def test_projective_line(self):
        assert grass_integrate(2, 1, parse_polynomial("c1")) == -1

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            grass_integrate(4, 2, parse_polynomial("c1*c2"))
        with pytest.raises(DegreeMismatch):
            grass_integrate(4, 2, parse_polynomial("c1^4 + c1"))

    def test_foreign_variable_rejected(self):
        with pytest.raises(InputError):
            grass_integrate(4, 2, parse_polynomial("c3*c1"))

    def test_weight_independence(self):
        cls = parse_polynomial("c2^2")
        rng = random.Random(5)
        values = {grass_sum_at(4, 2, cls, draw_weights(4, rng))
                  for _ in range(3)}
        assert len(values) == 1

    def test_weyl_antisymmetry(self):
        cls = parse_polynomial("c1^4")
        mu = [Fraction(x) for x in (3, -2, 11, 7)]
        swapped = [mu[1], mu[0], mu[2], mu[3]]
        assert grass_sum_at(4, 2, cls, mu) == grass_sum_at(4, 2, cls, swapped)

    def test_integer_for_chern_classes(self):
        for text in ("c1^4", "c2^2", "c1^2*c2"):
            value = grass_integrate(4, 2, parse_polynomial(text))
            assert value.denominator == 1

    def test_classical_pairings_under_tuple_normalization(self):
        # subspace-indexed intersection numbers on Grass(2, 4) are 2, 1, 1;
        # the tuple-indexed pairing counts each subspace k! = 2 times
        assert grass_integrate(4, 2, parse_polynomial("c1^4")) == 4
        assert grass_integrate(4, 2, parse_polynomial("c2^2")) == 2
        assert grass_integrate(4, 2, parse_polynomial("c1^2*c2")) == 2

    def test_repeated_weights(self):
        with pytest.raises(RepeatedWeights):
            grass_sum_at(2, 1, parse_polynomial("c1"), [1, 1])


class TestFlagFixedSum:
    def test_three_point_numeric(self):
        value = flag_fixed_sum(3, 1, P.var(zvar(1)) ** 2, [0, 1, 2])
        assert value == 1

    def test_antisymmetric_cancellation(self):
        assert flag_fixed_sum(2, 2, P.one(), [2, 5]) == 0

    def test_repeated_weights(self):
        with pytest.raises(RepeatedWeights):
            flag_fixed_sum(3, 1, P.var(zvar(1)), [1, 2, 1])


class TestFlagResidue:
    def test_matches_fixed_sum_numeric(self):
        value = flag_residue(3, 1, P.var(zvar(1)) ** 2, [0, 1, 2])
        assert value == 1

    def test_degree_too_low_gives_zero(self):
        assert flag_residue(2, 2, P.one(), [2, 5]) == 0

    def test_symbolic_equals_symbolic_sum(self):
        # the fixed-point sum over the common denominator vandermonde(l)
        # is the symbolic residue; checked by multiplying back
        for (n, d, text) in ((2, 1, "z1"), (3, 1, "z1^2"), (3, 2, "z1^2*z2"),
                             (4, 2, "z1^3*z2^2 + 2*z1*z2^4")):
            Q = parse_polynomial(text)
            lam = [wvar(i) for i in range(1, n + 1)]
            zs = tuple(zvar(l) for l in range(1, d + 1))
            dens = tuple(P.var(w) - P.var(z) for z in zs for w in lam)
            residue = iterated_residue(
                ResidueForm(Q * vandermonde(zs), dens, zs))
            assert residue * vandermonde(lam) == \
                symbolic_fixed_sum_numerator(n, d, Q)

    def test_cross_oracle_on_random_classes(self):
        rng = random.Random(11)
        for n, d in ((3, 2), (4, 2), (4, 3)):
            for _ in range(2):
                Q = random_flag_class(n, d, rng)
                draws = [draw_weights(n, rng) for _ in range(3)]
                values = set()
                for w in draws:
                    fs = flag_fixed_sum(n, d, Q, w)
                    fr = flag_residue(n, d, Q, w)
                    assert fs == fr
                    values.add(fs)
                assert len(values) == 1


class TestTrials:
    def test_report_is_deterministic(self):
        a = run_flag_trials(3, 2, trials=4, seed=7)
        b = run_flag_trials(3, 2, trials=4, seed=7)
        assert a == b
        assert a["all_match"]

    def test_dimensions(self):
        assert flag_dimension(4, 2) == 5
        assert flag_dimension(5, 3) == 9
        assert flag_dimension(2, 1) == 1
