"""Expansion and iterated-residue contracts, including the property suites:
orientation, linearity, degree bookkeeping and truncation stability."""

from __future__ import annotations

import random

import pytest

from equiloc.algebra import (LaurentSeries, Monomial, Polynomial,
                             parse_polynomial, wvar, zvar)
from equiloc.errors import InputError, NoDominantVariable, WindowOverflow
from equiloc.residue import ResidueForm, iterated_residue, residue_job
from oracles import brute_residue

P = Polynomial
Z1, Z2, Z3 = zvar(1), zvar(2), zvar(3)


def res(numerator, den_texts, order):
    dens = tuple(parse_polynomial(t) for t in den_texts)
    return iterated_residue(ResidueForm(numerator, dens, order))


class TestIteratedResidue:
    def test_orientation(self):
        for d in (1, 2, 3):
            order = tuple(zvar(i) for i in range(1, d + 1))
            value = res(P.one(), [f"z{i}" for i in range(1, d + 1)], order)
            assert value == (-1) ** d

    def test_nested_pole(self):
        # the honest value under the documented expansion/orientation; see
        # the linearity and pushforward suites for why it is pinned
        assert res(P.one(), ["z1", "z1 - z2"], (Z1, Z2)) == -1

    def test_three_fixed_points(self):
        z = P.var(Z1)
        value = res(z ** 2, ["l1 - z1", "l2 - z1", "l3 - z1"], (Z1,))
        assert value == P.one()

    def test_double_pole_no_contribution(self):
        assert res(P.one(), ["z1", "z1", "z2"], (Z1, Z2)).is_zero

    def test_pure_parameter_denominator_rejected(self):
        with pytest.raises(NoDominantVariable):
            res(P.one(), ["z1", "l1 + 1"], (Z1,))

    @pytest.mark.parametrize("text", ["z1^2", "l1*z1", "z1*z2", "z1 + z2^2"])
    def test_non_affine_denominator_rejected(self, text):
        with pytest.raises(InputError, match="not affine"):
            res(P.one(), ["z1", text], (Z1, Z2))

    def test_variable_missing_from_order(self):
        with pytest.raises(InputError):
            res(P.one(), ["z1", "z1 - z2"], (Z1,))

    def test_geometric_expansion_coefficients(self):
        # with z2 dominant, 1/(a*z1 - z2) = -sum_j a^j z1^j / z2^(j+1); the
        # residue of z1^(-j-1) z2^j against it reads that coefficient back
        for a in (1, 2):
            for j in range(4):
                num = LaurentSeries(
                    {Monomial.make([(Z1, -j - 1), (Z2, j)]): 1})
                assert res(num, [f"{a}*z1 - z2"], (Z1, Z2)) == -(a ** j)
        # 1/(l1 - z1) = -sum_j l1^j / z1^(j+1); the d = 1 sign flips it
        for j in range(4):
            assert res(P.var(Z1) ** j, ["l1 - z1"], (Z1,)) == \
                P.var(wvar(1)) ** j

    def test_repeated_order_entry_rejected(self):
        with pytest.raises(InputError):
            ResidueForm(P.one(), (P.var(Z1),), (Z1, Z1))

    def test_window_overflow(self):
        num = LaurentSeries({Monomial.make([(Z2, 300), (Z1, -1)]): 1})
        with pytest.raises(WindowOverflow, match="order 300 in z2 exceeds "
                           "the limit 256"):
            res(num, ["z1 - z2"], (Z1, Z2))

    def test_result_has_no_residue_variables(self):
        from equiloc.algebra import RESIDUE
        z = P.var(Z1)
        value = res(z ** 3, ["l1 - z1", "l2 - z1", "l3 - z1"], (Z1,))
        assert all(v.kind != RESIDUE for v in value.variables())


def _random_denominators(rng, d, count):
    dens = []
    for _ in range(count):
        top = rng.randint(1, d)
        coeffs = [rng.randint(-2, 2) for _ in range(top - 1)]
        lead = rng.choice((-2, -1, 1, 2))
        text_parts = [f"{c}*z{i + 1}" for i, c in enumerate(coeffs) if c]
        text_parts.append(f"{lead}*z{top}")
        if rng.random() < 0.5:
            text_parts.append(f"{rng.randint(1, 3)}*l{rng.randint(1, 2)}")
        dens.append(" + ".join(text_parts))
    return dens


def _random_numerator(rng, d):
    pairs = []
    for _ in range(rng.randint(1, 4)):
        mono = [(zvar(i + 1), rng.randint(0, 2)) for i in range(d)]
        if rng.random() < 0.4:
            mono.append((wvar(rng.randint(1, 2)), rng.randint(0, 1)))
        pairs.append((rng.randint(-5, 5), mono))
    return P.from_terms(pairs)


class TestProperties:
    def test_linearity_on_random_forms(self):
        rng = random.Random(20240)
        order2 = (Z1, Z2)
        for _ in range(100):
            d = 2
            dens = _random_denominators(rng, d, rng.randint(1, 3))
            a = _random_numerator(rng, d)
            b = _random_numerator(rng, d)
            ra = res(a, dens, order2)
            rb = res(b, dens, order2)
            rab = res(a + b, dens, order2)
            assert rab == ra + rb

    def test_degree_bookkeeping_forces_zero(self):
        # parameter-free homogeneous linear denominators: the residue
        # vanishes unless deg(numerator) == N - d
        rng = random.Random(7)
        for _ in range(40):
            d = rng.choice((1, 2, 3))
            order = tuple(zvar(i) for i in range(1, d + 1))
            count = rng.randint(d, d + 3)
            dens = []
            for _ in range(count):
                top = rng.randint(1, d)
                parts = [f"{rng.randint(-2, 2)}*z{i + 1}"
                         for i in range(top - 1)]
                parts.append(f"{rng.choice((-2, -1, 1, 2))}*z{top}")
                dens.append(" + ".join(parts))
            degree = rng.randint(0, count + 1)
            if degree == count - d:
                continue
            mono = []
            remaining = degree
            for i in range(d - 1):
                e = rng.randint(0, remaining)
                mono.append((zvar(i + 1), e))
                remaining -= e
            mono.append((zvar(d), remaining))
            num = P.from_terms([(rng.choice((-3, -1, 1, 2, 3)), mono)])
            assert res(num, dens, order).is_zero

    def test_truncation_enlargement_stable(self):
        rng = random.Random(99)
        order2 = (Z1, Z2)
        names = ["z1", "z2"]
        for _ in range(25):
            dens = _random_denominators(rng, 2, rng.randint(1, 3))
            num = _random_numerator(rng, 2)
            engine = res(num, dens, order2)
            parsed = [parse_polynomial(t) for t in dens]
            low = brute_residue(num, parsed, names, 8)
            high = brute_residue(num, parsed, names, 13)
            assert engine == low == high


class TestJsonJobs:
    def test_round_trip(self):
        job = {"numerator": "1",
               "denominators": ["z1", "z2", "z3"],
               "order": ["z1", "z2", "z3"]}
        out = residue_job(job)
        assert out == {"residue": "-1"}
        assert parse_polynomial(out["residue"]) == -1

    def test_parameters_stay_symbolic(self):
        # the two-fixed-point pushforward of z^2: -(l1 + l2)
        job = {"numerator": "z1^2",
               "denominators": ["l1 - z1", "l2 - z1"],
               "order": ["z1"]}
        out = residue_job(job)
        assert parse_polynomial(out["residue"]) == parse_polynomial("-l1 - l2")

    def test_malformed(self):
        with pytest.raises(InputError):
            residue_job({"numerator": "1"})
        with pytest.raises(InputError):
            residue_job({"numerator": "1", "denominators": ["z1"],
                         "order": ["q1"]})
