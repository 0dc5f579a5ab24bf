"""Expansion and iterated-residue contracts, including the property suites:
orientation, linearity, degree bookkeeping and truncation stability."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc.algebra import (Monomial, Polynomial, compositions,
                             parse_polynomial, vandermonde, wvar, zvar)
from equiloc.errors import InputError, NoDominantVariable, WindowOverflow
from equiloc.localization import flag_dimension, flag_fixed_sum
from equiloc.residue import ResidueForm, iterated_residue, residue_job
from oracles import brute_residue, multiplied_out_job

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
                num = Polynomial({Monomial.make([(Z1, -j - 1), (Z2, j)]): 1})
                assert res(num, [f"{a}*z1 - z2"], (Z1, Z2)) == -(a ** j)
        # 1/(l1 - z1) = -sum_j l1^j / z1^(j+1); the d = 1 sign flips it
        for j in range(4):
            assert res(P.var(Z1) ** j, ["l1 - z1"], (Z1,)) == \
                P.var(wvar(1)) ** j

    def test_repeated_order_entry_rejected(self):
        with pytest.raises(InputError):
            ResidueForm(P.one(), (P.var(Z1),), (Z1, Z1))

    def test_window_overflow(self):
        num = Polynomial({Monomial.make([(Z2, 300), (Z1, -1)]): 1})
        with pytest.raises(WindowOverflow, match="order 300 in z2 exceeds "
                           "the limit 256"):
            res(num, ["z1 - z2"], (Z1, Z2))

    def test_window_overflow_counts_the_prefactor(self):
        # the prefactor z2^3 adds 3 to the order the body z2^(N-3)/z1
        # calls for, so N = 256 is the largest order that runs
        def form(top):
            body = Polynomial({Monomial.make([(Z2, top - 3),
                                              (Z1, -1)]): 1})
            return ResidueForm(body, (parse_polynomial("z1 - z2"),),
                               (Z1, Z2), P.var(Z2) ** 3)

        assert iterated_residue(form(256)) == 0
        with pytest.raises(WindowOverflow, match="order 257 in z2 exceeds "
                           "the limit 256"):
            iterated_residue(form(257))

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


def _budget_form(rng):
    """A random form with d <= 3 residue variables for the degree budget:
    the contour is a shuffled index order, one variable may have no factor
    (s_p = 0), each factor's rest draws up to two of its lower z's, l1/l2
    and a constant, and the Laurent numerator puts its degree on the most
    dominant variable, with exponents down to -1 on the others."""
    d = rng.randint(1, 3)
    order = [zvar(i) for i in range(1, d + 1)]
    rng.shuffle(order)
    bare = rng.randrange(d) if d > 1 else None
    counts = [0 if q == bare else rng.randint(1, 3) for q in range(d)]
    while sum(counts) > 4:
        counts[rng.choice([q for q, c in enumerate(counts) if c > 1])] -= 1
    dens = []
    for q, z in enumerate(order):
        for _ in range(counts[q]):
            pool = [f"{rng.choice((-2, -1, 1, 2))}*{low.name}"
                    for low in order[:q]]
            pool += [f"{rng.randint(1, 3)}*l{rng.randint(1, 2)}",
                     str(rng.choice((-2, -1, 1, 3)))]
            parts = [f"{rng.choice((-2, -1, 1, 2))}*{z.name}"]
            parts += rng.sample(pool, rng.randint(0, 2))
            dens.append(" + ".join(parts))
    terms: dict = {}
    for _ in range(rng.randint(1, 4)):
        mono = [(z, rng.randint(-1, 1)) for z in order[:-1]]
        mono.append((order[-1], rng.randint(0, 3)))
        if rng.random() < 0.3:
            mono.append((wvar(rng.randint(1, 2)), 1))
        m = Monomial.make(mono)
        terms[m] = terms.get(m, 0) + rng.choice((-3, -1, 1, 2))
    num = Polynomial({m: c for m, c in terms.items() if c})
    return num, dens, tuple(order)


class TestDegreeBudget:
    """The engine drops numerator terms that cannot reach z_1^-1...z_d^-1;
    the brute-force oracle keeps every term, so a budget that is too tight
    (s_p in place of s_p - 1, or no lift from lower z's in the factor
    rests) shows up as a disagreement."""

    def test_random_forms_match_brute_force_at_two_orders(self):
        rng = random.Random(6)
        nonzero = 0
        for _ in range(60):
            num, dens, order = _budget_form(rng)
            parsed = [parse_polynomial(t) for t in dens]
            engine = iterated_residue(ResidueForm(num, tuple(parsed), order))
            names = [v.name for v in order]
            low = brute_residue(num, parsed, names, 4)
            high = brute_residue(num, parsed, names, 6)
            assert engine == low == high
            nonzero += not engine.is_zero
        assert nonzero >= 15

    @pytest.mark.parametrize("num,dens,order", [
        # z1 carries two factors, so z2's peel needs one degree of z1,
        # which only the z1 in z2 - z1 supplies
        ({(Z2, 1)}, ["z2 - z1", "z1 + 1", "z1 + 2"], ["z1", "z2"]),
        ({(Z1, 4), (Z2, -1)}, ["z1 + 2*z2 - l1", "z2 + 1", "3*z2 - l2",
                               "z3 - z2"], ["z2", "z3", "z1"]),
        ({(Z1, 2), (Z2, 1)}, ["z1 + z2 - l1", "z2 + 2", "z2 - l2",
                              "z2 + z3", "z3"], ["z3", "z2", "z1"]),
    ], ids=["lift", "laurent-unordered", "three-levels"])
    def test_lift_from_lower_variables(self, num, dens, order):
        numerator = Polynomial({Monomial.make(num): 1})
        parsed = [parse_polynomial(t) for t in dens]
        value = iterated_residue(ResidueForm(
            numerator, tuple(parsed), tuple(zvar(int(n[1:])) for n in order)))
        assert not value.is_zero
        assert value == brute_residue(numerator, parsed, order, 6)


def _random_prefactor(rng, order):
    """1 one time in five, else two to four terms in the order's variables
    and l1 with exponents -2..2; the exponents of the most dominant
    variable z_k come from a pair, so the z_k-slices often hold terms of
    several degrees in the lower variables."""
    if rng.random() < 0.2:
        return P.one()
    tops = [rng.randint(-2, 2) for _ in range(2)]
    terms: dict = {}
    for _ in range(rng.randint(2, 4)):
        exps = [rng.randint(-2, 2) for _ in order[:-1]] + [rng.choice(tops)]
        m = Monomial.make(list(zip(order, exps))
                          + [(wvar(1), rng.randint(0, 1))])
        terms[m] = terms.get(m, 0) + rng.choice((-3, -1, 1, 2))
    return Polynomial({m: c for m, c in terms.items() if c})


class TestPrefactor:
    """The engine multiplies a form's prefactor in slice by slice at the
    first peel; the result must be that of the multiplied-out form."""

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_prefactor_equals_the_multiplied_out_form(self, seed):
        rng = random.Random(seed)
        num, dens, order = _budget_form(rng)
        parsed = tuple(parse_polynomial(t) for t in dens)
        pre = _random_prefactor(rng, order)
        split = iterated_residue(ResidueForm(num, parsed, order, pre))
        assert split == iterated_residue(ResidueForm(pre * num, parsed, order))

    @pytest.mark.parametrize("texts", [("1", "z1^2"), ("z1^2", "1")])
    def test_slice_budget_reads_its_highest_lower_degree(self, texts):
        # z1 carries three factors, so z2's peel needs lower degree 2; the
        # body 1 reaches it only through the z1^2 of the slice 1 + z1^2,
        # whichever term of the slice comes first
        prefactor = P({next(iter(parse_polynomial(t).terms)): 1
                       for t in texts})
        dens = ["z2", "z1 + 1", "z1 + 2", "z1 + 3"]
        value = iterated_residue(ResidueForm(
            P.one(), tuple(map(parse_polynomial, dens)), (Z1, Z2), prefactor))
        assert value == 1 == res(prefactor, dens, (Z1, Z2))

    def test_every_slice_meets_the_body_terms_that_pass(self):
        # with the same factors, the body terms 1 and z2^-1 pass with the
        # prefactor's gain 3, from z1^3 z2, and meet both of its z2-slices;
        # 1 reaches the residue only with z1^2, whose degree is below 3
        prefactor = parse_polynomial("z1^2 + z1^3*z2")
        body = Polynomial({Monomial.make([]): 1,
                           Monomial.make([(Z2, -1)]): 1})
        dens = ["z2", "z1 + 1", "z1 + 2", "z1 + 3"]
        value = iterated_residue(ResidueForm(
            body, tuple(map(parse_polynomial, dens)), (Z1, Z2), prefactor))
        assert value == -5 == res(prefactor * body, dens, (Z1, Z2))

    @pytest.mark.parametrize("body,prefactor", [
        ("1", "z2^300 + z1^5"), ("z2^200 + z1^2", "z2^200 + z1^2")])
    def test_terms_that_reach_with_no_partner_set_no_order(self, body,
                                                           prefactor):
        # z2's peel needs lower degree 2 and z2's factor lifts nothing, so
        # z2^300 meets no term of the body 1, and z2^200 z2^200 (order 400)
        # is no pair although each z2^200 passes with the other's z1^2
        body, prefactor = parse_polynomial(body), parse_polynomial(prefactor)
        dens = ["z2", "z1 + 1", "z1 + 2", "z1 + 3"]
        value = iterated_residue(ResidueForm(
            body, tuple(map(parse_polynomial, dens)), (Z1, Z2), prefactor))
        assert value == res(prefactor * body, dens, (Z1, Z2))

    def test_zero_prefactor_builds_no_expansion(self):
        # the body alone would call for order 300 in z2
        body = Polynomial({Monomial.make([(Z2, 300), (Z1, -1)]): 1})
        form = ResidueForm(body, (parse_polynomial("z1 - z2"),), (Z1, Z2),
                           P.zero())
        assert iterated_residue(form) == 0

    def test_prefactor_variable_missing_from_order(self):
        with pytest.raises(InputError, match="not in the order: z2"):
            ResidueForm(P.one(), (P.var(Z1),), (Z1,), P.var(Z2))


def _flag_form(n, d, cls, zs):
    dens = tuple(P.var(wvar(i)) - P.var(z) for z in zs
                 for i in range(1, n + 1))
    return ResidueForm(cls * vandermonde(zs), dens, zs)


def _random_class(degree, d, rng):
    """Every monomial of the degree in z1..zd, with random nonzero integer
    coefficients."""
    return P.from_terms(
        (rng.choice((-1, 1)) * rng.randint(1, 9),
         [(zvar(i + 1), e) for i, e in enumerate(exps)])
        for exps in compositions(degree, d))


class TestFlagPushforwardOracles:
    """Flag pushforwards with symbolic weights against oracles that share
    nothing with the residue engine."""

    @pytest.mark.parametrize("n,d", [(6, 3), (7, 4), (8, 4)])
    def test_top_degree_is_a_vandermonde_coefficient(self, n, d):
        # each 1/prod_i (l_i - z_j) is (-1)^n z_j^-n (1 + O(1/z_j)), and
        # V * class has degree d(n - 1), so only z_j^(n-1) of each is read
        zs = tuple(zvar(j) for j in range(1, d + 1))
        rng = random.Random(f"top-{n}-{d}")
        cls = _random_class(flag_dimension(n, d), d, rng)
        top = Monomial.make([(z, n - 1) for z in zs])
        coefficient = (cls * vandermonde(zs)).terms.get(top, 0)
        assert coefficient
        expected = (-1) ** (d * (n + 1)) * coefficient
        assert iterated_residue(_flag_form(n, d, cls, zs)) == expected

    @pytest.mark.parametrize("n,d", [(5, 3), (6, 4)])
    def test_above_top_degree_matches_fixed_points(self, n, d):
        zs = tuple(zvar(j) for j in range(1, d + 1))
        rng = random.Random(f"above-{n}-{d}")
        cls = _random_class(flag_dimension(n, d) + 2, d, rng)
        value = iterated_residue(_flag_form(n, d, cls, zs))
        assert value.weighted_degrees(lambda v: 1) == {2}
        for _ in range(2):
            weights = rng.sample(range(-40, 41), n)
            at = value.evaluate({wvar(i + 1): w
                                 for i, w in enumerate(weights)})
            assert at == flag_fixed_sum(n, d, cls, weights)


def _factor_text(rng, names, terms):
    """``(sum)`` of ``terms`` terms in the residue variables and l1, with
    rational coefficients and exponents 0..2."""
    parts = []
    for _ in range(terms):
        mono = [f"{v}^{e}" if e > 1 else v
                for v in names + ["l1"] if (e := rng.randint(0, 2))]
        c = f"{rng.choice((-3, -1, 1, 2))}/{rng.choice((1, 1, 2, 3))}"
        parts.append("*".join([c] + mono))
    return "(" + " + ".join(parts) + ")"


def _job_numerator(rng, kind, names):
    """A numerator text of one of four shapes for the job-level tests."""
    small = [_factor_text(rng, names, rng.randint(1, 2))
             for _ in range(rng.randint(1, 3))]
    big = _factor_text(rng, names, rng.randint(3, 6))
    if kind == "product":  # leading -, a ^ factor and a rational one
        return ("-" + rng.choice(("3/2", "-2/5")) + "*" + names[-1] + "^2*"
                + small[0] + "^2*" + "*".join(small[1:] + [big]))
    if kind == "class-first":  # the body has fewer terms than the prefactor
        return big + "*" + _factor_text(rng, names, 1)
    if kind == "single":
        return rng.choice(("", "-")) + big + rng.choice(("", "^2"))
    return "*".join(small) + " - " + big  # a sum


JOB_KINDS = ("product", "class-first", "single", "sum")


class TestJsonJobs:
    """residue_job keeps a product numerator factored; its answer must be
    that of the numerator multiplied out, with prefactor 1."""

    @given(seed=st.integers(0, 10 ** 9), kind=st.sampled_from(JOB_KINDS))
    @settings(max_examples=120, deadline=None)
    def test_job_equals_the_multiplied_out_numerator(self, seed, kind):
        rng = random.Random(seed)
        _, dens, order = _budget_form(rng)
        names = [v.name for v in order]
        job = {"numerator": _job_numerator(rng, kind, names),
               "denominators": dens, "order": names}
        assert residue_job(job) == multiplied_out_job(job)

    def test_job_shapes_reach_the_residue(self):
        # the shapes above give nonzero residues, so the equality is not
        # one of zeros
        for kind in JOB_KINDS:
            rng = random.Random(kind)
            nonzero = 0
            for _ in range(20):
                _, dens, order = _budget_form(rng)
                names = [v.name for v in order]
                job = {"numerator": _job_numerator(rng, kind, names),
                       "denominators": dens, "order": names}
                out = residue_job(job)
                assert out == multiplied_out_job(job)
                nonzero += out["residue"] != "0"
            assert nonzero >= 5, kind

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
