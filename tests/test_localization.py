"""Fixed-point sums on Grassmannians and flags, and the residue identity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from equiloc.algebra import (Polynomial, Slate, cvar, parse_polynomial,
                             svar, vandermonde, wvar, zvar)
from equiloc import localization
from equiloc.errors import (DegreeMismatch, InputError, RepeatedWeights,
                            SizeLimitExceeded)
from equiloc.localization import (draw_weights, flag_dimension,
                                  flag_fixed_sum, flag_residue,
                                  grass_class_degree_check, grass_integrate,
                                  grass_sum_at, random_flag_class,
                                  run_flag_trials)
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

    @pytest.mark.parametrize("n,weights", [(0, []), (3, [1, 2, 3])])
    def test_point(self, n, weights):
        # Fl_0 and Grass(0, n) are a point: the class's constant
        Q = P.rational(Fraction(5, 2))
        assert flag_fixed_sum(n, 0, Q, weights) == Fraction(5, 2)
        assert flag_residue(n, 0, Q, weights) == Fraction(5, 2)
        assert grass_sum_at(n, 0, Q, weights) == Fraction(5, 2)
        assert flag_fixed_sum(n, 0, P.zero(), weights) == 0


def _coeffs():
    return st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-4, max_value=4, max_denominator=6))


def _classes(variables, max_exp=3):
    """Polynomials in ``variables`` with int and Fraction coefficients:
    zero, constant and non-homogeneous ones included."""
    mono = st.lists(st.tuples(st.sampled_from(variables),
                              st.integers(0, max_exp)),
                    max_size=len(variables))
    return st.lists(st.tuples(_coeffs(), mono), max_size=5).map(
        Polynomial.from_terms)


def _weights(n):
    """n distinct rationals of either sign with unlike denominators."""
    return st.lists(st.fractions(min_value=-30, max_value=30,
                                 max_denominator=9),
                    min_size=n, max_size=n, unique=True)


@st.composite
def _flag_cases(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, n))
    Q = draw(_classes([zvar(l) for l in range(1, d + 1)]))
    return n, d, Q, draw(_weights(n))


@st.composite
def _grass_cases(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    cls = draw(_classes([cvar(i) for i in range(1, k + 1)]))
    return n, k, cls, draw(_weights(n))


class TestIntegerKernels:
    """The integer-weight kernels against the ``Polynomial.evaluate``
    references in ``oracles``."""

    @given(_flag_cases())
    @settings(max_examples=60, deadline=None)
    def test_flag_fixed_sum_matches_reference(self, case):
        n, d, Q, weights = case
        value = flag_fixed_sum(n, d, Q, weights)
        assert type(value) is Fraction
        assert value == oracles.flag_fixed_sum(n, d, Q, weights)

    @given(_grass_cases())
    @settings(max_examples=60, deadline=None)
    def test_grass_sum_at_matches_reference(self, case):
        n, k, cls, mu = case
        value = grass_sum_at(n, k, cls, mu)
        assert type(value) is Fraction
        assert value == oracles.grass_sum_at(n, k, cls, mu)

    def test_many_weights(self):
        # 120 fixed points of 119 tangent weights each, a class with a
        # Fraction coefficient and terms below the top degree
        rng = random.Random(120)
        weights = [w + Fraction(1, rng.randint(2, 12))
                   for w in rng.sample(range(-10_000, 10_000), 120)]
        Q = parse_polynomial("z1^119 - 5/3*z1^118 + 7*z1^3 - 2")
        value = flag_fixed_sum(120, 1, Q, weights)
        assert value == oracles.flag_fixed_sum(120, 1, Q, weights)
        # only z1^119 reaches the top divided difference
        assert value == -1


@st.composite
def _subset_cases(draw):
    n = draw(st.integers(0, 6))
    d = draw(st.integers(0, n))
    if d:
        Q = draw(_classes([zvar(l) for l in range(1, d + 1)], max_exp=6))
    else:  # Fl_0 is a point: a constant class
        Q = P.rational(draw(_coeffs()))
    return n, d, Q, draw(_weights(n))


@st.composite
def _exponent_rows(draw, repeated: bool):
    """(n, d, weights, rows): 1 to 3 (coefficient, exponents of z_1..z_d)
    rows, d >= 2, with two equal exponents in each row if ``repeated``."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, n))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d))
        if repeated:
            i, j = draw(st.sampled_from(
                list(itertools.combinations(range(d), 2))))
            exps[j] = exps[i]
        rows.append((draw(_coeffs()), exps))
    return n, d, draw(_weights(n)), rows


def _class(rows, orders):
    """Σ of c·Π_l z_(order[l]+1)^exps[l] over the rows and the orders."""
    return P.from_terms((c, [(zvar(order[l] + 1), e)
                             for l, e in enumerate(exps) if e])
                        for c, exps in rows for order in orders)


def _kernel(n, d, Q, weights):
    """``localization._subset_numerators`` on Q read at the weights, and
    den·L^top, the factor the integer reading puts on every value."""
    u, scale = localization._scaled(n, weights)
    den, top, tree = localization._flag_reading(Q, d, scale)
    return localization._subset_numerators(u, tree), den * scale ** top


class TestSubsetNumerators:
    """The subset walk against the signed sum over every ordering in
    ``oracles``."""

    @given(_subset_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_orderings(self, case):
        sums, factor = _kernel(*case)
        reference = oracles.subset_numerators(*case)
        assert all(sums.values()) and set(sums) <= set(reference)
        for mask, value in reference.items():
            assert sums.get(mask, 0) == factor * value

    @given(_exponent_rows(repeated=True))
    @settings(max_examples=30, deadline=None)
    def test_repeated_exponents_give_zero(self, case):
        # every term's alternant has two equal rows
        n, d, weights, rows = case
        Q = _class(rows, [range(d)])
        assert _kernel(n, d, Q, weights)[0] == {}
        assert flag_fixed_sum(n, d, Q, weights) == 0
        assert not any(oracles.subset_numerators(n, d, Q, weights).values())

    @given(_exponent_rows(repeated=False))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_classes_give_zero(self, case):
        # the orderings of a subset all give a symmetric class one value
        n, d, weights, rows = case
        Q = _class(rows, itertools.permutations(range(d)))
        assert _kernel(n, d, Q, weights)[0] == {}
        assert flag_fixed_sum(n, d, Q, weights) == 0


def _mixed(terms, name):
    """A case of a class built from (coefficient, [(var, exp), ...]) terms,
    which may hold negative powers that no text parses to, and the bad
    variable it names; the case's id is the class's text."""
    Q = P.from_terms(terms)
    return pytest.param(Q, name, id=str(Q))


# classes with two kinds of bad variable: the first in variable order is
# named, whatever its kind
_MIXED_FLAG = [
    _mixed([(1, [(zvar(2), -1), (wvar(1), 1)])], "a negative power of z2"),
    _mixed([(1, [(zvar(3), 1)]), (1, [(zvar(1), -1)])],
           "a negative power of z1")]
_MIXED_GRASS = [
    _mixed([(1, [(zvar(1), -1), (cvar(1), 1)])], "z1"),
    _mixed([(1, [(cvar(3), 1)]), (1, [(svar("h"), 1)])], "c3")]


def _read(text):
    return parse_polynomial(text) if isinstance(text, str) else text


class TestForeignVariables:
    """A variable the fixed-point sum does not assign is a typed error that
    names it, raised before any fixed point is summed."""

    @pytest.mark.parametrize("text,name", [
        ("z1*l1", "l1"), ("z2 + h", "h"), ("z1^2*z3", "z3"), ("c1", "c1"),
        *_MIXED_FLAG])
    def test_flag_fixed_sum(self, text, name):
        with pytest.raises(InputError, match=f"found {name}$"):
            flag_fixed_sum(4, 2, _read(text), [1, 2, 3, 4])

    @pytest.mark.parametrize("text,name", [
        ("c1*z1", "z1"), ("c2 + l2", "l2"), ("c1*c3", "c3"), ("x", "x"),
        *_MIXED_GRASS])
    def test_grass_sum_at(self, text, name):
        with pytest.raises(InputError, match=f"found {name}$"):
            grass_sum_at(4, 2, _read(text), [1, 2, 3, 4])

    @pytest.mark.parametrize("text,name", [
        ("l1*z1^3*z2^2", "l1"), ("z2 + h", "h"), ("z1^2*z3", "z3"),
        *_MIXED_FLAG])
    def test_flag_residue(self, text, name):
        with pytest.raises(InputError, match=f"found {name}$"):
            flag_residue(4, 2, _read(text), [1, 2, 3, 5])

    @pytest.mark.parametrize("function", [flag_fixed_sum, flag_residue])
    @pytest.mark.parametrize("exps,direct", [
        ((6, -1), Fraction(-917, 10)), ((7, -2), Fraction(-271817, 300))])
    def test_negative_exponents(self, function, exps, direct):
        # a Laurent class has a direct sum over the fixed flags, but the
        # integer sum's power tables hold no negative powers: refused
        Q = P.from_terms([(1, [(zvar(1), exps[0]), (zvar(2), exps[1])])])
        assert oracles.flag_fixed_sum(4, 2, Q, [1, 2, 3, 5]) == direct
        with pytest.raises(InputError,
                           match="found a negative power of z2$"):
            function(4, 2, Q, [1, 2, 3, 5])

    def test_checked_before_summing(self):
        # 9.4e7 and 1.9e11 fixed points: only a check made first answers
        with pytest.raises(InputError, match="found l1$"):
            flag_fixed_sum(100, 4, parse_polynomial("z1*l1"), range(100))
        with pytest.raises(InputError, match="found l1$"):
            flag_residue(100, 4, parse_polynomial("z1*l1"), range(100))
        with pytest.raises(InputError, match="found c9$"):
            grass_sum_at(100, 8, parse_polynomial("c9"), range(100))


@pytest.mark.parametrize("function,args", [
    (flag_fixed_sum, (4, 2, "z1^3*z2^2 + 2/3*z1*z2^4", [1, 2, 3, 5])),
    (grass_sum_at, (4, 2, "c1^2*c2 - 1/5*c2^2", [1, 2, 3, 5])),
    (grass_class_degree_check, (4, 2, "c1^2*c2 - 1/5*c2^2")),
    # the degree check's reading serves all WEIGHT_DRAWS sums
    (grass_integrate, (4, 2, "c1^2*c2 - 1/5*c2^2"))])
def test_one_read_of_the_class(monkeypatch, function, args):
    # the class goes through Slate.dense once: checked and read together;
    # the cache starts empty, whatever ran before
    localization._flag_reading.cache_clear()
    n, k, text, *weights = args
    cls = parse_polynomial(text)
    reads = []
    dense = Slate.dense
    monkeypatch.setattr(Slate, "dense",
                        lambda slate, p: reads.append(p) or dense(slate, p))
    function(n, k, cls, *weights)
    assert sum(p is cls for p in reads) == 1


def _counted_reads(monkeypatch) -> list:
    """The classes ``localization._read_class`` reads from now on, in
    order, starting from an empty reading cache."""
    localization._flag_reading.cache_clear()
    reads = []
    read = localization._read_class
    monkeypatch.setattr(localization, "_read_class",
                        lambda poly, *args: reads.append(poly)
                        or read(poly, *args))
    return reads


class TestOneReadingPerTrial:
    """A trial's six values share one reading of its class."""

    @pytest.mark.parametrize("n,d,trials,seed", [(5, 3, 4, 7), (4, 2, 5, 3)])
    def test_run_flag_trials(self, monkeypatch, n, d, trials, seed):
        reads = _counted_reads(monkeypatch)
        report = run_flag_trials(n, d, trials, seed)
        assert report["all_match"]
        assert [str(Q) for Q in reads] == [r["class"]
                                           for r in report["results"]]
        assert len(reads) == trials == len(set(reads))

    def test_equal_classes_share_a_reading(self, monkeypatch):
        # in z1 alone the class is a multiple of z1^(n-1): every trial of
        # this seed draws z1^3, and the reading is keyed by equality
        reads = _counted_reads(monkeypatch)
        report = run_flag_trials(4, 1, 3, 0)
        assert {r["class"] for r in report["results"]} == {"z1^3"}
        assert len(reads) == 1

    @given(_flag_cases().filter(lambda case: case[0] <= 4),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_classes_and_scales(self, case, data):
        # two classes at weights of two scales, L and 13·L, in an order
        # that makes the cache miss and hit: each value is the oracle's
        n, d, Q, weights = case
        other = data.draw(_classes([zvar(l) for l in range(1, d + 1)]))
        shifted = [w + Fraction(1, 13) for w in weights]
        calls = data.draw(st.lists(st.tuples(
            st.sampled_from([Q, other]), st.sampled_from([weights, shifted]),
            st.sampled_from([flag_fixed_sum, flag_residue])),
            min_size=2, max_size=6))
        for cls, w, route in calls:
            assert route(n, d, cls, w) == oracles.flag_fixed_sum(n, d, cls,
                                                                 w)

    def test_bad_class_raises_on_every_call(self, monkeypatch):
        # lru_cache keeps no exception: each call reads the class again
        reads = _counted_reads(monkeypatch)
        Q = parse_polynomial("z1^3*l1")
        for route in (flag_fixed_sum, flag_fixed_sum, flag_residue):
            with pytest.raises(InputError, match="found l1$"):
                route(4, 2, Q, [1, 2, 3, 5])
        assert reads == [Q, Q, Q]


@pytest.mark.parametrize("function,text", [
    (flag_fixed_sum, "z1^2"), (grass_sum_at, "c1^2"), (flag_residue, "z1^2")])
@pytest.mark.parametrize("weights", [[1, 2], [1, 2, 3, 4]])
def test_weight_count_must_be_n(function, text, weights):
    # n = 3: a list one short and one long are both typed errors
    with pytest.raises(InputError,
                       match=f"n = 3, got {len(weights)} weights$"):
        function(3, 1, parse_polynomial(text), weights)


@pytest.mark.parametrize("function,name", [
    (flag_fixed_sum, "d"), (flag_residue, "d"), (grass_sum_at, "k")])
@pytest.mark.parametrize("rank", [-1, -4])
def test_negative_rank(function, name, rank):
    # a weight list one short: the rank is checked first
    with pytest.raises(InputError,
                       match=f"need {name} >= 0, got {name}={rank}$"):
        function(3, rank, P.one(), [1, 2])


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

    @given(_flag_cases().filter(lambda case: case[0] <= 5))
    @settings(max_examples=40, deadline=None)
    def test_prefactor_form_matches_product_form(self, case):
        # the Vandermonde as the form's prefactor against Q·V as its
        # numerator, with the denominators w - z built through operators
        n, d, Q, weights = case
        zs = tuple(zvar(l) for l in range(1, d + 1))
        dens = tuple(P.rational(w) - P.var(z) for z in zs for w in weights)
        product = iterated_residue(ResidueForm(Q * vandermonde(zs), dens, zs))
        assert flag_residue(n, d, Q, weights) == product.constant_value()

    @pytest.mark.parametrize("n,d", [(10, 4), (8, 5)])
    def test_fixed_sum_equals_residue_at_large_d(self, n, d):
        # 210 and 56 subsets of 24 and 120 orderings each, which the
        # subset walk merges as it goes: 386 and 219 states in all
        rng = random.Random(n * d)
        Q = random_flag_class(n, d, rng)
        w = draw_weights(n, rng)
        assert flag_fixed_sum(n, d, Q, w) == flag_residue(n, d, Q, w)

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

    def test_trial_count_limit(self, monkeypatch):
        monkeypatch.setattr(localization, "MAX_TRIALS", 5)
        assert len(run_flag_trials(3, 1, trials=5)["results"]) == 5
        with pytest.raises(SizeLimitExceeded, match="6 trials"):
            run_flag_trials(3, 1, trials=6)

    def test_sum_work_limit(self, monkeypatch):
        # Flag_3(C^5): 10 subsets of 9 tangent weights over C(5, 2) = 10
        # weight differences is 900 units; Grass(2, 5) is 10·6·10 = 600
        monkeypatch.setattr(localization, "MAX_SUM_WORK", 900)
        assert run_flag_trials(5, 3, trials=1)["all_match"]
        assert grass_integrate(5, 2, parse_polynomial("c1^6")) == 10
        monkeypatch.setattr(localization, "MAX_SUM_WORK", 899)
        with pytest.raises(SizeLimitExceeded, match="900 units"):
            run_flag_trials(5, 3, trials=1)
        monkeypatch.setattr(localization, "MAX_SUM_WORK", 599)
        with pytest.raises(SizeLimitExceeded, match="600 units"):
            grass_integrate(5, 2, parse_polynomial("c1^6"))

    def test_dimensions(self):
        assert flag_dimension(4, 2) == 5
        assert flag_dimension(5, 3) == 9
        assert flag_dimension(2, 1) == 1
