"""Ring laws, the product kernel, evaluation and the text grammar."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc.algebra import (MAX_COEFFICIENT_BITS, MAX_NESTING,
                             MAX_POWER_TERMS, LaurentSeries,
                             Polynomial, compositions, cvar,
                             parse_polynomial, svar, term_list, wvar, zvar)
from equiloc.errors import InputError, SizeLimitExceeded
from oracles import sparse_product

P = Polynomial
X = svar("x")
Y = svar("y")


def _coeffs():
    return st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )


def _polys(vars=(X, Y), max_terms=4, max_exp=3):
    mono = st.lists(
        st.tuples(st.sampled_from(vars), st.integers(0, max_exp)),
        min_size=0, max_size=len(vars))
    term = st.tuples(_coeffs(), mono)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        Polynomial.from_terms)


class TestArithmetic:
    def test_difference_of_squares(self):
        x = P.var(X)
        assert (x + 1) * (x - 1) == x ** 2 - 1

    def test_multiplicative_identity(self):
        p = P.var(zvar(1)) - P.var(zvar(2))
        assert p * P.one() == p

    @given(_polys())
    @settings(max_examples=40, deadline=None)
    def test_annihilator(self, p):
        assert p * P.zero() == P.zero()

    @given(_polys(), _polys(), _polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(_polys(), _polys())
    @settings(max_examples=40, deadline=None)
    def test_sub_is_add_neg(self, a, b):
        assert a - b == a + (-b)

    def test_pow(self):
        x = P.var(X)
        assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
        assert (x + 1) ** 0 == P.one()


def _laurent(max_terms=4):
    """Laurent series mixing negative residue exponents, a scalar, a weight
    and a Chern class, with Fraction coefficients."""
    pair = st.one_of(
        st.tuples(st.sampled_from((zvar(1), zvar(2))), st.integers(-3, 3)),
        st.tuples(st.sampled_from((X, wvar(1), cvar(2))),
                  st.integers(0, 3)))
    term = st.tuples(_coeffs(), st.lists(pair, max_size=4))
    return st.lists(term, max_size=max_terms).map(LaurentSeries.from_terms)


class TestProductKernel:
    @given(_laurent(), _laurent(), _polys(vars=(X, Y, cvar(1))),
           _laurent(max_terms=1))
    @settings(max_examples=80, deadline=None)
    def test_matches_sparse_reference(self, a, b, p, t):
        assert (a * b).terms == sparse_product(a, b)
        assert (p * a).terms == sparse_product(p, a)
        assert (p * p).terms == sparse_product(p, p)
        # a one-term side skips the slate: z1^-1 * z1 must still cancel
        assert (t * a).terms == sparse_product(t, a)
        assert (a * t).terms == sparse_product(a, t)


class TestEvaluate:
    def test_weights(self):
        p = P.var(wvar(1)) + P.var(wvar(2))
        assert p.evaluate({wvar(1): 0, wvar(2): 1}) == 1

    def test_chern(self):
        p = P.var(cvar(1)) ** 2 + P.var(cvar(2))
        assert p.evaluate({cvar(1): 2, cvar(2): 1}) == 5

    def test_partial(self):
        p = P.var(X) * P.var(Y)
        assert p.evaluate({X: Fraction(1, 2)}) == Fraction(1, 2) * P.var(Y)

    def test_cancellation_and_type(self):
        p = LaurentSeries.from_terms([(1, [(X, 1), (zvar(1), -1)]),
                                      (-2, [(Y, 1), (zvar(1), -1)])])
        q = p.evaluate({X: Fraction(4, 2), Y: 1})
        assert q.is_zero and isinstance(q, LaurentSeries)
        r = p.evaluate({X: 3})
        assert isinstance(r, LaurentSeries)
        assert r == LaurentSeries.from_terms([(3, [(zvar(1), -1)]),
                                              (-2, [(Y, 1), (zvar(1), -1)])])


def _recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


class TestCompositions:
    def test_matches_recursive_definition(self):
        for total in range(8):
            for parts in range(1, 6):
                assert list(compositions(total, parts)) == \
                    list(_recursive_compositions(total, parts))

    def test_many_parts(self):
        # past the recursion limit, which a recursive generator would hit
        tuples = list(compositions(1, 2000))
        assert len(tuples) == 2000
        assert tuples[0] == (0,) * 1999 + (1,)
        assert tuples[-1] == (1,) + (0,) * 1999


class TestGrammar:
    def test_examples(self):
        p = parse_polynomial("3/2*c1^2*c2 - z1 + (l1 - l2)^2")
        assert p.degree() == 3
        assert str(parse_polynomial("c1^2 + c2")) == "c1^2 + c2"

    def test_rational_literals(self):
        assert parse_polynomial("2/4") == Fraction(1, 2)
        assert parse_polynomial("-7") == -7

    def test_unary_minus(self):
        assert parse_polynomial("-c1 + 1") == P.one() - P.var(cvar(1))

    def test_errors(self):
        for bad in ("c1 +", "(z1", "z1^x", "1/0", "$"):
            with pytest.raises(InputError):
                parse_polynomial(bad)

    def test_nesting_limit(self):
        deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_polynomial(deep) == P.var(X)
        for bad in ("(" + deep + ")", "-" * 3000 + "x"):
            with pytest.raises(InputError):
                parse_polynomial(bad)

    def test_power_limit(self):
        # a t-term base squared may have C(t + 1, 2) terms: 446 terms give
        # 99,681 <= MAX_POWER_TERMS, 447 give 100,128; a monomial to any
        # power is one term
        assert MAX_POWER_TERMS == 100_000
        squares = ["(" + "+".join(f"z1^{i}" for i in range(t)) + ")^2"
                   for t in (446, 447)]
        assert len(parse_polynomial(squares[0]).terms) == 891
        with pytest.raises(SizeLimitExceeded):
            parse_polynomial(squares[1])
        assert parse_polynomial("z1^100000") == P.var(zvar(1)) ** 100000

    @given(_polys(vars=(X, Y, zvar(1)), max_terms=1),
           _polys(vars=(X, Y, zvar(1))))
    @settings(max_examples=80, deadline=None)
    def test_one_term_product_matches_kernel(self, a, b):
        expected = P(sparse_product(a, b))
        assert parse_polynomial(f"({a})*({b})") == expected
        assert parse_polynomial(f"({b})*({a})") == expected

    @pytest.mark.parametrize("base,exp", [
        ("-3/2*z1^2*l3", 5), ("2*x*z2", 0), ("z1*z2", 3), ("-7", 4),
        ("x^2*y", 1)])
    def test_one_term_power_matches_repeated_products(self, base, exp):
        value = parse_polynomial(f"({base})^{exp}")
        expected = P.one()
        for _ in range(exp):
            expected = expected * parse_polynomial(base)
        assert value == expected
        assert [type(c) for c in value.terms.values()] == \
            [type(c) for c in expected.terms.values()]

    def test_coefficient_bit_limit(self):
        # 2^e and 3^e are bounded by e and 2e bits; a product by the sum of
        # its factors' bounds, and denominators count like numerators
        assert MAX_COEFFICIENT_BITS == 100_000
        assert parse_polynomial("3^10000") == 3 ** 10000
        assert parse_polynomial("2^100000*z1") == 2 ** 100000 * P.var(zvar(1))
        for bad in ("2^100001", "3^30000000", "(1/3)^50001",
                    "3^40000*3^40000", "(2*z1 + 1)^50001"):
            with pytest.raises(SizeLimitExceeded):
                parse_polynomial(bad)

    @given(_polys(vars=(zvar(1), wvar(2), cvar(3), svar("h"))))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        assert parse_polynomial(str(p)) == p

    def test_canonical_order_is_stable(self):
        text = "c1^3 + 3*c1*c2 + 2*c3"
        assert str(parse_polynomial(text)) == text
        terms = term_list(parse_polynomial(text))
        assert terms == [("c1^3", Fraction(1)), ("c1*c2", Fraction(3)),
                         ("c3", Fraction(2))]


class TestLaurentSeries:
    def test_polynomial_forbids_negative_exponents(self):
        from equiloc.algebra import Monomial
        m = Monomial.make([(zvar(1), -1)])
        with pytest.raises(ValueError):
            Polynomial({m: 1})
        LaurentSeries({m: 1})  # fine here

    def test_negative_exponents_only_on_residue_vars(self):
        from equiloc.algebra import Monomial
        with pytest.raises(ValueError):
            LaurentSeries({Monomial.make([(cvar(1), -1)]): 1})

    def test_arithmetic_stays_laurent(self):
        from equiloc.algebra import Monomial
        z = zvar(1)
        a = LaurentSeries({Monomial.make([(z, e)]): 1 for e in (-2, -1, 0)})
        p = Polynomial.var(z) + 1
        for value in (a + p, a - p, p + a, p - a, 1 - a, -a, a * p, p * a,
                      a.coefficient(z, -1)):
            assert type(value) is LaurentSeries
        assert (p * a).terms == (a * p).terms
        coeffs = {m.exponent(z): c for m, c in (a * p).terms.items()}
        assert coeffs == {-2: 1, -1: 2, 0: 2, 1: 1}
        assert a.coefficient(z, -2) == 1
