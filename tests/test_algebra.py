"""Ring laws, the product kernel, evaluation and the text grammar."""

from __future__ import annotations

import decimal
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc.algebra import (MAX_COEFFICIENT_BITS, MAX_NESTING,
                             MAX_POWER_TERMS, MAX_PRODUCT_WORK, Monomial,
                             Polynomial, compositions, cvar, format_rational,
                             parse_factored, parse_polynomial, svar,
                             term_list, wvar, zvar)
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
    """Polynomials mixing negative residue exponents, a scalar, a weight
    and a Chern class, with Fraction coefficients."""
    pair = st.one_of(
        st.tuples(st.sampled_from((zvar(1), zvar(2))), st.integers(-3, 3)),
        st.tuples(st.sampled_from((X, wvar(1), cvar(2))),
                  st.integers(0, 3)))
    term = st.tuples(_coeffs(), st.lists(pair, max_size=4))
    return st.lists(term, max_size=max_terms).map(Polynomial.from_terms)


class TestProductKernel:
    @given(_laurent(), _laurent(), _polys(vars=(X, Y, cvar(1))),
           _laurent(max_terms=1))
    @settings(max_examples=80, deadline=None)
    def test_matches_sparse_reference(self, a, b, p, t):
        assert (a * b).terms == sparse_product(a, b)
        assert (p * a).terms == sparse_product(p, a)
        assert (p * p).terms == sparse_product(p, p)
        # the kernel's one-term path: z1^-1 * z1 must still cancel
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

    def test_cancellation_with_negative_exponents(self):
        p = P.from_terms([(1, [(X, 1), (zvar(1), -1)]),
                          (-2, [(Y, 1), (zvar(1), -1)])])
        assert p.evaluate({X: Fraction(4, 2), Y: 1}).is_zero
        assert p.evaluate({X: 3}) == P.from_terms(
            [(3, [(zvar(1), -1)]), (-2, [(Y, 1), (zvar(1), -1)])])
        # a value for z1 divides by it, exactly
        q = p.evaluate({zvar(1): 3, X: 1})
        assert q == Fraction(1, 3) - Fraction(2, 3) * P.var(Y)
        assert {type(c) for c in q.terms.values()} == {Fraction}
        assert p.evaluate({zvar(1): Fraction(1, 2), X: 2, Y: 0}) == 4


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

    def test_matches_brute_force(self):
        for total in range(7):
            for parts in range(1, 5):
                brute = [t for t in itertools.product(range(total + 1),
                                                      repeat=parts)
                         if sum(t) == total]
                assert list(compositions(total, parts)) == brute

    def test_one_part_draws_no_slots(self):
        # one part used to copy range(total) whole: 399 MB at 10^7
        start = time.perf_counter()
        assert list(compositions(10 ** 12, 1)) == [(10 ** 12,)]
        assert time.perf_counter() - start < 1

    def test_many_parts(self):
        # past the recursion limit, which a recursive generator would hit
        tuples = list(compositions(1, 2000))
        assert len(tuples) == 2000
        assert tuples[0] == (0,) * 1999 + (1,)
        assert tuples[-1] == (1,) + (0,) * 1999


class TestFormatRational:
    def test_ints_and_fractions(self):
        assert format_rational(0) == "0"
        assert format_rational(7) == "7"
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(4, 2)) == "2"

    def test_negatives(self):
        assert format_rational(-7) == "-7"
        assert format_rational(Fraction(-3, 4)) == "-3/4"

    def test_other_types_go_through_fraction(self):
        assert format_rational(decimal.Decimal("2.5")) == "5/2"
        assert format_rational("-6/4") == "-3/2"

    def test_past_the_digit_limit(self):
        # 3^10000 has 4,772 digits, past the int-to-str limit of 4,300
        big = 3 ** 10000
        text = format_rational(-big)
        assert len(text) == 4_773
        assert decimal.Decimal(text) == -big
        num, den = format_rational(Fraction(big, 2)).split("/")
        assert (decimal.Decimal(num), den) == (big, "2")
        num, den = format_rational(Fraction(-2, big)).split("/")
        assert (num, decimal.Decimal(den)) == ("-2", big)


def _expressions():
    """(text, value) of random expression trees: the text is what the
    grammar reads, the value the same tree built with Polynomial operators.
    Rational literals, variables of every alphabet, unary minus, + - *,
    parentheses and small powers."""
    literal = st.one_of(
        st.integers(0, 12).map(lambda n: (str(n), P.rational(n))),
        st.tuples(st.integers(0, 12), st.integers(1, 4)).map(
            lambda nd: (f"{nd[0]}/{nd[1]}", P.rational(Fraction(*nd)))))
    variable = st.sampled_from((zvar(1), zvar(2), wvar(1), cvar(2), X,
                                svar("h"))).map(lambda v: (v.name, P.var(v)))

    def extend(inner):
        def binary(op, value):
            return st.tuples(inner, inner).map(lambda ab: (
                f"({ab[0][0]}){op}({ab[1][0]})", value(ab[0][1], ab[1][1])))
        return st.one_of(
            inner.map(lambda a: (f"-({a[0]})", -a[1])),
            inner.map(lambda a: (f"({a[0]})", a[1])),
            st.tuples(inner, st.integers(0, 3)).map(lambda ae: (
                f"({ae[0][0]})^{ae[1]}", ae[0][1] ** ae[1])),
            binary(" + ", lambda a, b: a + b),
            binary(" - ", lambda a, b: a - b),
            binary("*", lambda a, b: a * b))
    return st.recursive(st.one_of(literal, variable), extend, max_leaves=12)


class TestGrammar:
    def test_examples(self):
        p = parse_polynomial("3/2*c1^2*c2 - z1 + (l1 - l2)^2")
        assert max(p.weighted_degrees(lambda v: 1)) == 3
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

    @pytest.mark.parametrize("text", ["z1^-1", "c1^-2", "z1^(-1)"])
    def test_no_negative_exponents(self, text):
        # the grammar is what keeps text polynomial: Polynomial itself
        # takes negative exponents on residue variables
        with pytest.raises(InputError, match="expected 'int'"):
            parse_polynomial(text)

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

    def test_product_work_limit(self):
        # a product of p x q terms in a v-variable text costs p*q*v: one
        # variable admits 400 x 500 and refuses 401 x 500; two variables
        # admit a 316-term base squared (99,856 pairs) and refuse 317
        # terms (100,489 pairs) inside the expansion of the ^
        assert MAX_PRODUCT_WORK == 200_000

        def powers(var, t):
            return "(" + " + ".join(f"{var}^{i}" for i in range(t)) + ")"

        assert len(parse_polynomial(
            powers("z1", 400) + "*" + powers("z1", 500)).terms) == 899
        with pytest.raises(SizeLimitExceeded, match="200500 term pairs in a "
                           "1-variable text"):
            parse_polynomial(powers("z1", 401) + "*" + powers("z1", 500))

        def zigzag(t):
            return "(" + " + ".join(f"z1^{i}*z2^{i % 2}"
                                    for i in range(t)) + ")^2"

        assert len(parse_polynomial(zigzag(316)).terms) == 945
        with pytest.raises(SizeLimitExceeded, match="100489 term pairs in a "
                           "2-variable text"):
            parse_polynomial(zigzag(317))

    def test_product_work_counts_variables_not_spellings(self):
        # z1 and z01 are one variable, so this is a 1-variable text
        text = ("(" + " + ".join(f"z1^{i}" for i in range(400)) + ")*("
                + " + ".join(f"z01^{i}" for i in range(500)) + ")")
        z = P.var(zvar(1))
        assert parse_polynomial(text) == sum(
            (z ** i for i in range(400)), P.zero()) * sum(
            (z ** i for i in range(500)), P.zero())

    def test_tokens(self):
        # the character classes of str: isdecimal digits start a number,
        # isalpha or _ start a name, isalnum or _ continue it, isspace is
        # whitespace
        assert parse_polynomial("z\u0661") == P.var(zvar(1))  # Arabic-Indic 1
        assert parse_polynomial("x\u00b2") == P.var(svar("x\u00b2"))
        assert parse_polynomial("\u01c51") == P.var(svar("\u01c51"))
        assert parse_polynomial("_a*b") == P.var(svar("_a")) * P.var(svar("b"))
        assert parse_polynomial("x\u00a0+\u00a0y") == P.var(X) + P.var(Y)
        for text, char in (("\u00b2x", "\u00b2"), ("1.5", "."), ("$", "$")):
            with pytest.raises(InputError) as exc:
                parse_polynomial(text)
            assert str(exc.value) == \
                f"unexpected character {char!r} in polynomial text"

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

    @given(_expressions())
    @settings(max_examples=150, deadline=None)
    def test_matches_operator_tree(self, expression):
        text, value = expression
        parsed = parse_polynomial(text)
        assert parsed == value
        # every coefficient is an int when it is integral
        assert {m: type(c) for m, c in parsed.terms.items()} == {
            m: int if Fraction(c).denominator == 1 else Fraction
            for m, c in value.terms.items()}

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

    def test_integral_product_coefficients_are_ints(self):
        # mul_dense leaves 1/2 * 2 a Fraction; Polynomial products do not
        a, b = parse_polynomial("1/2*z1 + z2"), parse_polynomial("2*z1 + z2")
        for p in (a * b, parse_polynomial("(1/2*z1 + z2) * (2*z1 + z2)"),
                  P.rational(Fraction(1, 2)) * parse_polynomial("2*z1")):
            assert _is_int_when_integral(p)
        assert {repr(m): c for m, c in (a * b).terms.items()} == {
            "z1^2": 1, "z1*z2": Fraction(5, 2), "z2^2": 1}

    def test_canonical_order_is_stable(self):
        text = "c1^3 + 3*c1*c2 + 2*c3"
        assert str(parse_polynomial(text)) == text
        terms = term_list(parse_polynomial(text))
        assert terms == [("c1^3", Fraction(1)), ("c1*c2", Fraction(3)),
                         ("c3", Fraction(2))]


def _is_int_when_integral(p: Polynomial) -> bool:
    return all(type(c) is int for c in p.terms.values()
               if Fraction(c).denominator == 1)


class TestFactoredParse:
    """A text that is one product keeps its last factor apart; the
    factors still multiply to the text's polynomial, and the limits refuse
    what they refuse in parse_polynomial, with the same error."""

    def test_a_product_splits_at_its_last_factor(self):
        pre, body = parse_factored("-2*z1^2*(z1 - z2)*(z1 + 3/2*z2)")
        assert pre == parse_polynomial("-2*z1^2*(z1 - z2)")
        assert body == parse_polynomial("z1 + 3/2*z2")
        # the class written first: the body is the small last factor
        assert parse_factored("(z1^2 + z1*z2 + z2^2)*(z1 - z2)") == (
            parse_polynomial("z1^2 + z1*z2 + z2^2"),
            parse_polynomial("z1 - z2"))

    @pytest.mark.parametrize("text", [
        "z1*z2 + 1", "(z1 - z2)*(z1 + z2) - z1", "-2*z1 - z2*3", "z1^3",
        "-(z1 - z2)", "((z1 - z2)*(z1 + z2))", "0*z9", "z9*(z1 - z1)"])
    def test_sums_single_factors_and_zero_products_are_formed(self, text):
        assert parse_factored(text) == (P.one(), parse_polynomial(text))

    @given(_expressions())
    @settings(max_examples=150, deadline=None)
    def test_factors_multiply_to_the_polynomial(self, expression):
        text, value = expression
        pre, body = parse_factored(text)
        assert pre * body == value
        assert _is_int_when_integral(pre) and _is_int_when_integral(body)

    @pytest.mark.parametrize("text", [
        # bits: 99,999 + 1 and 99,999 + 2 at the last product, or at a
        # fold of two one-term operands before it
        "2^99999*z1*(z2 + 2)", "2^99999*4*z1", "3^40000*3^40000*z1",
        # work: 401 x 500 pairs in a one-variable text at the last product
        "2*(" + " + ".join(f"z1^{i}" for i in range(401)) + ")*("
        + " + ".join(f"z1^{i}" for i in range(500)) + ")"],
        ids=["bits-last", "bits-fold", "bits-first", "work-last"])
    def test_limits_refuse_as_in_parse_polynomial(self, text):
        with pytest.raises(SizeLimitExceeded) as whole:
            parse_polynomial(text)
        with pytest.raises(SizeLimitExceeded) as factored:
            parse_factored(text)
        assert str(factored.value) == str(whole.value)

    def test_limits_admit_the_edge(self):
        for text in ("2^99999*z1*(z2 + 1)", "2^99999*2*z1"):
            pre, body = parse_factored(text)
            assert pre * body == parse_polynomial(text)


class TestLaurentSeries:
    """One class: residue variables may carry negative exponents, no
    other alphabet may."""

    def test_polynomial_allows_negative_residue_exponents(self):
        m = Monomial.make([(zvar(1), -1), (zvar(3), -2), (cvar(1), 1)])
        p = Polynomial({m: 1})
        assert p.terms == {m: 1} and str(p) == "z1^-1*z3^-2*c1"

    def test_negative_exponents_only_on_residue_vars(self):
        for var in (cvar(1), wvar(2), svar("h"), X):
            m = Monomial.make([(zvar(1), -1), (var, -1)])
            with pytest.raises(ValueError, match="negative exponent on "
                               f"non-residue variable {var.name}$"):
                Polynomial({m: 1})
            with pytest.raises(ValueError, match=f"variable {var.name}$"):
                Polynomial.from_terms([(2, [(var, -3)])])

    def test_arithmetic_stays_laurent(self):
        z = zvar(1)
        a = Polynomial({Monomial.make([(z, e)]): 1 for e in (-2, -1, 0)})
        p = Polynomial.var(z) + 1
        inv = Polynomial.var(z, -1)
        assert a == inv * inv + inv + 1
        # either operand order, and with an int
        assert p + a == a + p == inv * inv + inv + 2 + Polynomial.var(z)
        assert p - a == -(a - p) == Polynomial.var(z) - inv - inv * inv
        assert 1 - a == -(a - 1) == -inv - inv * inv
        # z^-1 * z cancels, in products of either order
        assert inv * Polynomial.var(z) == Polynomial.var(z) * inv == 1
        assert (p * a).terms == (a * p).terms
        coeffs = {m.exponent(z): c for m, c in (a * p).terms.items()}
        assert coeffs == {-2: 1, -1: 2, 0: 2, 1: 1}
        # slices at negative powers
        assert a.coefficient(z, -2) == 1
        assert (a * p * Polynomial.var(svar("h"))).coefficient(z, -1) == (
            2 * Polynomial.var(svar("h")))
