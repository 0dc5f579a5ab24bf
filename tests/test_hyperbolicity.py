"""Hypersurface intersection polynomial, leading-constant identities and
the jet-sheaf Euler characteristic against direct curve geometry."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from equiloc import hyperbolicity
from equiloc.algebra import Polynomial, parse_polynomial
from equiloc.errors import MissingQ
from equiloc.hyperbolicity import (D_VAR, DELTA_VAR, M_VAR, EulerResult,
                                   _hypersurface_class, _todd_class,
                                   _tower_residue, _zshift, _zsum,
                                   euler_characteristic,
                                   intersection_polynomial, leading_constant,
                                   positivity_threshold)
from equiloc.residue import iterated_residue
from equiloc.thom import QTable, curvilinear_form

P = Polynomial
H = oracles.H


def top_intersection(n: int) -> Polynomial:
    """Top self-intersection of the tautological class against the
    hypersurface tail (the positivity form replaced by its degree-only
    block); equals (n^2)! times the leading m-coefficient of the Euler
    characteristic."""
    residue = iterated_residue(curvilinear_form(
        n, QTable.builtin().get(n), _zsum(n) ** (n * n),
        oracles.hypersurface_tail(n, P.var(D_VAR)), _zshift(n, n)))
    return residue.coefficient(H, n) * P.var(D_VAR)


_RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_hypersurface_class_is_the_cut_product(n, data):
    # coefficients 0..n of the full product in a plain h, for unit series
    # g given by 1 to n + 2 coefficients (a short g is padded with zeros)
    g = [1] + data.draw(st.lists(_RATIONAL, max_size=n + 1))
    full = oracles.hypersurface_class(n, g, P.var(D_VAR))
    assert _hypersurface_class(n, g) == [full.coefficient(H, i)
                                         for i in range(n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tower_form_is_the_read_part_of_the_product(n, monkeypatch):
    # one form per part j, whose numerator is the h^n coefficient of
    # h^j Z^(n^2-j) times the tail, exactly
    forms = []

    def capture(form):
        forms.append(form)
        return iterated_residue(form)

    monkeypatch.setattr(hyperbolicity, "iterated_residue", capture)
    qn = QTable.builtin().get(n)
    _tower_residue(n, qn, [1] * (n + 1))
    tail = oracles.hypersurface_tail(n, P.var(D_VAR))
    expected = set()
    for j in range(n + 1):
        part = (P.var(H, j) * _zsum(n) ** (n * n - j) * tail).coefficient(H, n)
        read = curvilinear_form(n, qn, _zshift(n, n), part)
        expected.add((read.prefactor, read.numerator))
    assert len(forms) == n + 1
    assert {(f.prefactor, f.numerator) for f in forms} == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_tower_residue_is_the_residue_of_the_tower_form(n, data):
    # the x_j and a rational degree applied after the residues give the
    # residue of the one form that holds them
    xs = data.draw(st.lists(_RATIONAL, min_size=n + 1, max_size=n + 1))
    d = data.draw(st.one_of(st.none(), _RATIONAL))
    qn = QTable.builtin().get(n)
    got = _tower_residue(n, qn, xs)
    if d is None:
        d_poly = P.var(D_VAR)
    else:
        d_poly, got = P.rational(d), got.evaluate({D_VAR: d})
    assert got == iterated_residue(oracles.tower_form(n, qn, xs, d_poly))


@pytest.fixture(scope="module")
def gg():
    return {n: intersection_polynomial(n) for n in (1, 2, 3)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_todd_class_golden(n):
    # Hirzebruch's Todd polynomials 1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24 in
    # the Chern classes of c(T_X) = (1 + h)^(n+2) / (1 + d h), read at
    # h^0..h^n
    d = P.var(D_VAR)
    inverse = sum(((-d * P.var(H)) ** j for j in range(n + 1)), P.zero())
    total = (1 + P.var(H)) ** (n + 2) * inverse
    c1, c2 = (total.coefficient(H, i) * P.var(H, i) for i in (1, 2))
    expected = (1 + Fraction(1, 2) * c1 + Fraction(1, 12) * (c1 * c1 + c2)
                + Fraction(1, 24) * c1 * c2)
    assert _todd_class(n) == [expected.coefficient(H, i)
                          for i in range(n + 1)]


class TestLeadingConstant:
    def test_curve_case_is_one(self):
        assert leading_constant(1) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_positive(self, n):
        assert leading_constant(n) > 0

    def test_missing_q(self):
        with pytest.raises(MissingQ):
            leading_constant(5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_intersection_polynomial_reads_it(self, gg, n):
        # theta is read off p's d^n coefficient at delta = 0, while
        # leading_constant takes a residue of its own
        assert gg[n].theta == leading_constant(n)


class TestIntersectionPolynomial:
    def test_curve_oracle(self, gg):
        # direct geometry of a smooth plane curve of degree d: canonical
        # class (d-3)h, hyperplane self-intersection d
        assert gg[1].polynomial == parse_polynomial("(d - 3)*(1 - delta)")
        assert gg[1].theta == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_leading_coefficient_identity(self, gg, n):
        factor = math.comb(n + 1, 2) * n * n
        expected = (parse_polynomial(f"1 - {factor}*delta")
                    * P.rational(gg[n].theta))
        assert gg[n].leading == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_delta_root(self, gg, n):
        root = Fraction(2, n ** 3 * (n + 1))
        assert gg[n].leading.evaluate({DELTA_VAR: root}).is_zero

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_bounds(self, gg, n):
        assert gg[n].polynomial.degree_in(D_VAR) <= n
        assert gg[n].polynomial.degree_in(DELTA_VAR) <= 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_explicit_positivity_threshold(self, gg, n):
        delta = Fraction(1, n ** 3 * (n + 1))  # half the root
        d0 = positivity_threshold(gg[n], delta)
        poly = gg[n].polynomial.evaluate({DELTA_VAR: delta})
        for d in (d0, d0 + 7, 10 * d0):
            assert poly.evaluate({D_VAR: d}).constant_value() > 0


class TestEulerCharacteristic:
    def test_curve_riemann_roch(self):
        # chi(m) = deg(m K) + 1 - g = d(d-3) m - d(d-3)/2 for a plane curve
        result = euler_characteristic(1)
        expected = parse_polynomial("d*(d - 3)*m - 1/2*d*(d - 3)")
        assert result.chi == expected

    def test_numeric_degree(self):
        result = euler_characteristic(1, d=4)
        assert result.chi == parse_polynomial("4*m - 2")
        assert result.chi.evaluate({M_VAR: 0}) == -2  # 1 - g for g = 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_in_m_bounded_by_fiber_dimension(self, n):
        result = euler_characteristic(n, d=9)
        assert result.chi.degree_in(M_VAR) <= n * n

    def test_value_at_zero_is_constant(self):
        chi = euler_characteristic(2, d=5).chi
        at_zero = chi.evaluate({M_VAR: 0})
        assert at_zero.degree_in(M_VAR) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_top_power_matches_intersection_route(self, n):
        chi = euler_characteristic(n).chi
        lead = chi.coefficient(M_VAR, n * n)
        assert lead * math.factorial(n * n) == top_intersection(n)

    def test_surface_asymptotics(self):
        # independent surface-geometry oracle: for X in P^3 of degree d,
        # adjunction gives c1(X) = (4-d)h and c2(X) integrating to
        # (d^2-4d+6)d; the order-2 jet sheaf at weight w has top term
        # w^4 (13 c1^2 - 9 c2)/648, and our m counts weight 3m
        lead = euler_characteristic(2).chi.coefficient(M_VAR, 4)
        oracle = parse_polynomial(
            "81/648*(13*(4 - d)^2*d - 9*(d^2 - 4*d + 6)*d)")
        assert lead == oracle

    @pytest.mark.parametrize("n,d,expected", [
        (1, 5, -5),
        *(pytest.param(n, d, expected, marks=pytest.mark.xfail(
            strict=True, reason="euler holds only m^(n^2-n)..m^(n^2) for "
            "n >= 2, so it reads 0 at m = 0"))
          for n, d, expected in ((2, 5, 5), (3, 9, -69), (4, 9, 57))),
    ])
    def test_value_at_zero_is_chi_of_the_structure_sheaf(self, n, d,
                                                         expected):
        # E_(n,0) = O_X, and 0 -> O(-d) -> O -> O_X -> 0 gives
        # chi(O_X) = 1 - (-1)^(n+1) C(d-1, n+1)
        assert expected == 1 - (-1) ** (n + 1) * math.comb(d - 1, n + 1)
        chi = euler_characteristic(n, d=d).chi
        assert chi.evaluate({M_VAR: 0}).constant_value() == expected

    def test_coefficients_are_rational(self):
        chi = euler_characteristic(2, d=7).chi
        for _, c in chi.terms.items():
            Fraction(c)  # exact by construction; must not raise

    def test_missing_q(self):
        with pytest.raises(MissingQ):
            euler_characteristic(6)

    def test_result_record(self):
        result = euler_characteristic(1, d=5)
        assert isinstance(result, EulerResult)
        assert result.d == 5
        assert euler_characteristic(1).d is None
