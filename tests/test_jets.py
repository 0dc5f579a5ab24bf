"""Reparametrization matrices, the jet embedding and its invariant minors."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc.algebra import Polynomial, parse_polynomial, svar
from equiloc.errors import SingularLinearPart, TooFewColumns
from equiloc.jets import (JetCurve, ReparamJet, compose, gk_matrix,
                          invariant_minors, kxk_minors, rho, sym_basis,
                          sym_dimension)
from oracles import fraction_rho, permutation_det

P = Polynomial


def rational_jet(rng: random.Random, n: int, k: int,
                 regular: bool = True) -> JetCurve:
    rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for _ in range(n)] for _ in range(k)]
    if regular and all(x == 0 for x in rows[0]):
        rows[0][0] = Fraction(1)
    return JetCurve(rows)


def random_reparam(rng: random.Random, k: int,
                   unipotent: bool = False) -> ReparamJet:
    head = Fraction(1) if unipotent else \
        Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 3))
    tail = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(k - 1)]
    return ReparamJet([head] + tail)


@st.composite
def drawn_jets(draw, entries) -> JetCurve:
    """A k-jet in C^n, n <= 3 and k <= 4, of the given entries; sometimes
    one whole row is zero."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    if draw(st.booleans()):
        rows[draw(st.integers(0, k - 1))] = [0] * n
    return JetCurve(rows)


#: Rationals with denominators 1..12, zero and negative ones included.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def identity(k: int) -> ReparamJet:
    return ReparamJet((1,) + (0,) * (k - 1))


def compose_reparam(first: ReparamJet, second: ReparamJet) -> ReparamJet:
    """Jet substitution first o second (apply second, then first): the
    alphas of first times the matrix of second."""
    g = gk_matrix(second)
    return ReparamJet([sum(first.alphas[i] * g[i][j] for i in range(first.k))
                       for j in range(first.k)])


def oracle_minors(matrix) -> list:
    """The maximal minors, each by its own permutation expansion."""
    k = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    return [permutation_det([[row[j] for j in subset] for row in matrix])
            for subset in itertools.combinations(range(cols), k)]


class TestGkMatrix:
    def test_order_two_symbolic(self):
        a1, a2 = P.var(svar("a1")), P.var(svar("a2"))
        g = gk_matrix(ReparamJet((a1, a2)))
        assert g == [[a1, a2], [P.zero(), a1 ** 2]]

    def test_identity(self):
        g = gk_matrix(identity(3))
        assert g == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_order_three_entry(self):
        a1, a2, a3 = (P.var(svar(f"a{i}")) for i in (1, 2, 3))
        g = gk_matrix(ReparamJet((a1, a2, a3)))
        assert g[1][2] == 2 * a1 * a2
        assert g[2][2] == a1 ** 3
        assert g[1][0] == P.zero()

    def test_upper_triangular_with_power_diagonal(self):
        rng = random.Random(3)
        phi = random_reparam(rng, 4)
        g = gk_matrix(phi)
        for i in range(4):
            assert g[i][i] == phi.alphas[0] ** (i + 1)
            for j in range(i):
                assert g[i][j] == 0

    def test_singular_linear_part(self):
        with pytest.raises(SingularLinearPart):
            ReparamJet((0, 1))

    def test_composition_is_matrix_product(self):
        rng = random.Random(17)
        for _ in range(25):
            p1 = random_reparam(rng, 3)
            p2 = random_reparam(rng, 3)
            g = gk_matrix(compose_reparam(p1, p2))
            g1, g2 = gk_matrix(p1), gk_matrix(p2)
            product = [[sum(g1[i][t] * g2[t][j] for t in range(3))
                        for j in range(3)] for i in range(3)]
            assert g == product


class TestCompose:
    def test_identity(self):
        rng = random.Random(1)
        gamma = rational_jet(rng, 2, 3)
        assert compose(gamma, identity(3)) == gamma

    def test_line_example(self):
        gamma = JetCurve(((1,), (0,)))
        assert compose(gamma, ReparamJet((1, 1))).coefficients == \
            ((Fraction(1),), (Fraction(1),))

    def test_associativity(self):
        rng = random.Random(23)
        for _ in range(25):
            gamma = rational_jet(rng, 2, 3)
            p1 = random_reparam(rng, 3)
            p2 = random_reparam(rng, 3)
            assert compose(compose(gamma, p1), p2) == \
                compose(gamma, compose_reparam(p1, p2))

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            compose(JetCurve(((1, 0),)), ReparamJet((1, 1)))


class TestRho:
    def test_basis_order(self):
        assert sym_basis(2, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert sym_dimension(2, 4) == 14
        assert sym_dimension(3, 3) == 19

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_basis_matches_filtered_product(self, n):
        for k in range(5):
            expected = []
            for degree in range(1, k + 1):
                level = [e for e in itertools.product(range(degree + 1),
                                                      repeat=n)
                         if sum(e) == degree]
                expected.extend(sorted(level, reverse=True))
            assert sym_basis(n, k) == expected
            assert len(expected) == sym_dimension(n, k)

    def test_order_two_rows(self):
        v11, v12, v21, v22 = (P.var(svar(s))
                              for s in ("v11", "v12", "v21", "v22"))
        matrix = rho(JetCurve(((v11, v12), (v21, v22))))
        assert matrix[0] == [v11, v12, P.zero(), P.zero(), P.zero()]
        assert matrix[1] == [v21, v22, v11 ** 2, 2 * v11 * v12, v12 ** 2]

    def test_first_row_is_linear_block(self):
        rng = random.Random(5)
        gamma = rational_jet(rng, 3, 3)
        matrix = rho(gamma)
        assert matrix[0][:3] == list(gamma.coefficients[0])
        assert all(x == 0 for x in matrix[0][3:])

    def test_from_derivatives_normalization(self):
        direct = JetCurve(((1, 2), (Fraction(3, 2), 0)))
        derived = JetCurve.from_derivatives(((1, 2), (3, 0)))
        assert direct == derived


class TestMinors:
    def test_single(self):
        assert invariant_minors(JetCurve(((Fraction(5),),))) == [5]

    def test_too_few_columns(self):
        with pytest.raises(TooFewColumns):
            kxk_minors([[1, 2], [3, 4], [5, 6]])

    def test_lexicographic_column_order(self):
        minors = kxk_minors([[1, 0, 2]])
        assert minors == [1, 0, 2]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_permutation_expansion(self, data):
        # mostly zero entries, as in the staircase embedding matrices;
        # k = 0 and all-zero rows are drawn too
        k = data.draw(st.integers(0, 4))
        cols = data.draw(st.integers(k, 7))
        entry = st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4))
        matrix = data.draw(st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=k, max_size=k))
        if k and data.draw(st.booleans()):
            matrix[data.draw(st.integers(0, k - 1))] = [Fraction(0)] * cols
        assert kxk_minors(matrix) == oracle_minors(matrix)

    def test_symbolic_plane_jet_matches_permutation_expansion(self):
        gamma = JetCurve([[P.var(svar(f"v{i}{c}")) for c in (1, 2)]
                          for i in (1, 2, 3)])
        matrix = rho(gamma)
        minors = kxk_minors(matrix)
        assert len(minors) == 84
        assert minors == oracle_minors(matrix)
        assert any(not isinstance(m, int) for m in minors)

    def test_square_lower_triangular_jet(self):
        # n = 1: rho is k x k and lower triangular with diagonal v1^j; the
        # permutation expansion needed 12! products here
        gamma = JetCurve([[2]] + [[0]] * 11)
        start = time.perf_counter()
        assert invariant_minors(gamma) == [2 ** 78]
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n,k,rounds", [(2, 3, 20), (2, 4, 15), (3, 3, 20)])
    def test_unipotent_invariance(self, n, k, rounds):
        rng = random.Random(100 * n + k)
        for _ in range(rounds):
            gamma = rational_jet(rng, n, k)
            phi = random_reparam(rng, k, unipotent=True)
            assert invariant_minors(compose(gamma, phi)) == \
                invariant_minors(gamma)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_scaling_covariance(self, k):
        # rows scale by alpha^j, so every maximal minor scales by
        # alpha^(1 + 2 + ... + k) whatever columns it uses
        rng = random.Random(k)
        gamma = rational_jet(rng, 2, k)
        alpha = Fraction(3)
        phi = ReparamJet((alpha,) + (0,) * (k - 1))
        scaled = invariant_minors(compose(gamma, phi))
        base = invariant_minors(gamma)
        factor = alpha ** (k * (k + 1) // 2)
        assert scaled == [factor * b for b in base]


class TestIntegerJets:
    """rho and the minors run on u_i = L^i·v_i and divide once at the end;
    the references multiply the jet's own entries in Fraction arithmetic."""

    @given(drawn_jets(RATIONALS))
    @settings(max_examples=150, deadline=None)
    def test_rho_matches_fraction_composition_sum(self, gamma):
        matrix = rho(gamma)
        assert matrix == fraction_rho(gamma)
        assert all(type(x) in (int, Fraction) for row in matrix for x in row)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_minors_match_permutation_expansion(self, data):
        gamma = data.draw(drawn_jets(RATIONALS))
        minors = invariant_minors(gamma)
        assert all(type(m) in (int, Fraction) for m in minors)
        matrix = fraction_rho(gamma)
        assert minors == kxk_minors(matrix)
        # every minor of the small matrices, a drawn sample of the large
        subsets = list(itertools.combinations(range(len(matrix[0])),
                                              gamma.k))
        picks = range(len(subsets))
        if len(subsets) > 200:
            picks = data.draw(st.lists(st.integers(0, len(subsets) - 1),
                                       min_size=1, max_size=40))
        for i in picks:
            assert minors[i] == permutation_det(
                [[row[j] for j in subsets[i]] for row in matrix])

    @given(drawn_jets(st.integers(-9, 9)))
    @settings(max_examples=100, deadline=None)
    def test_integer_jet_gives_int_minors(self, gamma):
        # L = 1: nothing is divided, so no Fraction is made
        assert all(type(x) is int for row in rho(gamma) for x in row)
        minors = invariant_minors(gamma)
        assert all(type(m) is int for m in minors)
        assert minors == kxk_minors(fraction_rho(gamma))


GOLDEN_JET = JetCurve.from_derivatives(
    [[P.var(svar(f"f1{d}")), P.var(svar(f"f2{d}"))]
     for d in ("p", "pp", "ppp", "pppp")])


def golden_matrix():
    """The order-4 embedding matrix of a symbolic plane jet, with the
    pure-power blocks carrying their multinomial coefficients."""
    rows_text = [
        # degree 1..4 blocks per row
        ["f1p", "f2p"] + ["0"] * 12,
        ["1/2*f1pp", "1/2*f2pp", "f1p^2", "2*f1p*f2p", "f2p^2"] + ["0"] * 9,
        ["1/6*f1ppp", "1/6*f2ppp",
         "f1p*f1pp", "f1p*f2pp + f1pp*f2p", "f2p*f2pp",
         "f1p^3", "3*f1p^2*f2p", "3*f1p*f2p^2", "f2p^3"] + ["0"] * 5,
        ["1/24*f1pppp", "1/24*f2pppp",
         "1/3*f1p*f1ppp + 1/4*f1pp^2",
         "1/3*(f1p*f2ppp + f1ppp*f2p) + 1/2*f1pp*f2pp",
         "1/3*f2p*f2ppp + 1/4*f2pp^2",
         "3/2*f1p^2*f1pp",
         "3/2*(f1p^2*f2pp + 2*f1p*f2p*f1pp)",
         "3/2*(f2p^2*f1pp + 2*f2p*f1p*f2pp)",
         "3/2*f2p^2*f2pp",
         "f1p^4", "4*f1p^3*f2p", "6*f1p^2*f2p^2", "4*f1p*f2p^3", "f2p^4"],
    ]
    return [[parse_polynomial(t) for t in row] for row in rows_text]


class TestGoldenEmbedding:
    def test_shape(self):
        matrix = rho(GOLDEN_JET)
        assert len(matrix) == 4
        assert all(len(row) == 14 for row in matrix)

    def test_entrywise(self):
        assert rho(GOLDEN_JET) == golden_matrix()
