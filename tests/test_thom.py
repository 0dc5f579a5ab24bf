"""Singularity-locus polynomials: classical golden values, the independent
brute-force oracle, degree/positivity invariants and the report tools."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc import hyperbolicity, residue, thom
from equiloc.algebra import (CHERN, RESIDUE, Polynomial, Slate,
                             parse_polynomial, zvar)
from equiloc.cli import main
from equiloc.errors import InputError, MissingQ, SizeLimitExceeded
from equiloc.thom import (MAX_TAIL_TERMS, QTable, ThomResult,
                          check_tail_size, denominator_triples,
                          generating_coefficient, orbit_form, orbit_table,
                          orbits, positivity_check, ratio_check, read_codims,
                          residue_form, thom_polynomial)
import oracles
from oracles import brute_thom, thom_form

P = Polynomial


def weighted_degrees(p: Polynomial) -> set[int]:
    return p.weighted_degrees(lambda v: v.index if v.kind == CHERN else 0)


class TestQTable:
    def test_builtin_entries(self):
        q = QTable.builtin()
        assert q.get(1) == P.one()
        assert q.get(2) == P.one()
        assert q.get(3) == P.one()
        assert q.get(4) == parse_polynomial("2*z1 + z2 - z4")

    def test_missing(self):
        with pytest.raises(MissingQ):
            QTable.builtin().get(5)

    def test_user_entry_flagged_unverified(self):
        q = QTable.builtin().with_entry(5, parse_polynomial("z1 + z2"))
        assert q.get(5) == parse_polynomial("z1 + z2")
        assert QTable.builtin().entries.keys() == {1, 2, 3, 4}

    def test_builtin_not_overridable(self):
        with pytest.raises(InputError):
            QTable.builtin().with_entry(4, P.one())

    def test_user_entry_not_overridable(self):
        q = QTable.builtin().with_entry(5, parse_polynomial("z1"))
        with pytest.raises(InputError, match="override the entry for k=5"):
            q.with_entry(5, parse_polynomial("z2"))

    def test_entry_variables_validated(self):
        with pytest.raises(InputError):
            QTable.builtin().with_entry(5, parse_polynomial("z6"))
        with pytest.raises(InputError):
            QTable.builtin().with_entry(5, parse_polynomial("c1"))


class TestDenominators:
    def test_triples(self):
        assert denominator_triples(2) == [(1, 1, 2)]
        assert denominator_triples(3) == [(1, 1, 2), (1, 1, 3), (1, 2, 3)]
        assert len(denominator_triples(4)) == 7


class TestGoldenValues:
    def test_porteous_family(self):
        for codim in range(0, 7):
            result = thom_polynomial(1, codim)
            assert result.polynomial == parse_polynomial(f"c{codim + 1}")

    def test_second_order(self):
        assert thom_polynomial(2, 0).polynomial == \
            parse_polynomial("c1^2 + c2")

    def test_third_order(self):
        assert thom_polynomial(3, 0).polynomial == \
            parse_polynomial("c1^3 + 3*c1*c2 + 2*c3")

    def test_fourth_order(self):
        assert thom_polynomial(4, 0).polynomial == parse_polynomial(
            "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4")

    def test_sign_calibration_consistent(self):
        for k in (1, 2, 3):
            assert thom_polynomial(k, 0).sign_calibration == (-1) ** k

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            thom_polynomial(0, 0)
        with pytest.raises(InputError):
            thom_polynomial(2, -1)

    def test_tail_size_limit(self):
        # the largest codimension accepted for each order k <= 4
        assert MAX_TAIL_TERMS == 2_000
        for k, codim in ((1, 1998), (2, 29), (3, 5), (4, 2)):
            check_tail_size(k, codim)
            with pytest.raises(SizeLimitExceeded):
                check_tail_size(k, codim + 1)
        with pytest.raises(SizeLimitExceeded):
            thom_polynomial(1, 10 ** 9)

    @pytest.mark.parametrize("k,codim", [
        (1, 0), (2, 1), (3, 0), (4, 0), (1, 1998),
    ])
    def test_form_holds_only_the_thom_weight(self, k, codim):
        # the residue keeps Chern weight, and only cmax = k(codim+1) is
        # read: each body term is one composition a of cmax, read off the
        # z-exponents codim - a, and each tag holds every permutation of
        # one composition, one tag per S_k-orbit
        cmax = k * (codim + 1)
        form = residue_form(k, codim, QTable.builtin())
        numerator = form.numerator
        assert len(numerator.terms) == math.comb(cmax + k - 1, k - 1)
        groups = {}
        assert numerator.variables() <= {*form.order, thom._ORBIT}
        slate = Slate(numerator.variables(), [thom._ORBIT, *form.order])
        for (tag, *exps), c in slate.dense(numerator).items():
            assert c == 1
            groups.setdefault(tag, set()).add(
                tuple(codim - e for e in exps))
        assert sorted(groups) == list(range(len(groups)))
        orbits = set()
        for parts in groups.values():
            first = next(iter(parts))
            assert sum(first) == cmax and min(first) >= 0
            assert parts == set(itertools.permutations(first))
            orbits.add(tuple(sorted(first)))
        assert len(orbits) == len(groups)
        if k == 1:
            assert len(numerator.terms) == 1

    @pytest.mark.parametrize("l", range(30))
    def test_ronga_a2(self, l):
        # F. Ronga, Comment. Math. Helv. 47 (1972): tp(A_2) in codim l is
        # c_(l+1)^2 + sum_(i=1..l+1) 2^(i-1) c_(l+1-i) c_(l+1+i), c_0 = 1;
        # l = 29 is the largest codimension the tail bound admits at k = 2
        def c(i):
            return f"c{i}" if i else "1"
        text = f"c{l + 1}^2" + "".join(
            f" + {2 ** (i - 1)}*{c(l + 1 - i)}*c{l + 1 + i}"
            for i in range(1, l + 2))
        assert thom_polynomial(2, l).polynomial == parse_polynomial(text)


def _admitted():
    """Every (k, codim) the tail bound admits for k = 2, 3, 4, and k = 1
    at codims 0..5 and its largest, 1998."""
    cases = [(1, codim) for codim in (*range(6), 1998)]
    for k, top in ((2, 29), (3, 5), (4, 2)):
        cases += [(k, codim) for codim in range(top + 1)]
    return cases


@pytest.mark.parametrize("k,top", [(1, 40), (2, 40), (3, 40), (4, 40),
                                   (5, 40), (6, 24)])
def test_orbits_match_the_filtered_compositions(k, top):
    # in lexicographic order, as orbit forms are tagged by it, at every
    # low and high whose oracle builds compositions of at most top; the
    # oracle builds all C(top + k - 1, k - 1) of them, so k = 6 stops at 24
    for low in range(-1, -2 - top // k, -1):
        cap = -k - (k - 1) * low  # the largest entry the sum allows
        full = oracles.orbits(k, low, cap)
        assert thom.orbits(k, low=low) == full, low
        for high in range(-1, cap + 1):
            assert thom.orbits(k, low, high) == [
                v for v in full if v[-1] <= high], (low, high)
    for high in range(-1, top + 1):
        low = -k - (k - 1) * high
        if -k - k * low > top:
            break
        assert thom.orbits(k, high=high) == oracles.orbits(k, low, high)


def _thom_table(k, top):
    return orbit_table(residue_form(k, top, QTable.builtin()),
                       orbits(k, high=top))


def _orbit_table(k, lambdas):
    form = orbit_form(k, QTable.builtin().get(k), lambdas)
    return orbit_table(form, lambdas)


def _read_lists(n):
    """The orbit lists of the tables gg and euler (the tower) and theta
    read at order n."""
    return [oracles.tower_orbits(n), orbits(n, low=-n - 1)]


class TestOrbitTable:
    """S_k(lambda), the residue of the S_k-orbit sum of z^lambda, is one
    function of (k, Q_k, lambda), whichever command's list it is read over
    (the Thom series coefficients of Feher and Rimanyi, Ann. Math. 176,
    2012)."""

    def test_golden(self):
        # every orbit the commands read for k <= 4: the Thom lists at the
        # largest codims the tail bound admits, and the tower and theta
        # lists; the values were taken before the table had one reader
        golden = json.loads(
            (Path(__file__).parent / "orbit_table.json").read_text())
        golden = {tuple(orbit): value for orbit, value in golden}
        assert [sum(len(o) == k for o in golden) for k in range(1, 5)] == [
            1, 31, 39, 174]
        assert all(type(v) is int and v > 0 for v in golden.values())
        read = {}
        for k, top in ((1, 1998), (2, 29), (3, 5), (4, 2)):
            read.update(_thom_table(k, top))
            for lambdas in _read_lists(k):
                read.update(_orbit_table(k, lambdas))
        assert read == golden

    @pytest.mark.parametrize("n,top", [(2, 2), (3, 6)])
    def test_thom_table_holds_the_tower_and_theta_tables(self, n, top):
        # built past the tail bound at (3, 6), which only limits residue_form
        thom_table = _orbit_table(n, orbits(n, high=top))
        for lambdas in _read_lists(n):
            table = _orbit_table(n, lambdas)
            assert table.keys() == set(lambdas) <= thom_table.keys()
            assert table == {o: thom_table[o] for o in table}

    def test_ronga_coefficients(self):
        # F. Ronga, Comment. Math. Helv. 47 (1972): the coefficients of
        # tp(A_2), read off the table with no codim
        expected = {(-1, -1): 1}
        expected.update({(-1 - i, i - 1): 2 ** (i - 1) for i in range(1, 31)})
        assert _thom_table(2, 29) == expected

    def test_read_refuses_a_codim_above_the_top(self):
        # the table at codim 1 lacks the orbits with an entry of 2
        table = _thom_table(2, 1)
        assert [r.polynomial for r in read_codims(2, 1, table, [0, 1])] == [
            thom_polynomial(2, l).polynomial for l in (0, 1)]
        for codims in ([2], [0, 2], range(3)):
            with pytest.raises(InputError, match="above 1"):
                read_codims(2, 1, table, codims)


class TestTaggedRoute:
    """The tagged body's residue, read back into Chern monomials, is the
    residue of the form with the Chern classes in the body."""

    @pytest.mark.parametrize("k,codim", _admitted())
    def test_matches_the_chern_slot_form(self, k, codim):
        expected = residue.iterated_residue(
            thom_form(k, codim, QTable.builtin()))
        assert thom_polynomial(k, codim).polynomial == expected

    @given(terms=st.lists(
        st.tuples(st.integers(-3, 3).filter(bool),
                  st.lists(st.integers(0, 2), min_size=5, max_size=5)),
        min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_random_entries_at_order_5(self, terms):
        # q-file entries in z1..z5, homogeneous or not
        entry = Polynomial.from_terms(
            (c, [(zvar(i), e) for i, e in enumerate(exps, 1)])
            for c, exps in terms)
        q = QTable.builtin().with_entry(5, entry)
        expected = residue.iterated_residue(thom_form(5, 0, q))
        assert thom_polynomial(5, 0, q).polynomial == expected


#: Codim 30 for k = 1, and for k = 2, 3, 4 the largest codim the tail
#: bound admits.
_TOPS = {1: 30, 2: 29, 3: 5, 4: 2}


class TestOneResiduePerOrder:
    """The residue of order k at codim L holds tp(A_k) at every codim
    l <= L, since the coefficients of the Thom series do not depend on the
    codim (Feher and Rimanyi, Ann. Math. 176, 2012; Berczi and Szenes, Ann.
    Math. 175, 2012)."""

    @pytest.mark.parametrize("k", sorted(_TOPS))
    def test_coefficient_is_the_same_at_every_codim(self, k):
        # tp(A_k) at codim l is sum_i a_i prod_j c_(l+1+i_j), c_0 = 1,
        # with i sorted and sum_j i_j = 0: a_i must not depend on l
        seen = {}
        for l in range(_TOPS[k] + 1):
            poly = thom_polynomial(k, l).polynomial
            slate = Slate(poly.variables())
            for key, c in slate.dense(poly).items():
                indices = [v.index for v, e in zip(slate.vars, key)
                           for _ in range(e)]
                indices += [0] * (k - len(indices))
                i = tuple(sorted(a - l - 1 for a in indices))
                assert sum(i) == 0
                assert seen.setdefault(i, c) == c, (k, l, i)
        assert seen

    @pytest.mark.parametrize("k", sorted(_TOPS))
    def test_read_matches_the_oracle(self, k):
        q = QTable.builtin()
        expected = [residue.iterated_residue(thom_form(k, l, q))
                    for l in range(_TOPS[k] + 1)]
        for top in range(_TOPS[k] + 1):
            results = read_codims(k, top, _thom_table(k, top), range(top + 1))
            assert [(r.k, r.codim) for r in results] == [
                (k, l) for l in range(top + 1)]
            assert [r.polynomial for r in results] == expected[:top + 1]

    @pytest.mark.parametrize("argv,residues", [
        ("thom-scan --kmax 3 --lmax 2", 3),
        ("thom-scan --kmax 4 --lmax 2 --check-positivity", 4),
        ("thom-scan --kmax 2 --lmax 29", 2),
        ("thom --k 4 --codim 2", 1),
    ])
    def test_one_residue_per_order(self, monkeypatch, capsys, argv,
                                   residues):
        taken = []
        engine = residue.iterated_residue
        monkeypatch.setattr(thom, "iterated_residue",
                            lambda form: taken.append(form) or engine(form))
        assert main(argv.split()) == 0
        assert capsys.readouterr().out
        assert len(taken) == residues

    @pytest.mark.parametrize("kmax,error", [
        ("6", "missing-q"), ("7", "size-limit")])
    def test_scan_checks_every_order_first(self, monkeypatch, capsys,
                                           tmp_path, kmax, error):
        # no entry for order 5: found before the residues of orders 1..4;
        # at kmax 7 the tail size is checked before the gap is looked up
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({kmax: "1"}))
        taken = []
        engine = residue.iterated_residue
        monkeypatch.setattr(thom, "iterated_residue",
                            lambda form: taken.append(form) or engine(form))
        assert main(["thom-scan", "--kmax", kmax, "--lmax", "0",
                     "--q-file", str(qfile)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == error
        assert taken == []


class TestBuiltinPrefactors:
    """Every prefactor the package builds is homogeneous in z, and each of
    its terms has the same degree in the slots the first peel's budget
    reads (z_k counts only when a factor dominated by z_k holds a lower
    residue variable).  So every slice of the prefactor passes with every
    numerator term that passes the one gain, as with a gain per slice."""

    @staticmethod
    def check(form):
        assert len(form.prefactor.weighted_degrees(
            lambda v: 1 if v.kind == RESIDUE else 0)) == 1
        zs = set(form.order)
        zk = form.order[-1]
        lifts = any(v in zs - {zk} for w in form.denominators
                    if zk in w.variables() for v in w.variables())
        read = zs if lifts else zs - {zk}
        assert len(form.prefactor.weighted_degrees(
            lambda v: 1 if v in read else 0)) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("codim", [0, 1, 2])
    def test_thom_forms(self, k, codim):
        self.check(residue_form(k, codim, QTable.builtin()))

    def test_generating_and_tower_forms(self, monkeypatch):
        forms = []

        def capture(form):
            forms.append(form)
            return residue.iterated_residue(form)

        monkeypatch.setattr(thom, "iterated_residue", capture)
        for k in range(1, 5):
            generating_coefficient(k, (0,) * (k - 1) + (1 - k,))
        towers = []
        for n in range(1, 4):
            # one orbit form each for gg, euler and theta
            for command in (hyperbolicity.intersection_polynomial,
                            hyperbolicity.euler_characteristic,
                            hyperbolicity.leading_constant):
                start = len(forms)
                command(n)
                assert len(forms) == start + 1
                towers.append(forms[start])
        assert len(forms) == 4 + 3 * 3
        for form in forms:
            self.check(form)
        # the tower forms depend on n alone: integer polynomials in z and
        # the orbit tag, the same for gg and for euler with or without a
        # numeric degree
        for n in range(1, 4):
            start = len(forms)
            hyperbolicity.euler_characteristic(n, d=9)
            assert forms[start:] == [towers[3 * n - 3]] == [towers[3 * n - 2]]
        for form in towers:
            for part in (form.numerator, form.prefactor):
                assert part.variables() <= {*form.order, thom._ORBIT}
                assert all(type(c) is int for c in part.terms.values())


class TestOracle:
    @pytest.mark.parametrize("k,codim,J", [
        (1, 0, 4), (1, 2, 8), (2, 0, 8), (2, 1, 10), (2, 2, 12), (3, 0, 10),
    ])
    def test_engine_matches_brute_force(self, k, codim, J):
        assert thom_polynomial(k, codim).polynomial == brute_thom(k, codim, J)

    def test_doubled_truncation(self):
        assert brute_thom(2, 0, 8) == brute_thom(2, 0, 16) == \
            thom_polynomial(2, 0).polynomial


class TestInvariants:
    @pytest.mark.parametrize("k,codim", [
        (1, 0), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0),
    ])
    def test_weighted_degree(self, k, codim):
        poly = thom_polynomial(k, codim).polynomial
        assert weighted_degrees(poly) == {k * (codim + 1)}

    @pytest.mark.parametrize("k,codim", [
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0),
    ])
    def test_integer_nonnegative_coefficients(self, k, codim):
        poly = thom_polynomial(k, codim).polynomial
        for _, c in poly.terms.items():
            assert Fraction(c).denominator == 1
            assert c >= 0


class TestPositivityReport:
    def test_clean_cases(self):
        assert positivity_check(thom_polynomial(1, 0)).all_nonnegative
        assert positivity_check(thom_polynomial(2, 0)).all_nonnegative

    def test_detector(self):
        doctored = ThomResult(2, 0, parse_polynomial("c1^2 - c2"), 1)
        report = positivity_check(doctored)
        assert not report.all_nonnegative
        assert report.negative_terms == (("c2", Fraction(-1)),)


class TestGeneratingCoefficients:
    def test_known_expansion_k2(self):
        # (z1 - z2)/(2 z1 - z2) with z2 dominant: 1 + sum 2^(j-1) (z1/z2)^j
        assert generating_coefficient(2, (0, 0)) == 1
        assert generating_coefficient(2, (1, -1)) == 1
        assert generating_coefficient(2, (2, -2)) == 2
        assert generating_coefficient(2, (3, -3)) == 4
        assert generating_coefficient(2, (0, -1)) == 0

    @pytest.mark.parametrize("exponents", [(0, 0, 0, 0), (0, 0)])
    def test_exponent_count_must_be_k(self, exponents):
        # at k = 3, (0, 0, 0, 0) gave 1 with its fourth entry ignored and
        # (0, 0) an untyped IndexError
        with pytest.raises(InputError, match="order 3 needs 3 exponents"):
            generating_coefficient(3, exponents)

    def test_ratio_report_k1_vacuous(self):
        report = ratio_check(1, depth=3)
        assert report.ratios == ()
        assert report.all_within_bound
        assert report.coefficients == (((0,), Fraction(1)),)

    def test_ratio_report_k2(self):
        report = ratio_check(2, depth=6)
        assert report.bound == 4
        assert report.coefficients
        assert report.ratios
        for exps, value in report.coefficients:
            assert sum(exps) == 0
            assert value > 0
        for exps, a, b, ratio, ok in report.ratios:
            assert ok == (ratio < 4)

    def test_ratio_report_k4_shape(self):
        report = ratio_check(4, depth=2)
        assert report.bound == 16
        assert report.coefficients
        exps, value = report.coefficients[0]
        assert len(exps) == 4
        assert isinstance(value, Fraction)
