"""Deviation axioms, property sweeps, search and enumeration."""

import random

import pytest

from latdev.deviations import (check_deviation, deviation_properties,
                               enumerate_deviations, search_deviation)
from latdev.errors import InputError
from latdev.lattices import (chain_lattice, is_completely_normal,
                             lattice_from_downsets)
from latdev.posets import FinitePoset

from conftest import downset_lattice_corpus

from test_lattices import SQUARE, five_element_ncn


def boolean_difference(D):
    """d(x, y) = x ∧ ¬y on the square, written out as a table."""
    compl = {(): ("p", "q"), ("p",): ("q",), ("q",): ("p",), ("p", "q"): ()}
    return {(x, y): D.meet(x, compl[y])
            for x in D.elements for y in D.elements}


def chain_deviation(D):
    """d(x, y) = 0 if x <= y else x; a monotone Cevian deviation on chains."""
    return {(x, y): (D.bottom if D.leq(x, y) else x)
            for x in D.elements for y in D.elements}


def non_antitone_chain4():
    """On the chain 0 < 1 < 2 < 3: as chain_deviation but d(2,1) = 3,
    breaking right antitonicity while both axioms still hold."""
    D = chain_lattice(4)
    d = chain_deviation(D)
    d[(2, 1)] = 3
    return D, d


class TestCheckDeviation:
    def test_boolean_difference_accepted(self):
        assert check_deviation(SQUARE, boolean_difference(SQUARE)) is None

    def test_all_zero_violates_axiom1(self):
        D = chain_lattice(2)
        d = {(x, y): 0 for x in D.elements for y in D.elements}
        v = check_deviation(D, d)
        assert v is not None and v.axiom == 1 and v.pair == (1, 0)

    def test_first_projection_violates_axiom2(self):
        D = chain_lattice(2)
        d = {(x, y): x for x in D.elements for y in D.elements}
        v = check_deviation(D, d)
        assert v is not None and v.axiom == 2 and v.pair == (1, 1)

    def test_totality_and_range_validated(self):
        D = chain_lattice(2)
        with pytest.raises(InputError):
            check_deviation(D, {(0, 0): 0})
        d = {(x, y): 0 for x in D.elements for y in D.elements}
        d[(0, 0)] = 99
        with pytest.raises(InputError):
            check_deviation(D, d)


class TestProperties:
    def test_boolean_difference_all_flags(self):
        rep = deviation_properties(SQUARE, boolean_difference(SQUARE))
        assert rep.left_isotone and rep.right_antitone and rep.cevian
        assert rep.monotone

    def test_non_antitone_witness(self):
        D, d = non_antitone_chain4()
        assert check_deviation(D, d) is None
        rep = deviation_properties(D, d)
        assert rep.left_isotone
        assert not rep.right_antitone
        assert rep.right_antitone_ce == (2, 0, 1)

    def test_one_element_lattice(self):
        D = chain_lattice(1)
        rep = deviation_properties(D, {(0, 0): 0})
        assert rep.monotone and rep.cevian

    def test_chain_deviation_monotone_cevian(self):
        for n in (2, 3, 5):
            D = chain_lattice(n)
            rep = deviation_properties(D, chain_deviation(D))
            assert rep.monotone and rep.cevian


class TestSearch:
    def test_square_finds_deviation(self):
        d = search_deviation(SQUARE)
        assert d is not None and check_deviation(SQUARE, d) is None

    def test_five_element_ncn_exhausts(self):
        assert search_deviation(five_element_ncn()) is None

    def test_chain_monotone_cevian_first_solution(self):
        for n in (2, 4):
            D = chain_lattice(n)
            d = search_deviation(D, require_monotone=True,
                                 require_cevian=True)
            assert d == chain_deviation(D)

    def test_constrained_output_passes_sweeps(self):
        rng = random.Random(23)
        lattices = [D for D in downset_lattice_corpus(3)
                    if is_completely_normal(D)[0]]
        for D in rng.sample(lattices, 8):
            d = search_deviation(D, require_monotone=True)
            assert d is not None
            rep = deviation_properties(D, d)
            assert rep.monotone

    @pytest.mark.parametrize("n", [5, 6])
    def test_boolean_lattices_past_the_recursion_limit(self, n):
        # B5 and B6 have 4^5 and 4^6 ordered pairs, one search level
        # each: deeper than the interpreter's recursion limit
        D = lattice_from_downsets(FinitePoset.antichain(range(n)))
        d = search_deviation(D)
        assert d is not None and check_deviation(D, d) is None

    def test_search_iff_completely_normal_small(self):
        for D in downset_lattice_corpus(3):
            found = search_deviation(D) is not None
            assert found == is_completely_normal(D)[0]


class TestEnumerate:
    def test_two_chain_exactly_one(self):
        # axiom 2 forces d = 0 on comparable-up pairs, axiom 1 forces
        # d(1,0) = 1: a single table
        ds = enumerate_deviations(chain_lattice(2), 10)
        assert len(ds) == 1
        assert ds[0][(1, 0)] == 1

    def test_three_chain_exactly_two(self):
        # the only freedom is d(1,0) in {1, 2}
        ds = enumerate_deviations(chain_lattice(3), 10)
        assert len(ds) == 2
        assert sorted(d[(1, 0)] for d in ds) == [1, 2]

    def test_one_element(self):
        assert len(enumerate_deviations(chain_lattice(1), 10)) == 1

    def test_limit_respected_and_deterministic(self):
        ds1 = enumerate_deviations(SQUARE, 5)
        ds2 = enumerate_deviations(SQUARE, 5)
        assert len(ds1) == 5 and ds1 == ds2

    @pytest.mark.parametrize("limit", [0, -5])
    def test_non_positive_limit_rejected(self, limit):
        with pytest.raises(InputError):
            enumerate_deviations(SQUARE, limit)

    def test_all_results_are_deviations(self):
        for d in enumerate_deviations(SQUARE, 12):
            assert check_deviation(SQUARE, d) is None


def test_regression_non_monotone_deviation_exists_small():
    # a completely normal lattice of size <= 6 carrying a deviation that
    # fails monotonicity
    D, d = non_antitone_chain4()
    assert check_deviation(D, d) is None
    assert not deviation_properties(D, d).monotone
