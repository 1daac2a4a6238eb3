"""Distributive lattices: construction, normality, prime ideals."""

import pytest

from latdev.errors import InputError
from latdev.lattices import (FiniteDistributiveLattice, chain_lattice,
                             is_completely_normal, is_root_system,
                             is_zero_distributive, lattice_from_downsets,
                             prime_ideal_poset)
from latdev.posets import FinitePoset

from conftest import downset_lattice_corpus


def five_element_ncn():
    """0 < c < a,b < 1 with a ∧ b = c: distributive but not completely
    normal (any x, y with a∨b = a∨y = x∨b have x ∧ y >= c > 0)."""
    return lattice_from_downsets(
        FinitePoset(["c", "a", "b"], [("c", "a"), ("c", "b")]))


def m3():
    """The diamond: five elements, three incomparable atoms."""
    els = ["0", "a", "b", "c", "1"]
    rel = [("0", x) for x in els] + [(x, "1") for x in els]
    return FiniteDistributiveLattice(FinitePoset(els, rel),
                                     check_distributive=False)


SQUARE = lattice_from_downsets(FinitePoset.antichain(["p", "q"]))


class TestConstruction:
    def test_downsets_of_antichain_is_square(self):
        assert len(SQUARE) == 4
        assert SQUARE.bottom == ()
        assert SQUARE.join(("p",), ("q",)) == ("p", "q")
        assert SQUARE.meet(("p",), ("q",)) == ()

    def test_downsets_of_chain_is_chain(self):
        D = lattice_from_downsets(FinitePoset.chain(2))
        assert len(D) == 3

    def test_downsets_of_v_poset(self):
        D = lattice_from_downsets(
            FinitePoset(["a", "b", "c"], [("a", "c"), ("b", "c")]))
        assert len(D) == 5

    def test_tables_are_bounds(self):
        D = five_element_ncn()
        for a in D.elements:
            for b in D.elements:
                j = D.join(a, b)
                assert D.leq(a, j) and D.leq(b, j)
                m = D.meet(a, b)
                assert D.leq(m, a) and D.leq(m, b)

    def test_non_lattice_rejected(self):
        with pytest.raises(InputError):
            FiniteDistributiveLattice(FinitePoset.antichain(["x", "y"]))

    def test_non_distributive_rejected_unless_flagged(self):
        els = ["0", "a", "b", "c", "1"]
        rel = [("0", x) for x in els] + [(x, "1") for x in els]
        with pytest.raises(InputError):
            FiniteDistributiveLattice(FinitePoset(els, rel))
        assert not m3().is_distributive


class TestZeroDistributive:
    def test_distributive_implies_zero_distributive(self):
        for D in (SQUARE, chain_lattice(4), five_element_ncn()):
            assert is_zero_distributive(D) == (True, None)

    def test_m3_fails_with_triple(self):
        ok, triple = is_zero_distributive(m3())
        assert not ok and triple == ("a", "b", "c")

    def test_one_element(self):
        assert is_zero_distributive(chain_lattice(1)) == (True, None)

    def test_all_downset_lattices_pass(self):
        for D in downset_lattice_corpus(3):
            assert is_zero_distributive(D)[0]


class TestCompletelyNormal:
    def test_square_true(self):
        assert is_completely_normal(SQUARE) == (True, None)

    def test_five_element_false_at_middles(self):
        ok, pair = is_completely_normal(five_element_ncn())
        assert not ok
        assert set(pair) == {("c", "a"), ("c", "b")}

    def test_chains_true(self):
        for n in range(1, 7):
            assert is_completely_normal(chain_lattice(n)) == (True, None)


class TestPrimeIdeals:
    def test_two_chain_single_prime(self):
        pip = prime_ideal_poset(chain_lattice(2))
        assert pip.ideals == (frozenset({0}),)

    def test_square_two_incomparable_primes(self):
        pip = prime_ideal_poset(SQUARE)
        assert len(pip.ideals) == 2
        (i1, i2) = pip.poset.elements
        leq = pip.poset.leq
        assert not (leq(i1, i2) or leq(i2, i1))

    def test_five_element_three_primes(self):
        pip = prime_ideal_poset(five_element_ncn())
        assert len(pip.ideals) == 3
        sizes = sorted(len(i) for i in pip.ideals)
        assert sizes == [1, 3, 3]

    def test_primality(self):
        for D in (SQUARE, five_element_ncn(), chain_lattice(4)):
            for I in prime_ideal_poset(D).ideals:
                assert D.bottom in I and len(I) < len(D)
                for a in I:
                    for b in I:
                        assert D.join(a, b) in I
                for a in D.elements:
                    for b in D.elements:
                        if D.meet(a, b) in I:
                            assert a in I or b in I

    def test_large_downset_lattices(self):
        # O(J) has one prime ideal per element of J; enumerating all
        # down-sets of O(J) to find them took minutes from B6 on
        grid = [(i, j) for i in range(12) for j in range(3)]
        for J, size in ((FinitePoset.antichain(range(7)), 128),
                        (FinitePoset.from_relation(
                            grid, [(a, b) for a in grid for b in grid
                                   if a[0] <= b[0] and a[1] <= b[1]]), 455)):
            D = lattice_from_downsets(J)
            assert len(D) == size and D.is_distributive
            pip = prime_ideal_poset(D)
            assert len(pip.ideals) == len(J)
            assert is_root_system(pip)[0] == (len(J) == 7)


class TestRootSystem:
    def test_antichain(self):
        assert is_root_system(FinitePoset.antichain(["a", "b"])) == (True, None)

    def test_v_with_bottom_fails(self):
        P = FinitePoset(["x", "p", "q"], [("x", "p"), ("x", "q")])
        ok, ce = is_root_system(P)
        assert not ok and ce == "x"

    def test_chains(self):
        for n in range(5):
            assert is_root_system(FinitePoset.chain(n))[0]


class TestMonteiroEquivalence:
    def test_cn_iff_prime_ideals_form_root_system(self):
        # cross-validation oracle over all down-set lattices of posets
        # with at most 3 elements (the 4-element sweep runs in acceptance)
        for D in downset_lattice_corpus(3):
            cn, _ = is_completely_normal(D)
            rs, _ = is_root_system(prime_ideal_poset(D))
            assert cn == rs
