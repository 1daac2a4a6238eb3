"""Deviation axioms, property sweeps, search and enumeration."""

import random

import pytest

from latdev import deviations
from latdev.deviations import (_differences, _floors, check_deviation,
                               deviation_properties, enumerate_deviations,
                               search_deviation)
from latdev.errors import ContractError, InputError, ResourceLimitError
from latdev.lattices import (FiniteDistributiveLattice, _normal_pair,
                             chain_lattice, is_completely_normal,
                             lattice_from_downsets)
from latdev.posets import FinitePoset, bits

import oracle_orders as oracle
from conftest import downset_lattice_corpus, time_limit

from test_lattices import SQUARE, five_element_ncn, m3
from test_order_kernel import chain_product, n5


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


def sweep_tables(rng: random.Random, D) -> list:
    """Flat tables on D: random ones (most fail early), and where D is
    distributive and completely normal its least deviation (passes every
    sweep) and copies of it with one to three entries raised to a random
    element above (fail late, or not at all)."""
    n = len(D)
    tables = [[rng.randrange(n) for _ in range(n * n)] for _ in range(3)]
    t = _floors(D) if D.is_distributive else None
    if t is not None:
        tables.append(t)
        for _ in range(4):
            u = list(t)
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(n * n)
                u[k] = rng.choice(bits(D.poset._up[u[k]]))
            tables.append(u)
    return tables


class TestSweepMasks:
    """The sweeps on meet-irreducible row masks against the position
    scans that they replaced (``oracle_orders``): the same first
    counterexample, in canonical order, or None; and the tests on
    distinct row sets give the same verdicts."""

    def test_match_position_scans(self):
        rng = random.Random(2026)
        lattices = list(downset_lattice_corpus(4))
        lattices += [shuffled(rng, D) for D in lattices[::2]]
        lattices += [n5(), m3(), five_element_ncn(), chain_lattice(7),
                     lattice_from_downsets(FinitePoset.antichain(range(5)))]
        failing = [0, 0, 0]
        count = 0
        for D in lattices:
            for t in sweep_tables(rng, D):
                rows = deviations._rows(D, t)
                want = (oracle.isotone_failure(D, t),
                        oracle.antitone_failure(D, t),
                        oracle.cevian_failure(D, t))
                # the row-set tests decide what the scans find: the
                # isotone mask holds the first x, and the antitone and
                # Cevian tests name it
                below = deviations._isotone(D, rows)
                assert (below == 0) == (want[0] is None)
                assert want[0] is None or below >> want[0][0] & 1, (D, t)
                cones = ([D.poset._up] * len(rows[0]), list(zip(*rows)))
                starts = [deviations._first_open(rows, c) for c in cones]
                assert starts == [None if w is None else w[0]
                                  for w in want[1:]], (D, t)
                got = (None if below == 0 else
                       deviations._isotone_failure(D, rows, below),
                       *(None if x is None else
                         deviations._open_failure(rows, c, x)
                         for c, x in zip(cones, starts)))
                assert got == want, (D, t)
                assert deviations._counterexamples(D, t) == want
                failing = [f + (w is not None) for f, w in zip(failing, want)]
                count += 1
        assert count >= 2000
        assert all(count // 10 < f < count for f in failing)


def test_sweeps_scale_to_b10():
    """The property report and the monotone Cevian search on B10 (1,024
    elements) within 6 s together: each property test looks at every
    distinct row set once.  Deciding by the scans over all pairs of
    rows took about 15 s."""
    D = lattice_from_downsets(FinitePoset.antichain(list("abcdefghij")))
    d = search_deviation(D)
    with time_limit(6, "the B10 sweeps"):
        rep = deviation_properties(D, d)
        found = search_deviation(D, True, True)
    assert rep.monotone and rep.cevian
    assert found == d


def test_failing_sweeps_start_at_the_failing_row_on_b10():
    """B10's least deviation with d(x, y) raised to the top at one pair
    late in canonical order: every property fails there, and the report
    takes under 3 s because the antitone and Cevian scans start at the x
    that their test names.  Scanning from x = 0 took about 5 s.  Each
    counterexample is a genuine violation."""
    D = lattice_from_downsets(FinitePoset.antichain(list("abcdefghij")))
    d = search_deviation(D)
    x, y = D.elements[-2], D.elements[3]
    d[(x, y)] = D.top
    with time_limit(3, "the failing B10 sweeps"):
        rep = deviation_properties(D, d)
    assert not (rep.left_isotone or rep.right_antitone or rep.cevian)
    a, a2, b = rep.left_isotone_ce
    assert D.leq(a, a2) and not D.leq(d[(a, b)], d[(a2, b)])
    a, b, b2 = rep.right_antitone_ce
    assert D.leq(b, b2) and not D.leq(d[(a, b2)], d[(a, b)])
    a, b, c = rep.cevian_ce
    assert not D.leq(d[(a, c)], D.join(d[(a, b)], d[(b, c)]))


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

    @pytest.mark.parametrize("make", [n5, m3], ids=["N5", "M3"])
    def test_search_needs_a_distributive_lattice(self, make):
        D = make()
        with pytest.raises(InputError):
            search_deviation(D)
        with pytest.raises(InputError):
            enumerate_deviations(D, 3)

    def test_inconsistent_table_raises_contract_error(self, monkeypatch):
        monkeypatch.setattr(deviations, "_violation", lambda D, t: (1, 0, 0))
        with pytest.raises(ContractError):
            search_deviation(SQUARE)
        with pytest.raises(ContractError):
            enumerate_deviations(SQUARE, 2)

    @pytest.mark.parametrize("broken, failure",
                             [("_isotone", 1), ("_first_open", 0)])
    def test_failed_property_test_raises_contract_error(self, monkeypatch,
                                                        broken, failure):
        """A table that fails a requested property's test is a kernel
        fault: each flag that runs the failing test raises."""
        monkeypatch.setattr(deviations, broken, lambda *args: failure)
        for mono, cev in FLAGS[1:]:
            if broken == "_isotone" and not mono:
                assert search_deviation(SQUARE, mono, cev) is not None
                continue
            with pytest.raises(ContractError):
                search_deviation(SQUARE, mono, cev)

    def test_plain_search_runs_no_property_sweep(self, monkeypatch):
        def sweep(*args):
            raise RuntimeError("property sweep in a plain search")
        for name in ("_counterexamples", "_rows", "_isotone", "_first_open",
                     "_isotone_failure", "_open_failure"):
            monkeypatch.setattr(deviations, name, sweep)
        assert search_deviation(SQUARE) is not None
        assert len(enumerate_deviations(SQUARE, 3)) == 3

    @pytest.mark.parametrize("mono, cev", [(True, False), (False, True)],
                             ids=["monotone", "cevian"])
    def test_one_flag_runs_only_its_property_tests(self, monkeypatch,
                                                   mono, cev):
        """One flag builds the row sets once and runs only its own
        property's tests: the other property's ``_first_open`` scan, and
        for the Cevian flag the isotone test, never run."""
        D = lattice_from_downsets(FinitePoset.antichain(range(3)))
        calls = []
        real = {name: getattr(deviations, name)
                for name in ("_rows", "_isotone", "_first_open")}

        def spy(name):
            def call(*args):
                if name != "_first_open":
                    calls.append(name)
                else:
                    calls.append("antitone" if all(
                        c is D.poset._up for c in args[1]) else "cevian")
                return real[name](*args)
            return call
        for name in real:
            monkeypatch.setattr(deviations, name, spy(name))
        for name in ("_counterexamples", "_isotone_failure",
                     "_open_failure"):
            monkeypatch.setattr(deviations, name, None)
        assert search_deviation(D, mono, cev) == search_deviation(D)
        assert calls == (["_rows", "_isotone", "antitone"] if mono
                         else ["_rows", "cevian"])

    def test_node_budget(self, monkeypatch):
        """Search places no value; B3 has 64 ordered pairs, so an
        enumeration places at least 64."""
        D = lattice_from_downsets(FinitePoset.antichain(range(3)))
        monkeypatch.setattr(deviations, "MAX_SEARCH_NODES", 0)
        for mono, cev in FLAGS:
            assert search_deviation(D, mono, cev) is not None
        monkeypatch.setattr(deviations, "MAX_SEARCH_NODES", 63)
        with pytest.raises(ResourceLimitError):
            enumerate_deviations(D, 1)

    def test_least_deviation_on_shuffled_corpus(self):
        """Declared in shuffled order, a corpus lattice carries a
        deviation from search iff it is completely normal; the map passes
        the id-based checks, is monotone and Cevian, and is the map that
        search finds on the down-set original.  Complete normality, with
        its first failing pair, matches the exhaustive pair search."""
        rng = random.Random(59)
        for D in downset_lattice_corpus(4):
            S = shuffled(rng, D)
            found = [search_deviation(S, mono, cev) for mono, cev in FLAGS]
            assert found == [found[0]] * len(FLAGS)
            d = found[0]
            cn = is_completely_normal(S)
            assert cn == oracle.is_completely_normal(S)
            assert (d is not None) == cn[0]
            if d is None:
                continue
            assert oracle.check_deviation(S, d) is None
            rep = oracle.deviation_properties(S, d)
            assert rep.monotone and rep.cevian
            assert d == search_deviation(D)


FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def shuffled(rng: random.Random, D):
    """D with its elements declared in a shuffled order."""
    els = list(D.elements)
    rng.shuffle(els)
    return FiniteDistributiveLattice(FinitePoset(
        els, [(a, b) for a in els for b in els if D.poset.leq(a, b)]))


def bottom_last_chain6():
    """The 6-chain 0 < 1 < ... < 5 declared with its bottom last."""
    return FiniteDistributiveLattice(FinitePoset.from_relation(
        [1, 2, 3, 4, 5, 0], [(i, i + 1) for i in range(5)]))


def upset_forest_lattice(rng: random.Random, size: int):
    """The ``size``-element down-set lattice of an up-set forest (each
    element has at most one upper cover) on four to six elements, drawn
    as the orders benchmark draws the forests of its size sweep."""
    while True:
        n = rng.randint(4, 6)
        parent = {}
        for i in range(1, n):
            if rng.random() < 0.75:
                parent[i] = rng.randrange(i)
        labels = [f"f{i}" for i in range(n)]
        rng.shuffle(labels)
        J = FinitePoset.from_relation(
            labels, [(labels[c], labels[p]) for c, p in parent.items()])
        D = lattice_from_downsets(J)
        if len(D) == size:
            return D


def difference_lattices() -> list:
    lattices = list(downset_lattice_corpus(4))
    lattices += [lattice_from_downsets(chain_product(k)) for k in range(1, 7)]
    lattices += [lattice_from_downsets(FinitePoset.antichain(range(n)))
                 for n in range(1, 7)]
    shapes = random.Random("order-scale shapes")
    lattices += [upset_forest_lattice(shapes, size)
                 for size in (10, 12, 14, 16, 18, 20, 24, 28)]
    return lattices


class TestDifferences:
    def test_filters_are_the_axiom_1_values(self):
        """↑(x∖y) is exactly the brute-force list of values c with
        x <= y ∨ c, in ascending positions."""
        lattices = difference_lattices()
        assert len(lattices) == 243 + 6 + 6 + 8
        for D in lattices:
            n, up, jn = len(D), D.poset._up, D._join
            dif = _differences(D)
            for x in range(n):
                for y in range(n):
                    assert bits(up[dif[x * n + y]]) == \
                        [c for c in range(n) if up[x] >> jn[y][c] & 1]

    def test_pair_test_agrees_with_the_table(self):
        """x∖y has two computations, the incremental table and the
        Birkhoff masks of ``lattices._normal_pair``: the pair test holds
        exactly where the mirrored entries of the table meet in 0."""
        verdicts = set()
        for D in difference_lattices():
            n, mt, bot = len(D), D._meet, D._bot
            dif = _differences(D)
            for x in range(n):
                for y in range(n):
                    normal = _normal_pair(D, x, y)
                    assert normal == \
                        (mt[dif[x * n + y]][dif[y * n + x]] == bot)
                    verdicts.add(normal)
        assert verdicts == {True, False}

    def test_corrupted_differences_caught(self, monkeypatch):
        """A difference table that claims a clash on a chain, where every
        mirrored pair has values meeting both axioms, fails the
        re-verification instead of ending the search."""
        D = chain_lattice(3)

        def clashing(D):
            dif = [D._bot] * 9
            dif[0 * 3 + 1] = dif[1 * 3 + 0] = D._top
            return dif
        monkeypatch.setattr(deviations, "_differences", clashing)
        with pytest.raises(ContractError):
            search_deviation(D)


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

    def test_out_of_order_declaration_does_not_thrash(self, monkeypatch):
        """Every placed value extends to a deviation, so five deviations
        of the bottom-last 6-chain cost at most 5 · 36 search nodes."""
        D = bottom_last_chain6()
        monkeypatch.setattr(deviations, "MAX_SEARCH_NODES", 5 * 36)
        ds = enumerate_deviations(D, 5)
        assert len(ds) == 5 and len({tuple(d.items()) for d in ds}) == 5
        assert all(check_deviation(D, d) is None for d in ds)
        assert search_deviation(D, True, True) == chain_deviation(D)


def test_regression_non_monotone_deviation_exists_small():
    # a completely normal lattice of size <= 6 carrying a deviation that
    # fails monotonicity
    D, d = non_antitone_chain4()
    assert check_deviation(D, d) is None
    assert not deviation_properties(D, d).monotone
