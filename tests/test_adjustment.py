"""Pair ordering and monotone adjustment.

The oracle `dprime_recursive` evaluates the defining equations of the
adjustment directly by memoized recursion over strictly smaller pairs,
independently of the sequential pair-loop in the implementation.
"""

import os
import random
from functools import reduce

import pytest

from latdev import lattices, posets
from latdev.adjustment import PairOrderContext, monotone_adjustment, pair_leq
from latdev.deviations import (check_deviation, deviation_properties,
                               search_deviation)
from latdev.errors import ContractError, InputError
from latdev.lattices import (chain_lattice, is_completely_normal,
                             lattice_from_downsets)
from latdev.posets import FinitePoset, prefix_shadows
from latdev.serialize import lattice_from_json, load_json

import oracle_orders as oracle
from conftest import random_downset_lattice, random_poset, time_limit

from test_deviations import non_antitone_chain4
from test_order_kernel import adjustment_cases, m3, n5

TREE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                    "fixtures", "tree.json")


def dprime_recursive(M, D, d, order):
    pos = {e: i for i, e in enumerate(order)}

    def key(x, y):
        return (max(pos[x], pos[y]), min(pos[x], pos[y]))

    memo = {}

    def dp(a, b):
        if (a, b) in memo:
            return memo[(a, b)]
        kab = key(a, b)
        meet_acc = d[(a, b)]
        join_acc = D.bottom
        for x in M.elements:
            for y in M.elements:
                if key(x, y) >= kab:
                    continue
                if M.leq(a, x) and M.leq(y, b):
                    meet_acc = D.meet(meet_acc, dp(x, y))
                if M.leq(x, a) and M.leq(b, y):
                    join_acc = D.join(join_acc, dp(x, y))
        memo[(a, b)] = D.join(meet_acc, join_acc)
        return memo[(a, b)]

    return {(a, b): dp(a, b) for a in M.elements for b in M.elements}


def is_monotone_map(M, D, d):
    return all(D.leq(d[(x, y)], d[(x2, y2)])
               for x in M.elements for y in M.elements
               for x2 in M.elements for y2 in M.elements
               if M.leq(x, x2) and M.leq(y2, y))


def random_map(rng, M, D):
    return {(x, y): rng.choice(D.elements)
            for x in M.elements for y in M.elements}


class TestPairOrder:
    def test_spec_comparisons(self):
        ctx = PairOrderContext(("0", "a", "b", "1"))
        assert pair_leq(ctx, {"0", "a"}, {"a"})
        assert not pair_leq(ctx, {"a"}, {"0", "a"})
        assert pair_leq(ctx, {"a"}, {"0", "b"})

    def test_total_order_on_small_base(self):
        ctx = PairOrderContext(tuple("vwxyz"))
        blocks = ctx.blocks_ascending()
        keys = [ctx.key(set(b)) for b in blocks]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert len(blocks) == 5 + 10

    def test_shared_element_comparison_tracks_base(self):
        # {x,z} ⊴ {y,z} iff x comes no later than y in the base
        base = tuple("abcde")
        ctx = PairOrderContext(base)
        pos = {e: i for i, e in enumerate(base)}
        for x in base:
            for y in base:
                for z in base:
                    assert pair_leq(ctx, {x, z}, {y, z}) == (pos[x] <= pos[y])

    def test_componentwise_growth(self):
        # x ⊑ x' and y ⊑ y' imply {x,y} ⊴ {x',y'}
        base = tuple(range(5))
        ctx = PairOrderContext(base)
        for x in base:
            for y in base:
                for x2 in range(x, 5):
                    for y2 in range(y, 5):
                        assert pair_leq(ctx, {x, y}, {x2, y2})

    def test_unknown_element_rejected(self):
        ctx = PairOrderContext((0, 1))
        with pytest.raises(InputError):
            pair_leq(ctx, {0, 7}, {1})

    def test_duplicate_base_rejected(self):
        with pytest.raises(InputError, match="base enumeration has "
                                             "duplicates"):
            PairOrderContext((0, 1, 0))

    def test_three_element_set_rejected(self):
        with pytest.raises(InputError, match="pair sets must have one or "
                                             "two elements"):
            PairOrderContext((0, 1, 2)).key({0, 1, 2})


class TestMonotoneAdjustment:
    def test_monotone_input_is_fixed_point(self):
        rng = random.Random(41)
        for _ in range(25):
            D = random_downset_lattice(rng)
            M = D.poset
            d = random_map(rng, M, D)
            order = list(M.elements)
            rng.shuffle(order)
            res = monotone_adjustment(M, D, d, order)
            if is_monotone_map(M, D, d):
                assert res.d_prime == dict(d)
            res2 = monotone_adjustment(M, D, res.d_prime, order)
            assert res2.d_prime == res.d_prime   # idempotence

    def test_bottom_map_unchanged(self):
        D = chain_lattice(3)
        d = {(x, y): D.bottom for x in D.elements for y in D.elements}
        res = monotone_adjustment(D.poset, D, d, (0, 1, 2))
        assert all(v == D.bottom for v in res.d_prime.values())

    def test_four_chain_restores_antitonicity(self):
        D, d = non_antitone_chain4()
        res = monotone_adjustment(D.poset, D, d, (0, 1, 2, 3))
        assert res.d_prime[(2, 0)] == 2
        assert res.d_prime[(2, 1)] == 2
        rep = deviation_properties(D, res.d_prime)
        assert rep.monotone

    def test_matches_recursive_oracle(self):
        rng = random.Random(42)
        for _ in range(30):
            D = random_downset_lattice(rng)
            M = random_poset(rng, rng.randint(1, 5), 0.4)
            d = random_map(rng, M, D)
            order = list(M.elements)
            rng.shuffle(order)
            res = monotone_adjustment(M, D, d, order)
            assert res.d_prime == dprime_recursive(M, D, d, order)

    def test_output_monotone(self):
        rng = random.Random(43)
        for _ in range(30):
            D = random_downset_lattice(rng)
            M = random_poset(rng, rng.randint(1, 5), 0.4)
            d = random_map(rng, M, D)
            res = monotone_adjustment(M, D, d, tuple(M.elements))
            assert is_monotone_map(M, D, res.d_prime)

    def test_shadow_path_identical(self):
        rng = random.Random(44)
        for _ in range(25):
            D = random_downset_lattice(rng)
            M = random_poset(rng, rng.randint(1, 6), 0.35)
            d = random_map(rng, M, D)
            order = list(M.elements)
            rng.shuffle(order)
            full = monotone_adjustment(M, D, d, order)
            fast = monotone_adjustment(M, D, d, order, use_shadows=True)
            assert full.d_prime == fast.d_prime

    def test_order_dependence_allowed(self):
        # both enumerations give monotone maps; values may differ
        D, d = non_antitone_chain4()
        r1 = monotone_adjustment(D.poset, D, d, (0, 1, 2, 3))
        r2 = monotone_adjustment(D.poset, D, d, (3, 2, 1, 0))
        for r in (r1, r2):
            assert is_monotone_map(D.poset, D, r.d_prime)

    def test_trace_records_index_pairs(self):
        D, d = non_antitone_chain4()
        res = monotone_adjustment(D.poset, D, d, (0, 1, 2, 3))
        entry = res.trace[(2, 1)]
        assert entry.base_value == d[(2, 1)]
        assert (2, 0) in entry.meetands
        assert all(D.poset.leq(2, x) and D.poset.leq(y, 1)
                   for (x, y) in entry.meetands)

    def test_totality_validated(self):
        D = chain_lattice(2)
        with pytest.raises(InputError):
            monotone_adjustment(D.poset, D, {(0, 0): 0}, (0, 1))


class TestFinitaryBounds:
    def test_minimal_elements_have_empty_bounds(self):
        D = chain_lattice(3)
        M = D.poset
        order = (0, 1, 2)
        shads = prefix_shadows(M, order)
        coin, cof = oracle.finitary_bounds(M, shads, {}, 0, 0)
        assert coin == () and cof == ()

    def test_undecided_pair_rejected(self):
        D = chain_lattice(3)
        M = D.poset
        order = (0, 1, 2)
        shads = prefix_shadows(M, order)
        with pytest.raises(ContractError):
            oracle.finitary_bounds(M, shads, {}, 2, 1)

    def test_bounds_reach_sweep_extremes(self):
        # meet of the primed set equals the meet of the full meetand set
        # (and dually), on random instances
        rng = random.Random(45)
        for _ in range(20):
            D = random_downset_lattice(rng)
            M = random_poset(rng, rng.randint(1, 6), 0.4)
            d = random_map(rng, M, D)
            order = list(M.elements)
            rng.shuffle(order)
            shads = prefix_shadows(M, order)
            res = monotone_adjustment(M, D, d, order)
            pos = {e: i for i, e in enumerate(order)}

            def key(x, y):
                return (max(pos[x], pos[y]), min(pos[x], pos[y]))

            for a in M.elements:
                for b in M.elements:
                    kab = key(a, b)
                    dp = dict(res.d_prime)
                    # forget the target pair and anything ⊴-above it
                    partial = {p: v for p, v in dp.items()
                               if key(*p) < kab}
                    coin, cof = oracle.finitary_bounds(M, shads, partial, a, b)
                    full_meet = [dp[(x, y)] for x in M.elements
                                 for y in M.elements
                                 if key(x, y) < kab and M.leq(a, x)
                                 and M.leq(y, b)]
                    full_join = [dp[(x, y)] for x in M.elements
                                 for y in M.elements
                                 if key(x, y) < kab and M.leq(x, a)
                                 and M.leq(b, y)]
                    assert oracle.meet_all(D, coin, D.top) == \
                        oracle.meet_all(D, full_meet, D.top)
                    assert oracle.join_all(D, cof) == \
                        oracle.join_all(D, full_join)


class TestDeviationPreservation:
    def test_adjusted_deviation_is_monotone_deviation(self):
        # with M = D and d a deviation, the adjustment is a monotone
        # deviation; spot-check on completely normal lattices
        from conftest import downset_lattice_corpus
        rng = random.Random(46)
        for D in downset_lattice_corpus(3):
            if not is_completely_normal(D)[0]:
                continue
            d = search_deviation(D)
            order = list(D.elements)
            rng.shuffle(order)
            res = monotone_adjustment(D.poset, D, d, order)
            assert check_deviation(D, res.d_prime) is None
            assert deviation_properties(D, res.d_prime).monotone


class TestDistributiveRequirement:
    def test_non_distributive_lattice_rejected(self):
        rng = random.Random(49)
        for D in (n5(), m3()):
            assert not D.is_distributive
            for M in (D.poset, random_poset(rng, 3, 0.5)):
                d = random_map(rng, M, D)
                for use_shadows in (False, True):
                    with pytest.raises(InputError, match="monotone adjustment "
                                       "needs a distributive lattice"):
                        monotone_adjustment(M, D, d, M.elements,
                                            use_shadows=use_shadows)

    def test_distributivity_verdict_is_read_only(self):
        """The guards trust the kept verdict, so it cannot be overwritten."""
        D = n5()
        with pytest.raises(AttributeError):
            D.is_distributive = True
        with pytest.raises(InputError):
            monotone_adjustment(D.poset, D, random_map(random.Random(1),
                                                       D.poset, D),
                                D.elements)

    def test_kept_distributivity_verdict_is_read(self, monkeypatch):
        """One search and two adjustments on a checked lattice recount
        nothing: Birkhoff's count ran once, when the lattice was built."""
        J = FinitePoset.from_relation(range(4), [(0, 2), (1, 2), (3, 1)])
        D = lattice_from_downsets(J)
        calls = []
        real = posets.down_set_masks

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(posets, "down_set_masks", counting)
        monkeypatch.setattr(lattices, "down_set_masks", counting)
        d = search_deviation(D)
        order = list(D.elements)[::-1]
        monotone_adjustment(D.poset, D, d, order)
        monotone_adjustment(D.poset, D, d, order, use_shadows=True)
        assert calls == []
        lattice_from_downsets(J)         # the counter does see a build
        assert calls


def test_pair_key_rejects_unknown_element():
    ctx = PairOrderContext(("x", "y"))
    with pytest.raises(InputError,
                       match="element 'z' not in base enumeration"):
        ctx.key({"z"})
    with pytest.raises(InputError):
        ctx.key({"x", "z"})


# ---------------------------------------------------------------------------
# The trace decoded on read, against the eager oracle
# ---------------------------------------------------------------------------

def binary_tree_lattice(n: int):
    """The down-set lattice of the heap-shaped binary tree on n nodes,
    root on top: 183 elements for n = 12."""
    return lattice_from_downsets(FinitePoset.from_relation(
        range(n), [(i, (i - 1) // 2) for i in range(1, n)]))


def trace_cases():
    """(M, D, d, enumeration): B5 and the golden tree lattice with a
    deviation, and the tree lattice under a random poset M."""
    rng = random.Random(48)
    B5 = lattice_from_downsets(FinitePoset(range(5), []))
    tree = lattice_from_json(load_json(TREE))
    cases = [(D.poset, D, search_deviation(D)) for D in (B5, tree)]
    M = random_poset(rng, 6, 0.4)
    cases.append((M, tree, random_map(rng, M, tree)))
    out = []
    for M, D, d in cases:
        order = list(M.elements)
        rng.shuffle(order)
        out.append((M, D, d, order))
    return out


@pytest.mark.parametrize("use_shadows", [False, True],
                         ids=["naive", "shadows"])
def test_trace_matches_oracle_beyond_corpus(use_shadows):
    for M, D, d, order in trace_cases():
        mine = monotone_adjustment(M, D, d, order,
                                   use_shadows=use_shadows).trace
        theirs = oracle.monotone_adjustment(M, D, d, order,
                                            use_shadows=use_shadows).trace
        assert list(mine.items()) == list(theirs.items())
        assert list(mine.values()) == list(theirs.values())
        assert list(mine) == list(theirs) and len(mine) == len(theirs)
        assert all(pair in mine for pair in theirs)
        for absent in ((M.elements[0],), ("nowhere", M.elements[0]),
                       (M.elements[0], M.elements[0], M.elements[0])):
            assert absent not in mine and mine.get(absent) is None
            with pytest.raises(KeyError):
                mine[absent]
        for pair in list(theirs)[::7]:
            assert mine.get(pair) == mine[pair] == theirs[pair]
        assert mine == theirs and theirs == mine
        assert dict(mine) == theirs
        assert list(mine.items()) == list(mine.items())
        assert not mine != theirs


def test_both_adjustment_paths_scale_to_tree_lattice():
    """Naive and shadow d′ on the 183-element tree lattice, each within
    20 s; the eager trace made the naive path take over a minute."""
    D = binary_tree_lattice(12)
    assert len(D) == 183
    d = search_deviation(D)
    order = list(D.elements)[::-1]

    def guarded(use_shadows):
        with time_limit(20, "adjustment"):
            return monotone_adjustment(D.poset, D, d, order,
                                       use_shadows=use_shadows)

    naive, shadow = guarded(False), guarded(True)
    assert naive.d_prime == shadow.d_prime
    assert list(naive.d_prime) == list(shadow.d_prime)
    # the last entries, decided after ~33,000 pairs, against the
    # definition: the pairs of the earlier blocks above/below (a, b)
    decided = list(naive.trace)
    leq = D.poset.leq
    for a, b in decided[-3:]:
        earlier = decided[:min(decided.index((a, b)),
                               decided.index((b, a)))]
        entry = naive.trace[(a, b)]
        assert entry.base_value == d[(a, b)]
        assert list(entry.meetands) == [(x, y) for x, y in earlier
                                        if leq(a, x) and leq(y, b)]
        assert list(entry.joinands) == [(x, y) for x, y in earlier
                                        if leq(x, a) and leq(b, y)]


@pytest.mark.parametrize("use_shadows", [False, True],
                         ids=["naive", "shadows"])
def test_trace_entries_recompute_their_values(use_shadows):
    """Every decoded entry gives back its pair's value,
    d′(a,b) = (d(a,b) ∧ ⋀ d′(meetands)) ∨ ⋁ d′(joinands).  Both paths
    take d′ from the shadow fold: on the shadow path this ties the fold
    to the keys of ``_shadow_bound_keys``, on the naive path to the
    definition's meetands and joinands."""
    for M, D, d, order in adjustment_cases() + trace_cases():
        res = monotone_adjustment(M, D, d, order, use_shadows=use_shadows)
        dp = res.d_prime
        for pair, entry in res.trace.items():
            assert entry.base_value == d[pair]
            meet = reduce(D.meet, (dp[p] for p in entry.meetands), d[pair])
            join = reduce(D.join, (dp[p] for p in entry.joinands), D.bottom)
            assert D.join(meet, join) == dp[pair]


def test_naive_trace_reads_in_any_order():
    """The naive trace decodes each entry when it is read: entries read
    out of decision order, twice, after membership tests made before any
    read, equal the oracle's."""
    rng = random.Random(50)
    for M, D, d, order in adjustment_cases() + trace_cases():
        trace = monotone_adjustment(M, D, d, order).trace
        theirs = oracle.monotone_adjustment(M, D, d, order).trace
        pairs = list(theirs)
        assert all(pair in trace for pair in pairs)
        assert ("nowhere", M.elements[0]) not in trace
        rng.shuffle(pairs)
        for _ in range(2):
            for pair in pairs:
                assert trace[pair] == theirs[pair]
