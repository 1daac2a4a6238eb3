"""Posets, shadows, witnesses, closures, amalgams."""

import random
from itertools import chain, combinations

import pytest

from latdev.errors import InputError
from latdev.posets import (FinitePoset, SeparabilityWitness,
                           StrongAmalgamSpec, check_separability_witness,
                           check_strong_amalgam, is_separability_witness,
                           locally_finite_closure, order_from_witness,
                           shadow, witness_from_amalgam, witness_from_order,
                           witness_transform)

from conftest import random_poset


def powerset(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def diagonal(P):
    """A(x) = B(x) = {x}: a witness iff P is an antichain, since a
    strictly comparable pair x < y has A(x) ∩ B(y) empty."""
    return SeparabilityWitness({x: frozenset([x]) for x in P.elements},
                               {x: frozenset([x]) for x in P.elements})


V = FinitePoset(["a", "b", "c"], [("a", "c"), ("b", "c")])
CHAIN3 = FinitePoset.chain(3)


class TestFinitePoset:
    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            FinitePoset(["a", "a"], [])

    def test_rejects_cycle(self):
        with pytest.raises(InputError):
            FinitePoset.from_relation(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_non_transitive(self):
        with pytest.raises(InputError):
            FinitePoset([0, 1, 2], [(0, 1), (1, 2)])

    def test_closure_builds_chain(self):
        P = FinitePoset.from_relation([0, 1, 2], [(0, 1), (1, 2)])
        assert P.leq(0, 2)

    def test_down_up_sets(self):
        assert V.down_set(["c"]) == {"a", "b", "c"}
        assert V.up_set(["a"]) == {"a", "c"}

    def test_dual_involution(self):
        assert V.dual().dual() == V

    def test_unknown_element(self):
        with pytest.raises(InputError):
            V.leq("a", "z")


class TestShadow:
    def test_chain_maximal_lower_bound(self):
        assert shadow(CHAIN3, {0, 1}, 2, "lower") == {1}

    def test_empty_subset(self):
        assert shadow(V, set(), "c", "lower") == frozenset()
        assert shadow(V, set(), "c", "upper") == frozenset()

    def test_antichain_no_comparabilities(self):
        P = FinitePoset.antichain(["a", "b"])
        assert shadow(P, {"a"}, "b", "lower") == frozenset()

    def test_unknown_element_rejected(self):
        with pytest.raises(InputError):
            shadow(CHAIN3, {0}, 99, "lower")
        with pytest.raises(InputError):
            shadow(CHAIN3, {99}, 0, "upper")

    def test_bad_kind_rejected(self):
        with pytest.raises(InputError):
            shadow(CHAIN3, {0}, 1, "sideways")

    def test_minimal_valid_shadow_against_bruteforce(self):
        # oracle: U is a lower shadow of x on A iff A ∩ ↓x = A ∩ ↓U;
        # the returned set must be valid and no proper subset valid
        rng = random.Random(7)
        for _ in range(40):
            P = random_poset(rng, rng.randint(1, 6), 0.4)
            A = {x for x in P.elements if rng.random() < 0.5}
            x = rng.choice(P.elements)
            target = {a for a in A if P.leq(a, x)}

            def is_lower_shadow(U):
                return set(U) <= A and \
                    {a for a in A if any(P.leq(a, u) for u in U)} == target

            U = shadow(P, A, x, "lower")
            assert is_lower_shadow(U)
            for W in powerset(U):
                if set(W) != set(U):
                    assert not is_lower_shadow(W)


class TestWitness:
    def test_full_witness_valid_everywhere(self):
        for P in (V, CHAIN3, FinitePoset.antichain(["x", "y", "z"])):
            assert is_separability_witness(P, SeparabilityWitness.full(P))

    def test_diagonal_witness_valid_only_on_antichains(self):
        assert is_separability_witness(
            FinitePoset.antichain(["x", "y"]),
            diagonal(FinitePoset.antichain(["x", "y"])))
        v = check_separability_witness(
            CHAIN3, diagonal(CHAIN3))
        assert v is not None and v.kind == "intersection"

    def test_empty_A_violates_intersection(self):
        W = SeparabilityWitness(
            {0: frozenset(), 1: frozenset([1])},
            {0: frozenset([0]), 1: frozenset([1])})
        v = check_separability_witness(FinitePoset.chain(2), W)
        assert v is not None and v.kind == "intersection" and v.data == (0, 1)

    def test_non_upper_bound_detected(self):
        W = SeparabilityWitness(
            {0: frozenset([0]), 1: frozenset([0])},
            {0: frozenset([0]), 1: frozenset([1])})
        v = check_separability_witness(FinitePoset.chain(2), W)
        assert v is not None and v.kind == "upper_bound" and v.data == (1, 0)

    def test_totality_required(self):
        with pytest.raises(InputError):
            check_separability_witness(
                FinitePoset.chain(2),
                SeparabilityWitness({0: frozenset([0])}, {0: frozenset([0])}))

    def test_from_order_on_v_poset(self):
        W = witness_from_order(V, ("a", "b", "c"))
        assert W.A["c"] == {"c"}
        assert W.B["c"] == {"a", "b", "c"}
        assert is_separability_witness(V, W)

    def test_from_order_singleton(self):
        P = FinitePoset(["x"], [])
        W = witness_from_order(P, ("x",))
        assert W.A["x"] == W.B["x"] == {"x"}

    def test_from_order_two_chain(self):
        W = witness_from_order(FinitePoset.chain(2), (0, 1))
        assert W.A[0] == {0} and W.B[0] == {0}
        assert W.A[1] == {1} and W.B[1] == {0, 1}

    def test_from_order_bad_enumeration(self):
        with pytest.raises(InputError):
            witness_from_order(V, ("a", "b"))

    def test_from_order_valid_and_prefix_bounded_randomly(self):
        # x ∈ A(y) ∪ B(y) implies x comes no later than y
        rng = random.Random(13)
        for _ in range(60):
            P = random_poset(rng, rng.randint(1, 12), 0.35)
            order = list(P.elements)
            rng.shuffle(order)
            W = witness_from_order(P, order)
            assert is_separability_witness(P, W)
            pos = {x: i for i, x in enumerate(order)}
            for y in P.elements:
                for x in W.A[y] | W.B[y]:
                    assert pos[x] <= pos[y]


class TestOrderFromWitness:
    def test_diagonal_witness_singleton_blocks(self):
        P = FinitePoset.antichain(["a", "b"])
        res = order_from_witness(P, diagonal(P))
        assert res.blocks == (("a",), ("b",))
        assert res.enumeration == ("a", "b")

    def test_linked_block(self):
        P = FinitePoset.chain(2)
        W = SeparabilityWitness({0: frozenset([0, 1]), 1: frozenset([1])},
                                {0: frozenset([0]), 1: frozenset([1, 0])})
        res = order_from_witness(P, W)
        assert res.blocks == ((0, 1),)
        assert res.enumeration == (0, 1)

    def test_invalid_witness_rejected(self):
        W = SeparabilityWitness(
            {0: frozenset(), 1: frozenset([1])},
            {0: frozenset([0]), 1: frozenset([1])})
        with pytest.raises(InputError):
            order_from_witness(FinitePoset.chain(2), W)

    def test_prefix_shadows_reported(self):
        P = CHAIN3
        res = order_from_witness(P, SeparabilityWitness.full(P))
        assert res.enumeration == (0, 1, 2)
        assert res.prefix_shadows[2] == (frozenset(), frozenset([1]))

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(30):
            P = random_poset(rng, rng.randint(1, 9), 0.4)
            order = list(P.elements)
            rng.shuffle(order)
            W = witness_from_order(P, order)
            res = order_from_witness(P, W)
            W2 = witness_from_order(P, res.enumeration)
            assert is_separability_witness(P, W2)


class TestLocallyFiniteClosure:
    def test_identity_map(self):
        P = FinitePoset.antichain(["a"])
        assert locally_finite_closure(P, {"a": {"a"}}, {"a"}) == {"a"}

    def test_linear_chase(self):
        C = {2: {1}, 1: {0}, 0: set()}
        assert locally_finite_closure(CHAIN3, C, {2}) == {0, 1, 2}

    @pytest.mark.parametrize("C, X", [
        ({0: [7]}, [0]),                # reached from X
        ({1: [0], 2: ["z"]}, [0]),      # never reached
        ({9: [0]}, [0]),                # unknown key
    ])
    def test_unknown_element_rejected(self, C, X):
        with pytest.raises(InputError, match="unknown element"):
            locally_finite_closure(CHAIN3, C, X)

    def test_witness_map_closure_on_v(self):
        W = witness_from_order(V, ("a", "b", "c"))
        C = {x: W.A[x] | W.B[x] for x in V.elements}
        assert locally_finite_closure(V, C, {"c"}) == {"a", "b", "c"}

    def test_fixed_point(self):
        rng = random.Random(5)
        for _ in range(20):
            P = random_poset(rng, 6, 0.3)
            C = {x: frozenset(rng.sample(P.elements, rng.randint(0, 3)))
                 for x in P.elements}
            X = set(rng.sample(P.elements, 2))
            closed = locally_finite_closure(P, C, X)
            again = locally_finite_closure(P, C, closed)
            assert again == closed


def _powerset_poset(base):
    ids = [tuple(sorted(s)) for s in powerset(base)]
    rel = [(a, b) for a in ids for b in ids if set(a) <= set(b)]
    return FinitePoset(ids, rel)


class TestStrongAmalgam:
    def test_two_block_chain_ok(self):
        M = _powerset_poset([1, 2])
        P = FinitePoset.chain(2)
        spec = StrongAmalgamSpec(M, P, {0: frozenset([(), (1,)]),
                                        1: frozenset(M.elements)})
        assert check_strong_amalgam(spec) is None

    def test_union_violation(self):
        M = _powerset_poset([1, 2])
        P = FinitePoset.chain(2)
        spec = StrongAmalgamSpec(M, P, {0: frozenset([()]),
                                        1: frozenset([(1,), (1, 2)])})
        v = check_strong_amalgam(spec)
        assert v is not None and v.clause == "union" and v.data == ((2,),)

    def test_single_block_ok(self):
        M = _powerset_poset([1, 2])
        spec = StrongAmalgamSpec(M, FinitePoset(["p"], []),
                                 {"p": frozenset(M.elements)})
        assert check_strong_amalgam(spec) is None

    def test_interpolation_violation(self):
        # blocks {0} and {2} over an antichain index never interpolate 0 <= 2
        M = CHAIN3
        P = FinitePoset.antichain(["p", "q"])
        spec = StrongAmalgamSpec(M, P, {"p": frozenset([0, 1]),
                                        "q": frozenset([2])})
        v = check_strong_amalgam(spec)
        assert v is not None and v.clause == "interpolation"

    def test_member_outside_carrier_rejected(self):
        with pytest.raises(InputError):
            StrongAmalgamSpec(CHAIN3, FinitePoset(["p"], []),
                              {"p": frozenset([0, 99])})

    def test_family_not_total_rejected(self):
        with pytest.raises(InputError,
                           match="family not total on index: missing 'q'"):
            StrongAmalgamSpec(CHAIN3, FinitePoset.antichain(["p", "q"]),
                              {"p": frozenset([0, 1, 2])})

    def test_witness_needs_a_strong_amalgam(self):
        spec = StrongAmalgamSpec(CHAIN3, FinitePoset.antichain(["p", "q"]),
                                 {"p": frozenset([0, 1]),
                                  "q": frozenset([2])})
        blocks = {p: SeparabilityWitness.full(CHAIN3.restrict(spec.family[p]))
                  for p in "pq"}
        with pytest.raises(InputError,
                           match="not a strong amalgam: interpolation"):
            witness_from_amalgam(spec, blocks, {0: "p", 1: "p", 2: "q"})

    def test_nu_not_total_rejected(self):
        M = _powerset_poset([1, 2])
        spec = StrongAmalgamSpec(M, FinitePoset(["p"], []),
                                 {"p": frozenset(M.elements)})
        with pytest.raises(InputError, match=r"nu not total: missing \(1, 2\)"):
            witness_from_amalgam(spec, {"p": SeparabilityWitness.full(M)},
                                 {x: "p" for x in M.elements if x != (1, 2)})

    def test_witness_single_block_unchanged(self):
        M = _powerset_poset([1, 2])
        spec = StrongAmalgamSpec(M, FinitePoset(["p"], []),
                                 {"p": frozenset(M.elements)})
        block = SeparabilityWitness.full(M)
        W = witness_from_amalgam(spec, {"p": block},
                                 {x: "p" for x in M.elements})
        assert is_separability_witness(M, W)
        assert W.A == block.A and W.B == block.B

    def test_witness_two_block_chain(self):
        M = _powerset_poset([1, 2])
        P = FinitePoset.chain(2)
        fam = {0: frozenset([(), (1,)]), 1: frozenset(M.elements)}
        spec = StrongAmalgamSpec(M, P, fam)
        blocks = {p: SeparabilityWitness.full(M.restrict(fam[p]))
                  for p in P.elements}
        nu = {x: (0 if x in fam[0] else 1) for x in M.elements}
        W = witness_from_amalgam(spec, blocks, nu)
        assert is_separability_witness(M, W)

    def test_witness_powerset_of_three_from_two_subsets(self):
        base = [1, 2, 3]
        ids = [tuple(sorted(s)) for s in powerset(base) if len(s) <= 2]
        rel = [(a, b) for a in ids for b in ids if set(a) <= set(b)]
        M = FinitePoset(ids, rel)
        index = FinitePoset(ids, rel)
        fam = {X: frozenset(y for y in ids if set(y) <= set(X)) for X in ids}
        spec = StrongAmalgamSpec(M, index, fam)
        assert check_strong_amalgam(spec) is None
        blocks = {X: SeparabilityWitness.full(M.restrict(fam[X]))
                  for X in ids}
        W = witness_from_amalgam(spec, blocks, {x: x for x in ids})
        assert is_separability_witness(M, W)

    def test_inconsistent_nu_rejected(self):
        M = _powerset_poset([1, 2])
        spec = StrongAmalgamSpec(M, FinitePoset(["p"], []),
                                 {"p": frozenset(M.elements)})
        with pytest.raises(InputError):
            witness_from_amalgam(spec,
                                 {"p": SeparabilityWitness.full(M)},
                                 {x: "q" for x in M.elements})

    def test_random_nested_chains_give_valid_witnesses(self):
        rng = random.Random(11)
        for _ in range(25):
            M = random_poset(rng, rng.randint(1, 8), 0.35)
            k = rng.randint(1, 4)
            blocks_sets = []
            cur = set()
            for i in range(k):
                room = [x for x in M.elements if x not in cur]
                cur |= set(rng.sample(room, rng.randint(0, len(room)))) \
                    if room else set()
                blocks_sets.append(frozenset(cur))
            blocks_sets[-1] = frozenset(M.elements)
            P = FinitePoset.chain(k)
            fam = dict(enumerate(blocks_sets))
            spec = StrongAmalgamSpec(M, P, fam)
            assert check_strong_amalgam(spec) is None
            wits = {p: witness_from_order(
                M.restrict(fam[p]),
                tuple(x for x in M.elements if x in fam[p]))
                for p in range(k) if fam[p]}
            for p in range(k):
                if not fam[p]:
                    wits[p] = SeparabilityWitness({}, {})
            nu = {x: next(p for p in range(k) if x in fam[p])
                  for x in M.elements}
            W = witness_from_amalgam(spec, wits, nu)
            assert is_separability_witness(M, W)


class TestWitnessTransform:
    def test_dual_swaps_maps(self):
        A = FinitePoset.antichain(["x", "y"])
        Wd = diagonal(A)
        Q, W = witness_transform("dual", A, Wd)
        assert Q == A.dual()
        assert W.A == Wd.B and W.B == Wd.A
        assert is_separability_witness(Q, W)
        Wf = SeparabilityWitness.full(V)
        Q, W = witness_transform("dual", V, Wf)
        assert is_separability_witness(Q, W)

    def test_add_top_on_two_chain(self):
        P = FinitePoset.chain(2)
        Q, W = witness_transform("add_top", P,
                                 SeparabilityWitness.full(P), "T")
        assert len(Q) == 3
        assert is_separability_witness(Q, W)
        assert "T" in W.A[0]

    def test_add_bottom(self):
        P = FinitePoset.chain(2)
        Q, W = witness_transform("add_bottom", P,
                                 SeparabilityWitness.full(P), "B")
        assert is_separability_witness(Q, W)

    def test_product_of_two_chain_witnesses(self):
        P = FinitePoset.chain(2)
        Q, W = witness_transform("product", P, SeparabilityWitness.full(P),
                                 P, SeparabilityWitness.full(P))
        assert len(Q) == 4
        assert is_separability_witness(Q, W)

    def test_convex_restrict(self):
        Q, W = witness_transform("convex_restrict", CHAIN3,
                                 witness_from_order(CHAIN3, (0, 1, 2)),
                                 {1, 2})
        assert is_separability_witness(Q, W)

    def test_non_convex_rejected(self):
        with pytest.raises(InputError):
            witness_transform("convex_restrict", CHAIN3,
                              SeparabilityWitness.full(CHAIN3), {0, 2})

    @pytest.mark.parametrize("kind, extra", [
        ("dual", ()), ("add_top", ("T",)), ("add_bottom", ("B",)),
        ("convex_restrict", ({1, 2},)), ("product", "left"),
        ("product", "right")])
    def test_partial_witness_rejected(self, kind, extra):
        full = SeparabilityWitness.full(CHAIN3)
        partial = SeparabilityWitness(
            {x: full.A[x] for x in (0, 1)}, dict(full.B))
        if kind == "product":
            args = (CHAIN3, partial, CHAIN3, full) if extra == "left" \
                else (CHAIN3, full, CHAIN3, partial)
        else:
            args = (CHAIN3, partial) + extra
        with pytest.raises(InputError,
                           match="witness maps not total: missing 2"):
            witness_transform(kind, *args)

    @pytest.mark.parametrize("kind, args", [
        ("dual", (CHAIN3,)), ("add_top", (CHAIN3,)),
        ("product", (CHAIN3, SeparabilityWitness.full(CHAIN3))),
        ("convex_restrict", ())])
    def test_wrong_argument_count_rejected(self, kind, args):
        with pytest.raises(InputError, match=f"{kind} takes"):
            witness_transform(kind, *args)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError, match="unknown transform kind"):
            witness_transform("mirror", CHAIN3,
                              SeparabilityWitness.full(CHAIN3))

    def test_random_transforms_valid(self):
        rng = random.Random(17)
        for _ in range(20):
            P = random_poset(rng, rng.randint(1, 7), 0.4)
            order = list(P.elements)
            rng.shuffle(order)
            W = witness_from_order(P, order)
            for kind in ("dual", "add_top", "add_bottom"):
                args = (P, W) if kind == "dual" else (P, W, "new")
                Q, W2 = witness_transform(kind, *args)
                assert is_separability_witness(Q, W2)
            P2 = random_poset(rng, rng.randint(1, 4), 0.4)
            W2 = witness_from_order(P2, P2.elements)
            Q, Wp = witness_transform("product", P, W, P2, W2)
            assert is_separability_witness(Q, Wp)
            # order-convex subset: a principal down-set is convex
            x = rng.choice(P.elements)
            sub = P.down_set([x])
            Q, Wc = witness_transform("convex_restrict", P, W, sub)
            assert is_separability_witness(Q, Wc)
