"""Differential tests: the index/bitmask order kernel against the
id-based reference code in ``oracle_orders``.

The order relation, down-set lattices, tables, distributivity verdicts,
prime ideals, deviation verdicts and property counterexamples, search
order and both adjustment paths (values and trace) must be identical,
and so must the exception type and message on malformed orders.
"""

import random
from collections import Counter
from types import MappingProxyType

import pytest

import oracle_orders as oracle
from latdev.adjustment import monotone_adjustment
from latdev.deviations import (check_deviation, deviation_properties,
                               enumerate_deviations, search_deviation)
from latdev.errors import InputError
from latdev.lattices import (FiniteDistributiveLattice, _one_cover,
                             is_completely_normal, is_zero_distributive,
                             lattice_from_downsets, prime_ideal_poset)
from latdev.posets import (FinitePoset, StrongAmalgamSpec,
                           check_strong_amalgam, down_set_masks)

from conftest import all_posets, downset_lattice_corpus, random_poset

CORPUS = list(downset_lattice_corpus(4))


def chain_product(k: int) -> FinitePoset:
    els = [(i, j) for i in range(k) for j in range(3)]
    return FinitePoset.from_relation(
        els, [(a, b) for a in els for b in els
              if a[0] <= b[0] and a[1] <= b[1]])


def n5():
    return FiniteDistributiveLattice(FinitePoset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1"),
         ("0", "b"), ("0", "1"), ("a", "1")]), check_distributive=False)


def m3():
    els = ["0", "a", "b", "c", "1"]
    rel = [("0", x) for x in els] + [(x, "1") for x in els]
    return FiniteDistributiveLattice(FinitePoset(els, rel),
                                     check_distributive=False)


def transitive_closure(elements, pairs) -> list:
    closed = set(pairs) | {(x, x) for x in elements}
    while True:
        more = {(a, d) for (a, b) in closed for (c, d) in closed if b == c}
        if more <= closed:
            return sorted(closed)
        closed |= more


def raised(fn, *args, **kwargs):
    """(type, message) of the exception fn raises, or None."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:        # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


def leq_matrix(P: FinitePoset) -> list:
    return [[P.leq(a, b) for b in P.elements] for a in P.elements]


def test_valid_relations_match_oracle():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 7)
        els = rng.sample(range(100), n)
        pairs = [(els[i], els[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        closed = transitive_closure(els, pairs)
        le = oracle.validate_relation(els, closed)
        assert leq_matrix(FinitePoset(els, closed)) == le
        assert leq_matrix(FinitePoset.from_relation(els, pairs)) == le


def assert_downsets_match_oracle(J: FinitePoset):
    ids, rel = oracle.downset_lattice_relation(J)
    L = lattice_from_downsets(J)
    assert L.elements == tuple(ids)
    assert L.poset == FinitePoset(ids, rel)
    assert leq_matrix(L.poset) == oracle.validate_relation(ids, rel)


def test_downset_lattices_match_oracle():
    posets = list(all_posets(4))
    assert len(posets) == 243
    posets += [chain_product(k) for k in range(1, 6)]
    posets += [FinitePoset.antichain(range(n)) for n in range(1, 6)]
    for J in posets:
        assert_downsets_match_oracle(J)


def test_down_set_masks_match_oracle():
    """The doubling enumeration lists the down-sets that the breadth-first
    oracle finds, each once, and its list passes a limit exactly when
    there are more down-sets than the limit."""
    posets = list(all_posets(4))
    posets += [FinitePoset.chain(n) for n in range(1, 9)]
    posets += [FinitePoset.antichain(range(n)) for n in range(1, 9)]
    for J in posets:
        below = {i: d & ~(1 << i) for i, d in enumerate(J._down)}
        masks = down_set_masks(below)
        assert len(set(masks)) == len(masks)
        assert ({frozenset(J._members(X)) for X in masks}
                == set(oracle.all_down_sets(J)))
        count = len(masks)
        for limit in range(max(count - 3, 0), count + 3):
            assert (len(down_set_masks(below, limit)) > limit) == \
                (count > limit)


def test_covers_and_single_covers_match_definition():
    """``covers()`` lists the pairs a < b with nothing strictly between,
    in canonical order, and ``_one_cover`` picks the elements with
    exactly one lower cover (on down-set masks) or exactly one upper
    cover (on up-set masks), on the corpus lattices and posets."""
    for P in [D.poset for D in CORPUS] + list(all_posets(4)):
        le, N = leq_matrix(P), range(len(P))
        less = [(a, b) for a in N for b in N if a != b and le[a][b]]
        covers = [(a, b) for a, b in less
                  if not any(le[a][c] and le[c][b] for c in N
                             if c not in (a, b))]
        els = P.elements
        assert P.covers() == [(els[a], els[b]) for a, b in covers]
        lower = Counter(b for _, b in covers)
        upper = Counter(a for a, _ in covers)
        assert _one_cover(P._down) == [x for x in N if lower[x] == 1]
        assert _one_cover(P._up) == [x for x in N if upper[x] == 1]


def assert_same_poset(P: FinitePoset, Q: FinitePoset):
    assert (P.elements, P._idx, P._up, P._down) == \
        (Q.elements, Q._idx, Q._up, Q._down)


def test_mask_built_posets_match_checked_oracle():
    """Each poset the library stores from its own masks, unchecked, is
    the poset that the checked constructor builds from the relation list
    of ``oracle_orders``: the checks it skips would all have passed."""
    rng = random.Random(29)
    posets = list(all_posets(4))
    posets += [random_poset(rng, rng.randint(0, 7)) for _ in range(60)]
    for n in range(9):
        assert_same_poset(FinitePoset.chain(n), oracle.chain(n))
    for P in posets:
        assert_same_poset(P.dual(), oracle.dual(P))
        Q = rng.choice(posets[:40])
        assert_same_poset(P.product(Q), oracle.product(P, Q))
        assert_same_poset(P.with_top("t"), oracle.with_top(P, "t"))
        assert_same_poset(P.with_bottom("b"), oracle.with_bottom(P, "b"))
        for _ in range(3):
            sub = [x for x in P.elements if rng.random() < 0.5]
            assert_same_poset(P.restrict(sub), oracle.restrict(P, sub))
        D = lattice_from_downsets(P)
        assert_same_poset(
            D.poset, FinitePoset(*oracle.downset_lattice_relation(P)))
        pip = prime_ideal_poset(D)
        ids = [tuple(x for x in D.elements if x in I) for I in pip.ideals]
        assert_same_poset(pip.poset, oracle.inclusion_poset(ids, pip.ideals))
    P = FinitePoset.chain(3)
    for bad in (lambda: P.with_top(0), lambda: P.with_bottom(2),
                lambda: P.restrict([0, "nowhere"])):
        with pytest.raises(InputError):
            bad()


def assert_matches_oracle(D: FiniteDistributiveLattice):
    join, meet, bot, top = oracle.lattice_tables(D.poset,
                                                 check_distributive=False)
    assert [list(r) for r in D._join] == join
    assert [list(r) for r in D._meet] == meet
    assert (D._bot, D._top) == (bot, top)
    failure = oracle.distributivity_failure(D.elements, join, meet)
    assert D.is_distributive == (failure is None)
    assert D._distributivity_failure() == failure
    mine, theirs = prime_ideal_poset(D), oracle.prime_ideal_poset(D)
    assert mine.ideals == theirs.ideals
    assert mine.poset == theirs.poset


def test_corpus_matches_oracle():
    assert len(CORPUS) == 243
    for D in CORPUS:
        assert_matches_oracle(D)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_chain_products_match_oracle(k):
    assert_matches_oracle(lattice_from_downsets(chain_product(k)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_boolean_lattices_match_oracle(n):
    D = lattice_from_downsets(FinitePoset.antichain(range(n)))
    assert len(D) == 2 ** n
    assert_matches_oracle(D)


@pytest.mark.parametrize("make", [n5, m3], ids=["N5", "M3"])
def test_non_distributive_lattices_match_oracle(make):
    D = make()
    assert not D.is_distributive
    assert_matches_oracle(D)
    # with the check on, the same first failing triple is named
    assert raised(FiniteDistributiveLattice, D.poset) == \
        raised(oracle.lattice_tables, D.poset)
    assert raised(FiniteDistributiveLattice, D.poset)[0] is InputError


def test_non_lattice_error_identical():
    P = FinitePoset(["0", "a", "b", "c", "d"],
                    [("0", x) for x in "abcd"]
                    + [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")])
    err = raised(FiniteDistributiveLattice, P)
    assert err == raised(oracle.lattice_tables, P)
    assert err == (InputError, "no least upper bound for 'a', 'b'")
    # no bottom: the meet of two minimal elements fails first
    Q = FinitePoset(["a", "b", "1"], [("a", "1"), ("b", "1")])
    assert raised(FiniteDistributiveLattice, Q) == \
        raised(oracle.lattice_tables, Q)
    assert raised(FiniteDistributiveLattice, FinitePoset([], [])) == \
        raised(oracle.lattice_tables, FinitePoset([], []))


@pytest.mark.parametrize("elements, relation", [
    (["a", "b", "c"], [("a", "b"), ("b", "c")]),                # not transitive
    ([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]),   # not transitive
    (["a", "b", "c"], [("a", "b"), ("b", "a")]),                # not antisymmetric
    (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("b", "d")]),
    (["a", "b", "c"], [("c", "b"), ("b", "c"), ("a", "b"), ("b", "a")]),
    (["a", "b", "c"], [("a", "c"), ("c", "a"), ("a", "b"), ("b", "a")]),
    (["a", "b"], [("a", "z")]),                                 # unknown id
    (["a", "a"], []),                                           # duplicate
])
def test_invalid_relation_error_identical(elements, relation):
    err = raised(FinitePoset, elements, relation)
    assert err is not None and err[0] is InputError
    assert err == raised(oracle.validate_relation, elements, relation)


def test_from_relation_cycle_error_identical():
    els, pairs = ["a", "b", "c", "d"], [("b", "c"), ("c", "d"), ("d", "b")]
    closed = set(pairs) | {(x, x) for x in els}
    while True:
        more = {(a, d) for (a, b) in closed for (c, d) in closed if b == c}
        if more <= closed:
            break
        closed |= more
    err = raised(FinitePoset.from_relation, els, pairs)
    assert err == raised(oracle.validate_relation, els, sorted(closed))
    assert err[0] is InputError


def random_order(rng: random.Random, ids, p: float) -> FinitePoset:
    """A random order on ``ids`` whose canonical order (``ids`` as given)
    need not be a linear extension."""
    topo = rng.sample(list(ids), len(ids))
    return FinitePoset.from_relation(ids, [
        (topo[i], topo[j]) for i in range(len(topo))
        for j in range(i + 1, len(topo)) if rng.random() < p])


def random_amalgam(rng: random.Random) -> StrongAmalgamSpec:
    """A carrier of at most 7 elements and an index of at most 4.  Each
    block is the union of random seed sets over the index elements below
    it; nine elements in ten are put into one seed, the rest may be in
    none, so some families miss an element."""
    M = random_order(rng, rng.sample(range(10), rng.randint(1, 7)),
                     rng.random())
    P = random_order(rng, rng.sample("pqrs", rng.randint(1, 4)),
                     rng.random())
    density = rng.random() * 0.5
    seeds = {p: {x for x in M.elements if rng.random() < density}
             for p in P.elements}
    for x in M.elements:
        if rng.random() < 0.9:
            seeds[rng.choice(P.elements)].add(x)
    return StrongAmalgamSpec(M, P, {
        p: frozenset().union(*(seeds[r] for r in P.elements if P.leq(r, p)))
        for p in P.elements})


def test_strong_amalgam_matches_definition():
    """The library checks union and interpolation over incomparable index
    pairs only; the oracle checks the definition as written.  The census
    pins the theorem behind the shorter check: the definition's shadow
    clause never fires, and every failure is a union or an interpolation
    failure that the library names first, too."""
    rng = random.Random(23)
    census = Counter()
    for _ in range(600):
        spec = random_amalgam(rng)
        want = oracle.check_strong_amalgam(spec)
        assert check_strong_amalgam(spec) == want
        census[None if want is None else want.clause] += 1
        census["shadow clause"] += \
            oracle.amalgam_shadow_failure(spec) is not None
    assert census[None] >= 100 and census["interpolation"] >= 100
    assert census["union"] >= 10 and census["shadow clause"] == 0


def random_bounded_poset(rng: random.Random) -> FinitePoset:
    k = rng.randint(1, 6)
    p = rng.random()
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)
             if rng.random() < p]
    pairs += [("0", i) for i in range(k)] + [(i, "1") for i in range(k)]
    if rng.random() < 0.2:              # an extra maximal element: no top
        pairs.append((rng.randrange(k), "x"))
        return FinitePoset.from_relation(["0", *range(k), "1", "x"], pairs)
    return FinitePoset.from_relation(["0", *range(k), "1"], pairs)


def test_birkhoff_count_agrees_with_triple_scan():
    """Distributivity by Birkhoff's count and zero-distributivity by one
    join per element agree with the triple scans, the latter also on the
    first failing triple; complete normality by the pair test agrees
    with the exhaustive pair search, also on the first failing pair; the
    prime ideals, taken at meet-irreducibles, agree with the scan over
    all down-sets."""
    rng = random.Random(20261018)
    lattices = non_distributive = non_zero_distributive = 0
    normal = Counter()          # (distributive, completely normal)
    while lattices < 10_000:
        P = random_bounded_poset(rng)
        err = raised(FiniteDistributiveLattice, P, check_distributive=False)
        try:
            join, meet, _, _ = oracle.lattice_tables(
                P, check_distributive=False)
        except InputError as exc:
            assert err == (InputError, str(exc))
            continue
        assert err is None
        D = FiniteDistributiveLattice(P, check_distributive=False)
        lattices += 1
        assert [list(r) for r in D._join] == join
        assert [list(r) for r in D._meet] == meet
        failure = oracle.distributivity_failure(D.elements, join, meet)
        assert D.is_distributive == (failure is None)
        non_distributive += failure is not None
        zd = oracle.zero_distributivity_failure(D.elements, join, meet,
                                                D._bot)
        assert is_zero_distributive(D) == (zd is None, zd)
        non_zero_distributive += zd is not None
        cn = oracle.is_completely_normal(D)
        assert is_completely_normal(D) == cn
        normal[D.is_distributive, cn[0]] += 1
        mine, theirs = prime_ideal_poset(D), oracle.prime_ideal_poset(D)
        assert mine.ideals == theirs.ideals
        assert mine.poset == theirs.poset
    # each kind occurs often enough for the agreement to mean something
    assert 1_000 < non_distributive < 9_000
    assert 1_000 < non_zero_distributive < non_distributive
    assert len(normal) == 4 and min(normal.values()) > 400


# ---------------------------------------------------------------------------
# Deviations and adjustment
# ---------------------------------------------------------------------------

def random_map(rng, M, D):
    return {(x, y): rng.choice(D.elements)
            for x in M.elements for y in M.elements}


def random_deviation(rng, D):
    """A deviation drawn pair by pair: for each x and each earlier y a
    random pair of values above x∖y and y∖x that meet in 0 (D must be
    completely normal)."""
    least, els = search_deviation(D), D.elements
    d = {(x, x): D.bottom for x in els}
    for i, x in enumerate(els):
        for y in els[:i]:
            d[(x, y)], d[(y, x)] = rng.choice([
                (u, v) for u in els if D.leq(least[(x, y)], u)
                for v in els if D.leq(least[(y, x)], v)
                if D.meet(u, v) == D.bottom])
    return d


def perturbed(rng, D, d):
    """d with one entry replaced by another element."""
    out = dict(d)
    pair = rng.choice(list(d))
    out[pair] = rng.choice([v for v in D.elements if v != d[pair]])
    return out


def non_distributive_lattices(count: int) -> list:
    """N5, M3 and seeded random bounded lattices that are not
    distributive."""
    rng = random.Random(20261019)
    out = [n5(), m3()]
    while len(out) < count:
        P = random_bounded_poset(rng)
        try:
            D = FiniteDistributiveLattice(P, check_distributive=False)
        except InputError:          # not a lattice
            continue
        if not D.is_distributive:
            out.append(D)
    return out


def property_cases():
    """(D, d, kind): total maps on which the property sweeps name every
    kind of first counterexample.  On the corpus: random maps, the first
    enumerated deviations, monotone adjustments of random deviations
    along random orders (the shape the ``adjust`` benchmark item checks:
    isotone and antitone, mostly not Cevian), and single-entry
    perturbations of both; random maps on non-distributive lattices."""
    rng = random.Random(31)
    for D in CORPUS:
        for _ in range(3):
            yield D, random_map(rng, D.poset, D), "random"
        if not is_completely_normal(D)[0]:
            continue
        for d in enumerate_deviations(D, 3):
            yield D, d, "enumerated"
            for _ in range(3 if len(D) > 1 else 0):
                yield D, perturbed(rng, D, d), "perturbed"
        for _ in range(2):
            order = list(D.elements)
            rng.shuffle(order)
            d = monotone_adjustment(D.poset, D, random_deviation(rng, D),
                                    order).d_prime
            yield D, d, "adjusted"
            if len(D) > 1:
                yield D, perturbed(rng, D, d), "perturbed"
    for D in non_distributive_lattices(40):
        for _ in range(3):
            yield D, random_map(rng, D.poset, D), "non-distributive"


def test_deviation_verdicts_match_oracle():
    """Verdicts and whole property reports, first counterexamples
    included, against the oracle's triple scans."""
    seen = Counter()            # maps per kind, and per kind and failure
    for D, d, kind in property_cases():
        assert check_deviation(D, d) == oracle.check_deviation(D, d)
        # the property sweeps apply to any total map
        rep = deviation_properties(D, d)
        assert rep == oracle.deviation_properties(D, d)
        seen[kind] += 1
        for prop in ("left_isotone", "right_antitone", "cevian"):
            seen[kind, prop] += not getattr(rep, prop)
    # every fallback scan names counterexamples on perturbed deviations
    # and on random maps of both kinds of lattice; adjusted maps are
    # monotone, and most are not Cevian
    for kind in ("random", "perturbed", "non-distributive"):
        for prop in ("left_isotone", "right_antitone", "cevian"):
            assert seen[kind, prop] > seen[kind] // 10, (kind, prop)
    assert seen["adjusted", "left_isotone"] == 0
    assert seen["adjusted", "right_antitone"] == 0
    assert seen["adjusted", "cevian"] > seen["adjusted"] // 2
    assert seen["enumerated", "cevian"] < seen["enumerated"]


def test_deviation_input_errors_match_oracle():
    D = CORPUS[-1]
    d = enumerate_deviations(D, 1)[0]
    partial = dict(d)
    del partial[(D.elements[1], D.elements[0])]
    outside = dict(d)
    outside[(D.elements[0], D.elements[1])] = "nowhere"
    for bad in (partial, outside):
        err = raised(check_deviation, D, bad)
        assert err == raised(oracle.check_deviation, D, bad)
        assert err[0] is InputError


def oracle_search(D, mono, cev):
    for d in oracle.solutions(D, mono, cev):
        rep = oracle.deviation_properties(D, d)
        assert oracle.check_deviation(D, d) is None
        assert (rep.monotone or not mono) and (rep.cevian or not cev)
        return d
    return None


def test_search_order_matches_oracle():
    for D in CORPUS:
        found = search_deviation(D)
        assert found == oracle_search(D, False, False)
        if found is None:
            continue
        theirs = []
        for d in oracle.solutions(D, False, False):
            theirs.append(d)
            if len(theirs) == 4:
                break
        mine = enumerate_deviations(D, 4)
        assert mine == theirs
        # insertion order of the returned maps is the pair order too
        assert [list(d) for d in mine] == [list(d) for d in theirs]
        for mono, cev in ((True, False), (False, True), (True, True)):
            assert search_deviation(D, mono, cev) == \
                oracle_search(D, mono, cev)


def adjustment_cases():
    """(M, D, d, enumeration) on every fourth corpus lattice."""
    rng = random.Random(47)
    cases = []
    for D in CORPUS[::4]:
        M = random_poset(rng, rng.randint(1, 5), 0.4)
        cases.append((M, D, random_map(rng, M, D)))
        if is_completely_normal(D)[0]:
            cases.append((D.poset, D, search_deviation(D)))
    out = []
    for M, D, d in cases:
        order = list(M.elements)
        rng.shuffle(order)
        out.append((M, D, d, order))
    return out


@pytest.mark.parametrize("use_shadows", [False, True],
                         ids=["naive", "shadows"])
def test_adjustment_matches_oracle(use_shadows):
    for M, D, d, order in adjustment_cases():
        mine = monotone_adjustment(M, D, d, order, use_shadows=use_shadows)
        theirs = oracle.monotone_adjustment(M, D, d, order,
                                            use_shadows=use_shadows)
        assert mine == theirs
        assert list(mine.d_prime) == list(theirs.d_prime)
        assert list(mine.trace) == list(theirs.trace)
        # both paths give the same map
        assert mine.d_prime == oracle.monotone_adjustment(M, D, d,
                                                          order).d_prime


def test_adjustment_input_errors_match_oracle():
    """A missing pair, a value outside the lattice, and both with the
    outside value first in canonical order: the same first fault as the
    oracle, also in the deviation checks; a read-only view of a map
    adjusts as the map does."""
    D = CORPUS[10]
    M = D.poset
    d = random_map(random.Random(5), M, D)
    partial = dict(d)
    del partial[(M.elements[-1], M.elements[0])]
    outside = dict(d)
    outside[(M.elements[0], M.elements[1])] = "nowhere"
    both = dict(partial)
    both[(M.elements[0], M.elements[1])] = "nowhere"
    for bad in (partial, outside, both):
        for order in (list(M.elements), list(M.elements)[:-1]):
            err = raised(monotone_adjustment, M, D, bad, order)
            assert err == raised(oracle.monotone_adjustment, M, D, bad, order)
            assert err[0] is InputError
        # one validator: adjustment and the deviation checks share it
        assert raised(monotone_adjustment, M, D, bad, M.elements) == \
            raised(check_deviation, D, bad)
    assert "outside" in raised(monotone_adjustment, M, D, both, M.elements)[1]
    for bad in (outside, both):
        err = raised(check_deviation, D, bad)
        assert err == raised(oracle.check_deviation, D, bad)
        assert err == raised(deviation_properties, D, bad)
        assert err[0] is InputError and "outside" in err[1]
    order = list(M.elements)[::-1]
    for use_shadows in (False, True):
        mine = monotone_adjustment(M, D, d, order, use_shadows=use_shadows)
        view = monotone_adjustment(M, D, MappingProxyType(d), order,
                                   use_shadows=use_shadows)
        assert view.d_prime == mine.d_prime
        assert list(view.trace.items()) == list(mine.trace.items())
