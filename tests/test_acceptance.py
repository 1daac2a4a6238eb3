"""Acceptance suite.

One test per criterion; each prints a single PASS line (visible with
``pytest -s`` / ``-rP``) and enforces the stated runtime where one is
pinned.  All randomized corpora are seed-pinned.
"""

import random
import time
from fractions import Fraction

import pytest

from latdev.adjustment import monotone_adjustment
from latdev.deviations import (check_deviation, deviation_properties,
                               search_deviation)
from latdev.lattices import (FiniteDistributiveLattice, chain_lattice,
                             is_completely_normal, is_root_system,
                             lattice_from_downsets, prime_ideal_poset)
from latdev.posets import (FinitePoset, StrongAmalgamSpec,
                           check_strong_amalgam, is_separability_witness,
                           witness_from_amalgam, witness_from_order)
from latdev.semilinear import (includes, is_empty, lower_shadow_set,
                               same_set, upper_shadow_set)
from latdev.vlterms import (cevian_dev, check_cevian_triple, cozero_set,
                            ideal_join, ideal_leq, linearize, noiso_probe,
                            pseudocomplement_probe, random_term)
from latdev.semilinear import intersect

from conftest import (all_posets, random_point, random_poset,
                      random_semilinear)
from oracle_orders import is_completely_normal as oracle_normal, join_all
from oracle_vlterms import is_empty_set


def report(num, label, t0, extra=""):
    dt = time.time() - t0
    print(f"\nACCEPTANCE {num} [{label}]: PASS ({dt:.2f}s){extra}")


# -- corpus shared by criteria 2-4 ------------------------------------------

@pytest.fixture(scope="module")
def downset_corpus():
    return [lattice_from_downsets(P) for P in all_posets(4)]


# -- corpus shared by criteria 7-8 ------------------------------------------

@pytest.fixture(scope="module")
def semilinear_corpus():
    rng = random.Random(708)
    out = []
    for _ in range(200):
        n = rng.randint(1, 3)
        out.append((random_semilinear(rng, n), n))
    return out


def test_criterion_01_complete_normality_fixtures():
    t0 = time.time()
    square = lattice_from_downsets(FinitePoset.antichain(["p", "q"]))
    assert is_completely_normal(square) == (True, None)
    for n in range(1, 7):
        assert is_completely_normal(chain_lattice(n)) == (True, None)
    ncn = lattice_from_downsets(
        FinitePoset(["c", "a", "b"], [("c", "a"), ("c", "b")]))
    ok, pair = is_completely_normal(ncn)
    assert not ok and set(pair) == {("c", "a"), ("c", "b")}
    assert time.time() - t0 < 1.0
    report(1, "complete-normality fixtures", t0)


def test_criterion_02_monteiro_cross_validation(downset_corpus):
    t0 = time.time()
    disagreements = 0
    for D in downset_corpus:
        cn, _ = is_completely_normal(D)
        rs, _ = is_root_system(prime_ideal_poset(D))
        if cn != rs:
            disagreements += 1
    assert disagreements == 0
    assert time.time() - t0 < 30.0
    report(2, "Monteiro cross-validation", t0,
           f" [{len(downset_corpus)} lattices]")


def test_criterion_03_deviation_iff(downset_corpus):
    t0 = time.time()
    for D in downset_corpus:
        found = search_deviation(D) is not None
        assert found == is_completely_normal(D)[0]
    report(3, "deviation existence iff complete normality", t0,
           f" [{len(downset_corpus)} lattices]")


def _block_solutions(D):
    els = D.elements
    sols = {}
    for i, x in enumerate(els):
        for y in els[i:]:
            if x == y:
                sols[(x, y)] = [(D.bottom, D.bottom)]
                continue
            us = [u for u in els if D.leq(x, D.join(y, u))]
            vs = [v for v in els if D.leq(y, D.join(x, v))]
            sols[(x, y)] = [(u, v) for u in us for v in vs
                            if D.meet(u, v) == D.bottom]
    return sols


def _random_deviation(rng, sols):
    d = {}
    for (x, y), pairs in sols.items():
        u, v = rng.choice(pairs)
        d[(x, y)] = u
        d[(y, x)] = v
    return d


def test_criterion_04_monotone_deviation_after_adjustment(downset_corpus):
    t0 = time.time()
    rng = random.Random(404)
    failures = 0
    cn_count = 0
    for D in downset_corpus:
        if not is_completely_normal(D)[0]:
            continue
        cn_count += 1
        sols = _block_solutions(D)
        for _ in range(50):
            d = _random_deviation(rng, sols)
            order = list(D.elements)
            rng.shuffle(order)
            res = monotone_adjustment(D.poset, D, d, order)
            if check_deviation(D, res.d_prime) is not None:
                failures += 1
                continue
            if not deviation_properties(D, res.d_prime).monotone:
                failures += 1
    assert failures == 0
    assert time.time() - t0 < 300.0
    report(4, "adjustment yields monotone deviations", t0,
           f" [{cn_count} lattices x 50 deviations]")


def _random_downset_lattice(rng):
    return lattice_from_downsets(random_poset(rng, rng.randint(0, 3)))


def test_criterion_05_isotone_and_disjointness_preservation():
    t0 = time.time()
    rng = random.Random(505)
    for _ in range(250):
        # isotone-section preservation
        M = random_poset(rng, rng.randint(1, 6), 0.4)
        D = _random_downset_lattice(rng)
        g = {x: rng.choice(D.elements) for x in M.elements}
        f = {x: join_all(D, (g[y] for y in M.elements if M.leq(y, x)))
             for x in M.elements}
        d = {}
        for x in M.elements:
            for y in M.elements:
                gap = next(c for c in D.elements
                           if D.leq(f[x], D.join(f[y], c)))
                d[(x, y)] = D.join(rng.choice(D.elements), gap)
        assert all(D.leq(f[x], D.join(f[y], d[(x, y)]))
                   for x in M.elements for y in M.elements)
        order = list(M.elements)
        rng.shuffle(order)
        dp = monotone_adjustment(M, D, d, order).d_prime
        for a in M.elements:
            for b in M.elements:
                assert D.leq(f[a], D.join(f[b], dp[(a, b)]))
    for _ in range(250):
        # disjointness preservation
        M = random_poset(rng, rng.randint(1, 6), 0.4)
        D = _random_downset_lattice(rng)
        d = {}
        for i, x in enumerate(M.elements):
            for y in M.elements[i:]:
                if x == y:
                    d[(x, x)] = D.bottom
                    continue
                while True:
                    u = rng.choice(D.elements)
                    v = rng.choice(D.elements)
                    if D.meet(u, v) == D.bottom:
                        break
                d[(x, y)], d[(y, x)] = u, v
        order = list(M.elements)
        rng.shuffle(order)
        dp = monotone_adjustment(M, D, d, order).d_prime
        for a in M.elements:
            for b in M.elements:
                assert D.meet(dp[(a, b)], dp[(b, a)]) == D.bottom
    report(5, "isotone-section and disjointness preservation", t0,
           " [500 instances]")


def test_criterion_06_witness_machinery():
    t0 = time.time()
    rng = random.Random(606)
    for _ in range(200):
        P = random_poset(rng, rng.randint(1, 30), rng.uniform(0.05, 0.4))
        order = list(P.elements)
        rng.shuffle(order)
        W = witness_from_order(P, order)
        assert is_separability_witness(P, W)
        pos = {x: i for i, x in enumerate(order)}
        for y in P.elements:
            for x in W.A[y] | W.B[y]:
                assert pos[x] <= pos[y]
    built = 0
    for trial in range(100):
        if trial % 5 == 4:
            # powerset-style spec over the proper subsets of a small base
            base = list(range(rng.randint(2, 3)))
            ids = []
            from itertools import combinations
            for r in range(len(base) + 1):
                ids += [tuple(sorted(c)) for c in combinations(base, r)
                        if r <= len(base) - 1 or r == 0]
            ids = sorted(set(ids), key=lambda s: (len(s), s))
            rel = [(a, b) for a in ids for b in ids if set(a) <= set(b)]
            M = FinitePoset(ids, rel)
            index = M
            fam = {X: frozenset(y for y in ids if set(y) <= set(X))
                   for X in ids}
            nu = {x: x for x in ids}
        else:
            M = random_poset(rng, rng.randint(1, 8), 0.35)
            k = rng.randint(1, 5)
            cur = set()
            fam = {}
            for p in range(k):
                room = [x for x in M.elements if x not in cur]
                if room:
                    cur |= set(rng.sample(room,
                                          rng.randint(0, len(room))))
                fam[p] = frozenset(cur)
            fam[k - 1] = frozenset(M.elements)
            index = FinitePoset.chain(k)
            nu = {x: next(p for p in range(k) if x in fam[p])
                  for x in M.elements}
        spec = StrongAmalgamSpec(M, index, fam)
        assert check_strong_amalgam(spec) is None
        wits = {}
        for p in index.elements:
            sub = M.restrict(fam[p])
            wits[p] = witness_from_order(sub, sub.elements)
        W = witness_from_amalgam(spec, wits, nu)
        assert is_separability_witness(M, W)
        built += 1
    assert built == 100
    assert time.time() - t0 < 60.0
    report(6, "witness machinery", t0, " [200 posets + 100 amalgams]")


def _random_set_on_support(rng, n, X):
    from latdev.semilinear import Cell, Constraint, GE, GT, EQ, LinearForm, \
        SemilinearSet
    cells = []
    for _ in range(rng.randint(0, 2)):
        atoms = []
        for _ in range(rng.randint(1, 2)):
            coeffs = [Fraction(0)] * n
            for i in X:
                coeffs[i] = Fraction(rng.randint(-3, 3))
            rel = rng.choices([GT, GE, EQ], weights=[9, 9, 2])[0]
            atoms.append(Constraint(
                LinearForm(tuple(coeffs), Fraction(rng.randint(-3, 3))), rel))
        cells.append(Cell.of(atoms))
    return SemilinearSet.of(n, cells)


def test_criterion_07_shadow_laws(semilinear_corpus):
    t0 = time.time()
    rng = random.Random(707)
    binding = 0
    for U, n in semilinear_corpus:
        X = [i for i in range(n) if rng.random() < 0.6]
        up = upper_shadow_set(U, X)
        lo = lower_shadow_set(U, X)
        assert includes(up, U)[0]            # U subset of U*
        assert includes(U, lo)[0]            # U_* subset of U
        assert same_set(upper_shadow_set(up, X), up)
        assert same_set(lower_shadow_set(lo, X), lo)
        for _ in range(20):
            Z = _random_set_on_support(rng, n, X)
            if includes(Z, U)[0]:
                binding += 1
                assert includes(Z, up)[0]
            if includes(U, Z)[0]:
                binding += 1
                assert includes(lo, Z)[0]
    assert time.time() - t0 < 300.0
    report(7, "shadow laws by decision procedure", t0,
           f" [200 sets; {binding} binding extremality checks]")


def test_criterion_08_decision_kernel_soundness(semilinear_corpus):
    t0 = time.time()
    rng = random.Random(808)
    samples = 0
    for idx, (U, n) in enumerate(semilinear_corpus):
        pts = [random_point(rng, n) for _ in range(50)]
        samples += len(pts)
        for c in U.cells:
            if is_empty(c):
                assert not any(c.satisfied_by(p) for p in pts)
        V, nv = semilinear_corpus[(idx + 1) % len(semilinear_corpus)]
        if nv != n:
            continue
        ok, w = includes(U, V)
        if ok:
            assert not any(V.contains(p) and not U.contains(p) for p in pts)
        else:
            assert V.contains(w) and not U.contains(w)
    assert samples == 10_000
    report(8, "decision-kernel soundness vs sampling", t0,
           f" [{samples} samples]")


def _bounded_term(rng, n, depth, cap):
    while True:
        t = random_term(rng, n, depth)
        if len(linearize(t, n).pieces) <= cap:
            return t


def test_criterion_09_cevian_property():
    t0 = time.time()
    rng = random.Random(909)
    for _ in range(200):
        n = rng.randint(1, 3)
        g = _bounded_term(rng, n, 3, 4)
        h = _bounded_term(rng, n, 3, 4)
        k = _bounded_term(rng, n, 3, 4)
        assert check_cevian_triple(g, h, k, n)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = abs(_bounded_term(rng, n, 3, 4))
        b = abs(_bounded_term(rng, n, 3, 4))
        assert ideal_leq(a, ideal_join(b, cevian_dev(a, b)), n)[0]
        assert is_empty_set(intersect(cozero_set(cevian_dev(a, b), n),
                                      cozero_set(cevian_dev(b, a), n)))
    report(9, "Cevian property and ideal-level axioms", t0,
           " [200 triples + 200 pairs]")


def test_criterion_10_noiso_anchor_and_grid():
    t0 = time.time()
    rep = noiso_probe(3, 1, 2)
    assert rep.primary.inclusion_false
    assert rep.primary.anchor_point == (Fraction(1, 2), Fraction(1))
    assert rep.primary.anchor_valid
    assert rep.reproduced
    grid = 0
    for k in range(1, 7):
        for m in range(1, 5):
            for n in range(1, 5):
                if 2 ** (k - 1) > m * n:
                    assert noiso_probe(k, m, n).reproduced
                    grid += 1
    assert time.time() - t0 < 60.0
    report(10, "inclusion-failure ladder", t0, f" [{grid} grid points]")


def test_criterion_11_pseudocomplement_probe():
    t0 = time.time()
    rng = random.Random(1111)
    terms = [random_term(rng, 3, 2) for _ in range(100)]
    for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
        rep = pseudocomplement_probe(3, 1, c, terms)
        # a counterexample here would be a research finding; it must
        # surface as a hard failure, never be suppressed
        assert rep.counterexamples == (), [
            str(e.term) for e in rep.counterexamples]
    report(11, "pseudocomplement probe", t0, " [100 terms x 3 scalars]")


def test_criterion_12_monotone_cevian_deviation_iff_completely_normal(
        downset_corpus):
    """D is completely normal iff search's map d(x,y) = x∖y is a
    monotone Cevian deviation: on the 243-lattice corpus, the down-set
    lattices of chain(k)×chain(3) for k <= 12 (455 elements at k = 12)
    and the products chain(k)×chain(3) themselves, B1-B7, and the
    down-set lattices of binary trees, root on top (completely normal)
    and root at the bottom (not).  The verdict and the first failing
    pair match the exhaustive pair search of ``oracle_orders``."""
    t0 = time.time()
    chains = [FinitePoset.from_relation(
        [(i, j) for i in range(k) for j in range(3)],
        [((i, j), (i2, j2)) for i in range(k) for j in range(3)
         for i2 in range(k) for j2 in range(3) if i <= i2 and j <= j2])
        for k in range(1, 13)]
    trees = [FinitePoset.from_relation(
        range(n), [(i, (i - 1) // 2) for i in range(1, n)])
        for n in (4, 8, 12)]
    lattices = (list(downset_corpus)
                + [lattice_from_downsets(P) for P in chains]
                + [FiniteDistributiveLattice(P) for P in chains]
                + [lattice_from_downsets(FinitePoset.antichain(range(k)))
                   for k in range(1, 8)]
                + [lattice_from_downsets(P) for P in trees]
                + [lattice_from_downsets(P.dual()) for P in trees])
    found = 0
    for D in lattices:
        d = search_deviation(D, require_monotone=True, require_cevian=True)
        cn = is_completely_normal(D)
        assert cn == oracle_normal(D)
        assert (d is not None) == cn[0]
        if d is None:
            continue
        rep = deviation_properties(D, d)
        assert check_deviation(D, d) is None
        assert rep.monotone and rep.cevian
        found += 1
    assert max(map(len, lattices)) == 455 and found > 100
    assert time.time() - t0 < 60.0
    report(12, "monotone Cevian deviation iff completely normal", t0,
           f" [{len(lattices)} lattices, {found} completely normal]")
