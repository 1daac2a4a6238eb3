"""Id-based reference implementations of the order kernel (test oracle).

These are the original element-id algorithms that the index/bitmask
kernel in ``latdev`` replaced, kept verbatim so that the differential
tests in ``test_order_kernel.py`` can compare the two:

* the relation validation of ``FinitePoset`` (antisymmetry, then
  transitivity, with the same error messages);
* the constructions that built their posets from a relation list
  through the checked constructor (``chain``, ``dual``, ``product``,
  ``with_top``, ``with_bottom``, ``restrict``, and the inclusion order
  of the prime ideals), which ``FinitePoset._from_up`` replaced with
  unchecked up-set masks;
* the least-upper-bound / greatest-lower-bound scan that built the
  join/meet tables, and the triple scans for distributivity and
  zero-distributivity;
* ``is_completely_normal`` as the search over all x, y for every
  incomparable pair, on the position tables (kept verbatim), which the
  pair test ``lattices._normal_pair`` replaced;
* ``prime_ideal_poset`` by enumeration of all down-sets;
* the down-set lattice of a poset as the inclusion relation on all
  down-sets;
* ``check_deviation``, ``deviation_properties`` and the recursive search;
* the position-based property sweeps that the meet-irreducible row
  masks of ``latdev.deviations`` replaced (``isotone_failure``,
  ``antitone_failure``, ``cevian_failure``: scans over pairs and
  triples of positions on a flat table, kept verbatim apart from their
  names);
* ``monotone_adjustment``: the naive sweep, and the shadow path with its
  id-based shadows, ⊴ block order and finitary bounds, folding values
  with ``join_all`` and ``meet_all``.
* ``check_strong_amalgam`` as its definition is written: the union
  clause, the shadow equalities for every p <= q and x ∈ M_q, and
  interpolation over all ordered index pairs.

They only use the public id API of posets and lattices (``leq``,
``join``, ``meet``), so they are slow: use them on small inputs.
``test_order_kernel.py`` checks ``leq`` itself against the ``le`` matrix
of :func:`validate_relation`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from latdev.adjustment import AdjustmentResult, TraceEntry
from latdev.deviations import DeviationViolation, PropertyReport
from latdev.errors import ContractError, InputError
from latdev.lattices import PrimeIdealPoset
from latdev.posets import (AmalgamViolation, FinitePoset, bits,
                           check_enumeration)


# ---------------------------------------------------------------------------
# Posets and lattice tables
# ---------------------------------------------------------------------------

def validate_relation(elements, relation) -> list:
    """The le matrix of a declared relation, or the InputError that
    ``FinitePoset`` raises for it."""
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise InputError("duplicate element ids")
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    le = [[False] * n for _ in range(n)]
    for i in range(n):
        le[i][i] = True
    for a, b in relation:
        if a not in idx or b not in idx:
            raise InputError(f"relation mentions unknown element: {(a, b)!r}")
        le[idx[a]][idx[b]] = True
    for i in range(n):
        for j in range(n):
            if le[i][j] and le[j][i] and i != j:
                raise InputError(
                    f"antisymmetry fails at {elements[i]!r}, {elements[j]!r}")
    for i in range(n):
        for j in range(n):
            if not le[i][j]:
                continue
            for k in range(n):
                if le[j][k] and not le[i][k]:
                    raise InputError(
                        "relation is not transitive: "
                        f"{elements[i]!r} <= {elements[j]!r} <= {elements[k]!r}")
    return le


def relation(P: FinitePoset) -> list:
    """All pairs (a, b) with a <= b, in canonical order."""
    return [(a, b) for a in P.elements for b in P.elements if P.leq(a, b)]


def chain(n: int) -> FinitePoset:
    return FinitePoset(range(n), [(i, j) for i in range(n)
                                  for j in range(i, n)])


def dual(P: FinitePoset) -> FinitePoset:
    return FinitePoset(P.elements, [(b, a) for a, b in relation(P)])


def product(P: FinitePoset, Q: FinitePoset) -> FinitePoset:
    return FinitePoset([(a, b) for a in P.elements for b in Q.elements],
                       [((a, b), (c, d)) for a, c in relation(P)
                        for b, d in relation(Q)])


def with_top(P: FinitePoset, top) -> FinitePoset:
    rel = relation(P) + [(x, top) for x in P.elements] + [(top, top)]
    return FinitePoset(P.elements + (top,), rel)


def with_bottom(P: FinitePoset, bottom) -> FinitePoset:
    rel = relation(P) + [(bottom, x) for x in P.elements]
    rel.append((bottom, bottom))
    return FinitePoset((bottom,) + P.elements, rel)


def restrict(P: FinitePoset, subset) -> FinitePoset:
    sub = set(subset)
    return FinitePoset([x for x in P.elements if x in sub],
                       [(a, b) for a, b in relation(P)
                        if a in sub and b in sub])


def inclusion_poset(ids, sets) -> FinitePoset:
    """The sets ordered by inclusion, ``ids[i]`` naming ``sets[i]``."""
    rel = [(a, b) for a, Sa in zip(ids, sets) for b, Sb in zip(ids, sets)
           if Sa <= Sb]
    return FinitePoset(ids, rel)


def lattice_tables(poset: FinitePoset, check_distributive: bool = True):
    """(join, meet, bottom, top) index tables by the LUB/GLB scan, raising
    the InputErrors of the lattice constructor."""
    n = len(poset)
    if n == 0:
        raise InputError("a lattice needs at least one element")
    els = poset.elements
    le = [[poset.leq(a, b) for b in els] for a in els]
    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ubs = [k for k in range(n) if le[i][k] and le[j][k]]
            lub = [k for k in ubs if all(le[k][m] for m in ubs)]
            if len(lub) != 1:
                raise InputError(
                    f"no least upper bound for "
                    f"{poset.elements[i]!r}, {poset.elements[j]!r}")
            join[i][j] = lub[0]
            lbs = [k for k in range(n) if le[k][i] and le[k][j]]
            glb = [k for k in lbs if all(le[m][k] for m in lbs)]
            if len(glb) != 1:
                raise InputError(
                    f"no greatest lower bound for "
                    f"{poset.elements[i]!r}, {poset.elements[j]!r}")
            meet[i][j] = glb[0]
    bottoms = [i for i in range(n) if all(le[i][j] for j in range(n))]
    if len(bottoms) != 1:
        raise InputError("no least element")
    tops = [i for i in range(n) if all(le[j][i] for j in range(n))]
    if check_distributive:
        bad = distributivity_failure(els, join, meet)
        if bad is not None:
            raise InputError(f"lattice is not distributive at {bad!r}")
    return join, meet, bottoms[0], tops[0]


def distributivity_failure(elements, jn, mt) -> Optional[tuple]:
    n = len(elements)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mt[i][jn[j][k]] != jn[mt[i][j]][mt[i][k]]:
                    return (elements[i], elements[j], elements[k])
    return None


def zero_distributivity_failure(elements, jn, mt, bot) -> Optional[tuple]:
    n = len(elements)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mt[i][k] == bot and mt[j][k] == bot \
                        and mt[jn[i][j]][k] != bot:
                    return (elements[i], elements[j], elements[k])
    return None


def is_completely_normal(D) -> tuple:
    """Whether every pair a, b admits x, y with
    a∨b = a∨y = x∨b and x∧y = 0.

    Returns (True, None) or (False, (a, b)) for the first pair with no
    such x, y.  Comparable pairs always succeed (take x or y to be 0).
    """
    n = len(D)
    up = D.poset._up
    jn, mt = D._join, D._meet
    bot = D._bot
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1 or up[j] >> i & 1:
                continue
            t = jn[i][j]
            ok = False
            for x in range(n):
                if jn[x][j] != t:
                    continue
                for y in range(n):
                    if jn[i][y] == t and mt[x][y] == bot:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return (False, (D.elements[i], D.elements[j]))
    return (True, None)


def all_down_sets(P: FinitePoset) -> list:
    """All down-sets of P as frozensets, ordered by (size, canonical members)."""
    found = {frozenset()}
    frontier = [frozenset()]
    strict_below = {
        x: {y for y in P.elements if y != x and P.leq(y, x)}
        for x in P.elements
    }
    while frontier:
        nxt = []
        for X in frontier:
            for x in P.elements:
                if x not in X and strict_below[x] <= X:
                    Y = X | {x}
                    if Y not in found:
                        found.add(Y)
                        nxt.append(Y)
        frontier = nxt
    key = {e: i for i, e in enumerate(P.elements)}
    return sorted(found, key=lambda S: (len(S), sorted(key[e] for e in S)))


def downset_lattice_relation(J: FinitePoset) -> tuple:
    """(ids, inclusion pairs) of the down-set lattice of J."""
    downs = all_down_sets(J)
    key = {e: i for i, e in enumerate(J.elements)}
    ids = [tuple(sorted(S, key=key.get)) for S in downs]
    sets = {i: S for i, S in zip(ids, downs)}
    rel = [(a, b) for a in ids for b in ids if sets[a] <= sets[b]]
    return ids, rel


def prime_ideal_poset(D) -> PrimeIdealPoset:
    """All prime ideals of D: nonempty proper down-sets closed under join
    such that x∧y ∈ I implies x ∈ I or y ∈ I."""
    els = D.elements
    primes = []
    for S in all_down_sets(D.poset):
        if not S or len(S) == len(els):
            continue
        if any(D.join(a, b) not in S for a in S for b in S):
            continue
        outside = [x for x in els if x not in S]
        if any(D.meet(a, b) in S for a in outside for b in outside):
            continue
        primes.append(S)
    key = {e: i for i, e in enumerate(els)}
    ids = [tuple(sorted(S, key=key.get)) for S in primes]
    return PrimeIdealPoset(tuple(primes), inclusion_poset(ids, primes))


# ---------------------------------------------------------------------------
# Deviations
# ---------------------------------------------------------------------------

def check_deviation(D, d) -> Optional[DeviationViolation]:
    for x in D.elements:
        for y in D.elements:
            if (x, y) not in d:
                raise InputError(f"map not total: missing pair {(x, y)!r}")
            v = d[(x, y)]
            if v not in D.poset:
                raise InputError(f"value {v!r} at {(x, y)!r} outside carrier")
    for x in D.elements:
        for y in D.elements:
            if not D.leq(x, D.join(y, d[(x, y)])):
                return DeviationViolation(1, (x, y))
            if D.meet(d[(x, y)], d[(y, x)]) != D.bottom:
                return DeviationViolation(2, (x, y))
    return None


def deviation_properties(D, d) -> PropertyReport:
    els = D.elements
    li_ce = None
    for x in els:
        for x2 in els:
            if li_ce:
                break
            if not D.leq(x, x2):
                continue
            for y in els:
                if not D.leq(d[(x, y)], d[(x2, y)]):
                    li_ce = (x, x2, y)
                    break
        if li_ce:
            break
    ra_ce = None
    for x in els:
        for y in els:
            if ra_ce:
                break
            for y2 in els:
                if D.leq(y, y2) and not D.leq(d[(x, y2)], d[(x, y)]):
                    ra_ce = (x, y, y2)
                    break
        if ra_ce:
            break
    cev_ce = None
    for x in els:
        for y in els:
            if cev_ce:
                break
            for z in els:
                if not D.leq(d[(x, z)], D.join(d[(x, y)], d[(y, z)])):
                    cev_ce = (x, y, z)
                    break
        if cev_ce:
            break
    return PropertyReport(li_ce is None, ra_ce is None, cev_ce is None,
                          li_ce, ra_ce, cev_ce)


def isotone_failure(D, t: list) -> Optional[tuple]:
    """First (x, x', y) with x <= x' and d(x,y) not<= d(x',y), or None."""
    n = len(D)
    up = D.poset._up
    return next(((x, x2, y) for x in range(n) for x2 in bits(up[x])
                 for y in range(n)
                 if not up[t[x * n + y]] >> t[x2 * n + y] & 1), None)


def antitone_failure(D, t: list) -> Optional[tuple]:
    """First (x, y, y') with y <= y' and d(x,y') not<= d(x,y), or None."""
    n = len(D)
    up = D.poset._up
    ups = [bits(m) for m in up]
    return next(((x, y, y2) for x in range(n) for y in range(n)
                 for y2 in ups[y]
                 if not up[t[x * n + y2]] >> t[x * n + y] & 1), None)


def cevian_failure(D, t: list) -> Optional[tuple]:
    """First (x, y, z) with d(x,z) not<= d(x,y) ∨ d(y,z), or None."""
    n = len(D)
    up, jn = D.poset._up, D._join
    N = range(n)
    return next(((x, y, z) for x in N for y in N for z in N
                 if not up[t[x * n + z]] >> jn[t[x * n + y]][t[y * n + z]] & 1),
                None)


def _candidates(D, x, y) -> list:
    return [c for c in D.elements if D.leq(x, D.join(y, c))]


def _block_feasible(D, x, y) -> bool:
    for u in _candidates(D, x, y):
        for v in _candidates(D, y, x):
            if D.meet(u, v) == D.bottom:
                return True
    return False


def solutions(D, require_monotone: bool,
              require_cevian: bool) -> Iterator[dict]:
    """The recursive backtracking search, yielding every table in order."""
    els = D.elements
    pairs = [(x, y) for x in els for y in els]
    for x in els:
        for y in els:
            if not _block_feasible(D, x, y):
                return

    d: dict = {}

    def consistent(x, y, c) -> bool:
        if x == y:                      # axiom 2 forces d(x,x) = c ∧ c = 0
            if c != D.bottom:
                return False
        elif (y, x) in d and D.meet(c, d[(y, x)]) != D.bottom:
            return False
        if require_monotone:
            for (p, q), v in d.items():
                if D.leq(p, x) and D.leq(y, q) and not D.leq(v, c):
                    return False
                if D.leq(x, p) and D.leq(q, y) and not D.leq(c, v):
                    return False
        if require_cevian:
            # triples all of whose pairs are decided once (x,y) is set
            for b in els:
                if (x, b) in d and (b, y) in d:
                    if not D.leq(c, D.join(d[(x, b)], d[(b, y)])):
                        return False
            for z in els:
                if (x, z) in d and (y, z) in d:
                    if not D.leq(d[(x, z)], D.join(c, d[(y, z)])):
                        return False
            for a in els:
                if (a, y) in d and (a, x) in d:
                    if not D.leq(d[(a, y)], D.join(d[(a, x)], c)):
                        return False
        return True

    def extend(k: int) -> Iterator[dict]:
        if k == len(pairs):
            yield dict(d)
            return
        x, y = pairs[k]
        for c in _candidates(D, x, y):
            if consistent(x, y, c):
                d[(x, y)] = c
                yield from extend(k + 1)
                del d[(x, y)]

    yield from extend(0)


# ---------------------------------------------------------------------------
# Adjustment
# ---------------------------------------------------------------------------

def blocks_ascending(base) -> list:
    """All unordered pairs (incl. singletons) of the enumeration ``base``
    in ⊴-ascending order, as (a, b) tuples with a ⊑ b."""
    pos = {e: i for i, e in enumerate(base)}

    def key(s):
        ps = [pos[x] for x in s]
        return (max(ps), min(ps))

    out = []
    for j, b in enumerate(base):
        for i in range(j + 1):
            out.append((base[i], b))
    out.sort(key=lambda ab: key(set(ab)))
    return out


def shadow(P, A, x, kind) -> frozenset:
    """Max(A ∩ ↓x) for ``kind`` "lower", Min(A ∩ ↑x) for "upper"."""
    if kind == "lower":
        S = {a for a in A if P.leq(a, x)}
        return frozenset(s for s in S
                         if not any(s != t and P.leq(s, t) for t in S))
    S = {a for a in A if P.leq(x, a)}
    return frozenset(s for s in S
                     if not any(t != s and P.leq(t, s) for t in S))


def prefix_shadows(M, order) -> dict:
    out = {}
    for i, x in enumerate(order):
        prefix = order[:i]
        out[x] = (shadow(M, prefix, x, "upper"),
                  shadow(M, prefix, x, "lower"))
    return out


def finitary_bounds(M, shadows, d_prime_partial, a, b) -> tuple:
    U_a, V_a = shadows[a]
    U_b, V_b = shadows[b]

    def fetch(x, y):
        if (x, y) not in d_prime_partial:
            raise ContractError(f"pair {(x, y)!r} not yet decided")
        return d_prime_partial[(x, y)]

    coinitial = (tuple(fetch(x, b) for x in sorted(U_a, key=M.index))
                 + tuple(fetch(a, y) for y in sorted(V_b, key=M.index)))
    cofinal = (tuple(fetch(x, b) for x in sorted(V_a, key=M.index))
               + tuple(fetch(a, y) for y in sorted(U_b, key=M.index)))
    return coinitial, cofinal


def join_all(D, xs):
    acc = D.bottom
    for x in xs:
        acc = D.join(acc, x)
    return acc


def meet_all(D, xs, start):
    acc = start
    for x in xs:
        acc = D.meet(acc, x)
    return acc


def monotone_adjustment(M, D, d, enumeration,
                        use_shadows: bool = False) -> AdjustmentResult:
    """The naive sweep over all ⊴-smaller decided pairs, or the shadow
    path over the finitary bounds."""
    order = check_enumeration(M, enumeration)
    for x in M.elements:
        for y in M.elements:
            if (x, y) not in d:
                raise InputError(f"map not total: missing pair {(x, y)!r}")
            v = d[(x, y)]
            if v not in D.poset:
                raise InputError(f"value {v!r} at {(x, y)!r} outside carrier")
    shads = prefix_shadows(M, order) if use_shadows else None

    d_prime: dict = {}
    trace: dict = {}
    decided: list = []          # ordered pairs, in decision order

    def settle(a, b):
        if use_shadows:
            coin, cof = finitary_bounds(M, shads, d_prime, a, b)
            meet_val = meet_all(D, coin, d[(a, b)])
            join_val = join_all(D, cof)
            U_a, V_a = shads[a]
            U_b, V_b = shads[b]
            meet_idx = (tuple((x, b) for x in sorted(U_a, key=M.index))
                        + tuple((a, y) for y in sorted(V_b, key=M.index)))
            join_idx = (tuple((x, b) for x in sorted(V_a, key=M.index))
                        + tuple((a, y) for y in sorted(U_b, key=M.index)))
        else:
            meet_idx = tuple((x, y) for (x, y) in decided
                             if M.leq(a, x) and M.leq(y, b))
            join_idx = tuple((x, y) for (x, y) in decided
                             if M.leq(x, a) and M.leq(b, y))
            meet_val = meet_all(D, (d_prime[p] for p in meet_idx),
                                d[(a, b)])
            join_val = join_all(D, (d_prime[p] for p in join_idx))
        d_prime[(a, b)] = D.join(meet_val, join_val)
        trace[(a, b)] = TraceEntry(d[(a, b)], meet_idx, join_idx)

    for (a, b) in blocks_ascending(order):
        settle(a, b)
        if a != b:
            settle(b, a)
        decided.append((a, b))
        if a != b:
            decided.append((b, a))
    return AdjustmentResult(d_prime, trace)


# ---------------------------------------------------------------------------
# Strong amalgams
# ---------------------------------------------------------------------------

def amalgam_shadow_failure(spec) -> Optional[AmalgamViolation]:
    """The definition's shadow clause: for p <= q in the index and x in
    M_q, the minimal shadows U = Min(M_p ∩ ↑x) and V = Max(M_p ∩ ↓x)
    satisfy M_p ∩ ↑x = M_p ∩ ↑U and M_p ∩ ↓x = M_p ∩ ↓V."""
    M, P, fam = spec.carrier, spec.index, spec.family
    for p in P.elements:
        A = [a for a in M.elements if a in fam[p]]
        for q in P.elements:
            if not P.leq(p, q):
                continue
            for x in M.elements:
                if x not in fam[q]:
                    continue
                above = {a for a in A if M.leq(x, a)}
                U = shadow(M, A, x, "upper")
                if above != {a for a in A if any(M.leq(u, a) for u in U)}:
                    return AmalgamViolation("shadowing", (p, q, x, "upper"))
                below = {a for a in A if M.leq(a, x)}
                V = shadow(M, A, x, "lower")
                if below != {a for a in A if any(M.leq(a, v) for v in V)}:
                    return AmalgamViolation("shadowing", (p, q, x, "lower"))
    return None


def check_strong_amalgam(spec) -> Optional[AmalgamViolation]:
    """The first failing clause of the definition, in the order union,
    shadow, interpolation; elements and index pairs in canonical order."""
    M, P, fam = spec.carrier, spec.index, spec.family
    for x in M.elements:
        if not any(x in fam[p] for p in P.elements):
            return AmalgamViolation("union", (x,))
    v = amalgam_shadow_failure(spec)
    if v is not None:
        return v
    for p in P.elements:
        for q in P.elements:
            rs = [r for r in P.elements if P.leq(r, p) and P.leq(r, q)]
            for x in M.elements:
                for y in M.elements:
                    if x not in fam[p] or y not in fam[q] or \
                            not M.leq(x, y):
                        continue
                    if not any(z in fam[r] and M.leq(x, z) and M.leq(z, y)
                               for r in rs for z in M.elements):
                        return AmalgamViolation("interpolation",
                                                (p, q, x, y))
    return None
