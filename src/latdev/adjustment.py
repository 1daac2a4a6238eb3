"""Monotone adjustment of a binary map along an enumeration.

Given a poset M, a distributive lattice D, a total map d: M×M -> D and an
enumeration of M (written ⊑ below), the *pair ordering* ⊴ compares the
one- and two-element subsets of M first by ⊑-maximum, then by ⊑-minimum.
Processing unordered pairs {a,b} in ⊴-ascending order, the adjustment
d' is defined by d'(a,b) = d'∧(a,b) ∨ d'∨(a,b) with

    d'∧(a,b) = d(a,b) ∧ ⋀ { d'(x,y) : {x,y} ⊴-below {a,b}, a <= x, y <= b }
    d'∨(a,b) =          ⋁ { d'(x,y) : {x,y} ⊴-below {a,b}, x <= a, b <= y }

(an empty meet leaves d'∧(a,b) = d(a,b); an empty join contributes the
lattice bottom).  The result is monotone — isotone in the first and
antitone in the second argument — and equals d iff d was already
monotone.  It depends on the chosen enumeration.

The default evaluation sweeps all ⊴-smaller pairs.  The shadow-based
path replaces the index sets by finite coinitial/cofinal subsets built
from the minimal shadows of a and b on their strict ⊑-prefixes; both
paths produce identical maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from .errors import ContractError, InputError
from .lattices import FiniteDistributiveLattice
from .posets import ElementId, FinitePoset, bits, check_enumeration


class PairOrderContext:
    """Total order ⊴ on the one- and two-element subsets of the base."""

    def __init__(self, base: Sequence[ElementId]):
        self.base = tuple(base)
        self.pos = {e: i for i, e in enumerate(self.base)}
        if len(self.pos) != len(self.base):
            raise InputError("base enumeration has duplicates")

    def key(self, s) -> tuple:
        """Sort key of a one- or two-element subset: (⊑-max, ⊑-min)."""
        ps = [self.pos[x] for x in s]
        if not 1 <= len(ps) <= 2:
            raise InputError("pair sets must have one or two elements")
        return (max(ps), min(ps))

    def blocks_ascending(self) -> list:
        """All unordered pairs (incl. singletons) in ⊴-ascending order,
        as (a, b) tuples with a ⊑ b.

        Generating b by ⊑-position and then a up to b yields the keys
        (⊑-max, ⊑-min) already in ascending order.
        """
        return [(a, b) for j, b in enumerate(self.base)
                for a in self.base[:j + 1]]


def pair_leq(ctx: PairOrderContext, s, t) -> bool:
    """s ⊴ t for one- or two-element subsets of the base."""
    s, t = set(s), set(t)
    for x in s | t:
        if x not in ctx.pos:
            raise InputError(f"element {x!r} not in base enumeration")
    return ctx.key(s) <= ctx.key(t)


@dataclass(frozen=True)
class TraceEntry:
    base_value: ElementId       # d(a,b)
    meetands: tuple             # index pairs (x,y) whose d' entered the meet
    joinands: tuple             # index pairs (x,y) whose d' entered the join


@dataclass(frozen=True)
class AdjustmentResult:
    d_prime: Mapping[Tuple[ElementId, ElementId], ElementId]
    trace: Mapping[Tuple[ElementId, ElementId], TraceEntry]


def prefix_shadows(M: FinitePoset, enumeration: Sequence[ElementId]) -> dict:
    """Minimal upper/lower shadows of each element on its strict prefix."""
    order = check_enumeration(M, enumeration)
    seq = [M.index(x) for x in order]
    return {x: (frozenset(M._members(U)), frozenset(M._members(V)))
            for x, (U, V) in zip(order, M._prefix_shadows(seq))}


def _shadow_bound_keys(shads: Sequence, m: int, a: int, b: int) -> tuple:
    """The pairs, as flat positions x*m + y in M × M, whose d' values
    make up the coinitial and the cofinal set of the pair (a, b).

    ``shads[x]`` is (U_x, V_x) as ascending positions; see
    :func:`finitary_bounds`.
    """
    U_a, V_a = shads[a]
    U_b, V_b = shads[b]
    return ([x * m + b for x in U_a] + [a * m + y for y in V_b],
            [x * m + b for x in V_a] + [a * m + y for y in U_b])


def finitary_bounds(ctx: PairOrderContext, M: FinitePoset, shadows: Mapping,
                    d_prime_partial: Mapping, a: ElementId,
                    b: ElementId) -> tuple:
    """Finite coinitial/cofinal value sets replacing the full sweeps.

    With U_x / V_x the minimal upper/lower shadows of x on its strict
    prefix, returns

        A' = { d'(x,b) : x ∈ U_a } ∪ { d'(a,y) : y ∈ V_b }
        B' = { d'(x,b) : x ∈ V_a } ∪ { d'(a,y) : y ∈ U_b }

    The meet of A' equals the meet of the full meetand set and the join
    of B' equals the join of the full joinand set, provided d' is already
    monotone on all strictly ⊴-smaller pairs.
    """
    m, els = len(M), M.elements
    shads = {M.index(x): tuple(sorted(map(M.index, s)) for s in shadows[x])
             for x in (a, b)}
    meet_ks, join_ks = _shadow_bound_keys(shads, m, M.index(a), M.index(b))

    def fetch(k):
        pair = (els[k // m], els[k % m])
        if pair not in d_prime_partial:
            raise ContractError(f"pair {pair!r} not yet decided")
        return d_prime_partial[pair]

    return tuple(map(fetch, meet_ks)), tuple(map(fetch, join_ks))


def monotone_adjustment(M: FinitePoset, D: FiniteDistributiveLattice,
                        d: Mapping, enumeration: Sequence[ElementId],
                        use_shadows: bool = False) -> AdjustmentResult:
    """The monotone adjustment of d along the given enumeration of M."""
    order = check_enumeration(M, enumeration)
    m = len(M)
    lat = D.poset._idx
    base = []                   # d as lattice positions, flat over M × M
    for x in M.elements:
        for y in M.elements:
            if (x, y) not in d:
                raise InputError(f"map not total: missing {(x, y)!r}")
            if d[(x, y)] not in lat:
                raise InputError(f"value {d[(x, y)]!r} outside lattice")
            base.append(lat[d[(x, y)]])
    seq = [M.index(x) for x in order]
    if use_shadows:
        shads = [None] * m
        for c, s in zip(seq, M._prefix_shadows(seq)):
            shads[c] = tuple(map(bits, s))
    # the ordered pairs in decision order: the blocks {a, b} with a ⊑ b in
    # ⊴-ascending order, (a, b) before (b, a); starts[r] is the rank of
    # the first pair of rank r's block
    ordered, starts = [], []
    for a, b in PairOrderContext(seq).blocks_ascending():
        starts.append(len(ordered))
        ordered.append(a * m + b)
        if a != b:
            starts.append(starts[-1])
            ordered.append(b * m + a)
    if not use_shadows:
        # rows[x] / cols[y]: decision ranks of the pairs (x, _) / (_, y);
        # the meetands of (a, b) are the decided ranks in the rows of ↑a
        # and the columns of ↓b, the joinands those of ↓a and ↑b
        rows, cols = [0] * m, [0] * m
        for r, k in enumerate(ordered):
            rows[k // m] |= 1 << r
            cols[k % m] |= 1 << r

        def spread(lines, sets):
            out = []
            for s in sets:
                acc = 0
                for x in bits(s):
                    acc |= lines[x]
                out.append(acc)
            return out

        rows_up, rows_down = spread(rows, M._up), spread(rows, M._down)
        cols_up, cols_down = spread(cols, M._up), spread(cols, M._down)
    els = M.elements
    pair_ids = [(x, y) for x in els for y in els]
    jn, mt = D._join, D._meet
    dp = [0] * (m * m)          # d' as lattice positions
    d_prime: dict = {}
    trace: dict = {}
    for r, ab in enumerate(ordered):
        a, b = divmod(ab, m)
        if use_shadows:
            meet_ks, join_ks = _shadow_bound_keys(shads, m, a, b)
        else:
            done = (1 << starts[r]) - 1     # ranks of the earlier blocks
            meet_ks = [ordered[s] for s in
                       bits(rows_up[a] & cols_down[b] & done)]
            join_ks = [ordered[s] for s in
                       bits(rows_down[a] & cols_up[b] & done)]
        meet_val = base[ab]
        for k in meet_ks:
            meet_val = mt[meet_val][dp[k]]
        join_val = D._bot
        for k in join_ks:
            join_val = jn[join_val][dp[k]]
        dp[ab] = jn[meet_val][join_val]
        pair = pair_ids[ab]
        d_prime[pair] = D.elements[dp[ab]]
        trace[pair] = TraceEntry(d[pair],
                                 tuple(pair_ids[k] for k in meet_ks),
                                 tuple(pair_ids[k] for k in join_ks))
    return AdjustmentResult(d_prime, trace)
