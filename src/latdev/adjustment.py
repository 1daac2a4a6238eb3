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

The definition's index sets run over all ⊴-smaller pairs.  As d' is
monotone on those pairs, the sets may be replaced by finite
coinitial/cofinal subsets built from the minimal shadows of a and b on
their strict ⊑-prefixes (Freese–Nation finite separability): the keys
of ``_shadow_bound_keys``.

D must be distributive (InputError otherwise, as for deviation search):
each value is computed as its Birkhoff mask, the set of join-irreducibles
below it, so a meet is an AND and a join an OR.  Both paths compute d'
by one fold of these few operands into each pair's mask, in place;
``use_shadows`` chooses only what the trace lists.  The trace is decoded
on read.  On the shadow path an entry lists the fold's operands,
rebuilt with ``_shadow_bound_keys``.  On the naive path it lists the
definition's meetands and joinands straight from the index sets above:
the pairs of ↑a × ↓b and of ↓a × ↑b ranked before the block {a, b},
sorted by rank.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple, Sequence, Tuple

from .deviations import _table
from .errors import InputError
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
        for x in s:
            if x not in self.pos:
                raise InputError(f"element {x!r} not in base enumeration")
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
    return ctx.key(set(s)) <= ctx.key(set(t))


class TraceEntry(NamedTuple):
    base_value: ElementId       # d(a,b)
    meetands: tuple             # index pairs (x,y) whose d' entered the meet
    joinands: tuple             # index pairs (x,y) whose d' entered the join


class AdjustmentTrace(Mapping):
    """Read-only {(a, b): TraceEntry} in decision order.

    Keeps only what rebuilds an entry: ``entry(r)`` decodes the entry
    of the pair of decision rank r when it is read.
    """

    __slots__ = ("_idx", "_m", "_decided", "_rank", "_entry")

    def __init__(self, M: FinitePoset, decided: list, rank: list, entry):
        self._idx, self._m = M._idx, len(M)
        self._decided = decided     # rank -> (x, y)
        self._rank = rank           # flat position x*m + y -> rank
        self._entry = entry

    def _rank_of(self, pair) -> int:
        if isinstance(pair, tuple) and len(pair) == 2:
            x, y = pair
            if x in self._idx and y in self._idx:
                return self._rank[self._idx[x] * self._m + self._idx[y]]
        raise KeyError(pair)

    def __getitem__(self, pair) -> TraceEntry:
        return self._entry(self._rank_of(pair))

    def __contains__(self, pair) -> bool:
        try:
            self._rank_of(pair)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return iter(self._decided)

    def __len__(self) -> int:
        return len(self._decided)

    def __repr__(self) -> str:
        return f"AdjustmentTrace({len(self)} entries)"


class AdjustmentResult(NamedTuple):
    d_prime: Mapping[Tuple[ElementId, ElementId], ElementId]
    trace: Mapping[Tuple[ElementId, ElementId], TraceEntry]


def _shadow_bound_keys(shads: Sequence, m: int, a: int, b: int) -> tuple:
    """The pairs, as flat positions x*m + y in M × M, whose d' values
    make up the coinitial and the cofinal set of the pair (a, b):

        A' = { d'(x,b) : x ∈ U_a } ∪ { d'(a,y) : y ∈ V_b }
        B' = { d'(x,b) : x ∈ V_a } ∪ { d'(a,y) : y ∈ U_b }

    ``shads[x]`` is (U_x, V_x), the minimal upper/lower shadows of x on
    its strict prefix, as ascending positions.  The meet of A' equals the
    meet of the full meetand set and the join of B' the join of the full
    joinand set, provided d' is already monotone on all strictly
    ⊴-smaller pairs.
    """
    U_a, V_a = shads[a]
    U_b, V_b = shads[b]
    return ([x * m + b for x in U_a] + [a * m + y for y in V_b],
            [x * m + b for x in V_a] + [a * m + y for y in U_b])


def monotone_adjustment(M: FinitePoset, D: FiniteDistributiveLattice,
                        d: Mapping, enumeration: Sequence[ElementId],
                        use_shadows: bool = False) -> AdjustmentResult:
    """The monotone adjustment of d along the given enumeration of M.

    D must be distributive (InputError otherwise): values are computed
    on their Birkhoff masks by the shadow fold, on both paths.
    ``use_shadows`` selects the trace: the fold's operands, or the
    definition's meetands and joinands.  The trace is decoded on read.
    """
    if not D.is_distributive:
        raise InputError("monotone adjustment needs a distributive lattice")
    order = check_enumeration(M, enumeration)
    els, bk = D.elements, D._birkhoff
    t = _table(M, D.poset, d)   # d, flat over M × M, as positions
    dp = [bk[i] for i in t]     # d, then d', as Birkhoff masks
    m = len(M)
    pairs = [(x, y) for x in M.elements for y in M.elements]
    at_pair = pairs.__getitem__
    seq = [M.index(x) for x in order]
    # the ordered pairs in decision order: the blocks {a, b} with a ⊑ b in
    # ⊴-ascending order, (a, b) before (b, a); rank is the inverse
    ordered = []
    for a, b in PairOrderContext(seq).blocks_ascending():
        ordered += (a * m + b, b * m + a) if a != b else (a * m + b,)
    rank = [0] * (m * m)
    for r, ab in enumerate(ordered):
        rank[ab] = r
    decided = list(map(at_pair, ordered))
    shads = [None] * m
    for c, s in zip(seq, M._prefix_shadows(seq)):
        shads[c] = tuple(map(bits, s))
    # per element c, the row offsets x*m of U_c and of V_c
    offs = [([x * m for x in U], [x * m for x in V]) for U, V in shads]
    # the operands of _shadow_bound_keys, folded in place
    for ab in ordered:
        a, b = divmod(ab, m)
        am = ab - b
        U_a, V_a = offs[a]
        U_b, V_b = shads[b]
        v = dp[ab]
        for xm in U_a:
            v &= dp[xm + b]
        for y in V_b:
            v &= dp[am + y]
        for xm in V_a:
            v |= dp[xm + b]
        for y in U_b:
            v |= dp[am + y]
        dp[ab] = v
    if use_shadows:
        def entry(r):
            ab = ordered[r]
            meet_ks, join_ks = _shadow_bound_keys(shads, m, *divmod(ab, m))
            return TraceEntry(els[t[ab]], tuple(map(at_pair, meet_ks)),
                              tuple(map(at_pair, join_ks)))
    else:
        at_rank = decided.__getitem__

        def earlier(xs, ys, done):
            """The pairs of xs × ys (masks) decided before rank done, in
            decision order."""
            ys = bits(ys)
            ranks = (rank[x * m + y] for x in bits(xs) for y in ys)
            return tuple(map(at_rank, sorted(q for q in ranks if q < done)))

        def entry(r):
            ab = ordered[r]
            a, b = divmod(ab, m)
            # the ranks of the earlier blocks: those below both orientations
            done = min(r, rank[b * m + a])
            return TraceEntry(els[t[ab]], earlier(M._up[a], M._down[b], done),
                              earlier(M._down[a], M._up[b], done))

    pos = D._from_birkhoff
    d_prime = {pair: els[pos[dp[ab]]] for pair, ab in zip(decided, ordered)}
    return AdjustmentResult(d_prime, AdjustmentTrace(M, decided, rank, entry))
