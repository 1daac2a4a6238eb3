"""Finite distributive lattices with bottom.

Lattices are built either from an explicit order or as the lattice of
down-sets of a poset (elements are tuples of member ids, join is union,
meet is intersection, bottom is the empty down-set).  Either way the
join/meet tables are index tables filled in O(n²) from the up-/down-set
bitmasks of the order: the join of i and j is the element whose up-set
is ``up[i] & up[j]``, when there is one.  Down-set lattices of hundreds
of elements build in well under a second.

Distributivity is decided by Birkhoff's representation theorem: a finite
lattice L is distributive iff it has as many elements as the lattice of
down-sets of its join-irreducibles.  The same theorem gives the prime
ideals: they are the principal ideals ↓m whose complement is a filter,
and m is then meet-irreducible.
Complete normality is decided pair by pair by ``_normal_pair``, which
deviation search shares.
The distributivity check can be switched off to admit non-distributive
tables as negative fixtures for the zero-distributivity test; deviation
search and the monotone adjustment reject such lattices.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ContractError, InputError, ResourceLimitError
from .posets import (ElementId, FinitePoset, bits, canonical_key,
                     down_set_masks)

# Most elements ``lattice_from_downsets`` builds.  Tables are n×n and
# masks n bits, so 4,096 elements take about 11 s and 540 MB on a 2-vCPU
# host, and an antichain of k ids asks for 2^k.
MAX_LATTICE_ELEMENTS = 4096


class FiniteDistributiveLattice:
    """A finite lattice with least element, join/meet given by tables.

    ``_join``/``_meet`` are tables over canonical positions and
    ``_bot``/``_top`` are positions; the id methods (``join``, ``meet``,
    ``leq``) translate at the boundary.  ``_irr`` is the mask of the
    join-irreducibles, ``_birkhoff[x]`` the mask of those below x, and
    ``_from_birkhoff`` maps such a mask back to its position.  These
    tables and the ``is_distributive`` verdict are computed once, with
    the lattice.
    """

    __slots__ = ("poset", "elements", "bottom", "top", "_join", "_meet",
                 "_bot", "_top", "_irr", "_birkhoff", "_from_birkhoff",
                 "_distributive")

    def __init__(self, poset: FinitePoset, check_distributive: bool = True):
        n = len(poset)
        if n == 0:
            raise InputError("a lattice needs at least one element")
        self.poset = poset
        self.elements = poset.elements
        els, up, down = poset.elements, poset._up, poset._down
        by_up = {m: k for k, m in enumerate(up)}
        by_down = {m: k for k, m in enumerate(down)}
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        # tables are symmetric, and the first failing pair in row-major
        # order always has i <= j
        for i in range(n):
            ui, di = up[i], down[i]
            for j in range(i, n):
                k = by_up.get(ui & up[j])
                if k is None:
                    raise InputError(
                        f"no least upper bound for {els[i]!r}, {els[j]!r}")
                join[i][j] = join[j][i] = k
                k = by_down.get(di & down[j])
                if k is None:
                    raise InputError(
                        f"no greatest lower bound for {els[i]!r}, {els[j]!r}")
                meet[i][j] = meet[j][i] = k
        self._join = tuple(map(tuple, join))
        self._meet = tuple(map(tuple, meet))
        # every pair has a meet, so the meet of all elements is the
        # least element: its up-set is everything
        full = (1 << n) - 1
        self._bot = by_up[full]
        self._top = by_down[full]
        self.bottom = els[self._bot]
        self.top = els[self._top]
        # Birkhoff's count: every element is the join of the
        # join-irreducibles below it, so x -> J(L) ∩ ↓x embeds L into the
        # down-sets O(J(L)); L is distributive iff that is onto, i.e. iff
        # O(J(L)) (counted up to |L| + 1) has |L| elements.  The masks
        # J(L) ∩ ↓x are kept: in a distributive lattice a meet is their
        # AND and a join their OR.
        self._irr = sum(1 << p for p in _one_cover(down))
        self._birkhoff = bk = tuple(dx & self._irr for dx in down)
        self._from_birkhoff = {b: x for x, b in enumerate(bk)}
        below = {p: bk[p] ^ 1 << p for p in bits(self._irr)}
        self._distributive = len(down_set_masks(below, limit=n)) == n
        if check_distributive and not self._distributive:
            raise InputError("lattice is not distributive at "
                             f"{self._distributivity_failure()!r}")

    def _distributivity_failure(self) -> Optional[tuple]:
        """The first triple (x, y, z) in canonical order with
        x∧(y∨z) != (x∧y)∨(x∧z), or None."""
        jn, mt = self._join, self._meet
        return _first_triple(self, lambda i, j, k:
                             mt[i][jn[j][k]] != jn[mt[i][j]][mt[i][k]])

    @property
    def is_distributive(self) -> bool:
        """Birkhoff's count, taken once in the constructor."""
        return self._distributive

    def idx(self, x: ElementId) -> int:
        return self.poset.index(x)

    def leq(self, a: ElementId, b: ElementId) -> bool:
        return self.poset.leq(a, b)

    def join(self, a: ElementId, b: ElementId) -> ElementId:
        return self.elements[self._join[self.idx(a)][self.idx(b)]]

    def meet(self, a: ElementId, b: ElementId) -> ElementId:
        return self.elements[self._meet[self.idx(a)][self.idx(b)]]

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteDistributiveLattice({len(self.elements)} elements)"


def _one_cover(cones) -> list:
    """The positions x whose strict cone, ``cones[x]`` minus x, is itself
    a cone.  On down-set masks these are the elements with exactly one
    lower cover (the join-irreducibles), on up-set masks those with
    exactly one upper cover (the meet-irreducibles)."""
    principal = set(cones)
    return [x for x, c in enumerate(cones) if c & ~(1 << x) in principal]


def _first_triple(D: FiniteDistributiveLattice, fails) -> Optional[tuple]:
    """The first triple of ids (x, y, z) in canonical order whose
    positions satisfy ``fails``, or None."""
    els, N = D.elements, range(len(D))
    return next(((els[i], els[j], els[k]) for i in N for j in N for k in N
                 if fails(i, j, k)), None)


def chain_lattice(n: int) -> FiniteDistributiveLattice:
    return FiniteDistributiveLattice(FinitePoset.chain(n))


def lattice_from_downsets(J: FinitePoset) -> FiniteDistributiveLattice:
    """The distributive lattice of down-sets of J, ordered by inclusion.

    Element ids are tuples of member ids in J's canonical order, so the
    bottom is the empty tuple.  Raises ResourceLimitError, before any
    table is built, when J has more than ``MAX_LATTICE_ELEMENTS``
    down-sets.
    """
    downs = down_set_masks({i: d & ~(1 << i) for i, d in enumerate(J._down)},
                           limit=MAX_LATTICE_ELEMENTS)
    if len(downs) > MAX_LATTICE_ELEMENTS:
        raise ResourceLimitError(f"the down-set lattice has more than "
                                 f"{MAX_LATTICE_ELEMENTS} elements")
    downs.sort(key=canonical_key)
    # containing[j]: the down-sets that contain element j of J
    containing = [0] * len(J)
    for k, S in enumerate(downs):
        for j in bits(S):
            containing[j] |= 1 << k
    everything = (1 << len(downs)) - 1
    up = []
    for S in downs:
        u = everything
        for j in bits(S):
            u &= containing[j]
        up.append(u)
    ids = [tuple(J._members(S)) for S in downs]
    return FiniteDistributiveLattice(FinitePoset._from_up(ids, up))


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def is_zero_distributive(D: FiniteDistributiveLattice) -> tuple:
    """Whether x∧z = y∧z = 0 always implies (x∨y)∧z = 0.

    Returns (True, None) or (False, (x, y, z)) for the first failing
    triple in canonical order.  For each z the elements disjoint from z
    form a down-set, so they are closed under joins iff their join is
    disjoint from z: one pass over the meet table, in any finite
    lattice.  Only after a failure does a triple scan name the triple.
    """
    n, bot = len(D), D._bot
    jn, mt = D._join, D._meet
    for z in range(n):
        acc, row = bot, mt[z]
        for x in range(n):
            if row[x] == bot:
                acc = jn[acc][x]
        if row[acc] != bot:
            triple = _first_triple(D, lambda i, j, k: (
                mt[i][k] == bot and mt[j][k] == bot
                and mt[jn[i][j]][k] != bot))
            if triple is None:
                raise ContractError(
                    f"the elements disjoint from {D.elements[z]!r} are "
                    "not closed under joins, yet no triple fails")
            return (False, triple)
    return (True, None)


def is_completely_normal(D: FiniteDistributiveLattice) -> tuple:
    """Whether every pair a, b admits x, y with
    a∨b = a∨y = x∨b and x∧y = 0.

    Returns (True, None) or (False, (a, b)) for the first pair with no
    such x, y.  The condition is symmetric and comparable pairs always
    succeed (take x or y to be 0), so only incomparable a < b are tried.
    """
    n, up, down = len(D), D.poset._up, D.poset._down
    for a in range(n):
        for b in bits(~(up[a] | down[a]) & ((1 << n) - (2 << a))):
            if not _normal_pair(D, a, b):
                return (False, (D.elements[a], D.elements[b]))
    return (True, None)


def _normal_pair(D: FiniteDistributiveLattice, a: int, b: int) -> bool:
    """Whether some x, y satisfy a∨b = a∨y = x∨b and x∧y = 0 (positions).

    On a distributive lattice x = a∖b and y = b∖a, the least candidates,
    are tried first.  True needs a witness checked on the tables and
    False an exhaustive scan, so the verdict is exact on any lattice.
    """
    jn, mt, bot = D._join, D._meet, D._bot
    top = jn[a][b]
    if D._distributive:
        bk, x, y = D._birkhoff, 0, 0
        u, v = bk[a] & ~bk[b], bk[b] & ~bk[a]
        while u:                # x, y: the down-closures of u, v in J
            x |= bk[u.bit_length() - 1]
            u &= ~x
        while v:
            y |= bk[v.bit_length() - 1]
            v &= ~y
        x, y = D._from_birkhoff[x], D._from_birkhoff[y]
        if jn[a][y] == top == jn[x][b] and mt[x][y] == bot:
            return True
    xs = [x for x, t in enumerate(jn[b]) if t == top]
    ys = [y for y, t in enumerate(jn[a]) if t == top]
    return any(mt[x][y] == bot for x in xs for y in ys)


# ---------------------------------------------------------------------------
# Prime ideals
# ---------------------------------------------------------------------------

class PrimeIdealPoset(NamedTuple):
    """Prime ideals of a lattice, ordered by inclusion.

    ``poset`` has one element per prime ideal; its id is the tuple of
    ideal members in the host lattice's canonical order.
    """
    ideals: tuple          # tuple of frozensets
    poset: FinitePoset


def prime_ideal_poset(D: FiniteDistributiveLattice) -> PrimeIdealPoset:
    """All prime ideals of D: nonempty proper down-sets closed under join
    such that x∧y ∈ I implies x ∈ I or y ∈ I.

    In a finite lattice every ideal is principal, and ↓m is prime iff its
    complement is closed under meets, i.e. contains its own meet.  Only a
    meet-irreducible m (one upper cover) qualifies: m = a∧b with a, b > m
    puts m below the meet of the complement.  This holds in any finite
    lattice, distributive or not.  Ideals are listed by (size, canonical
    members)."""
    down, mt = D.poset._down, D._meet
    full = (1 << len(D)) - 1
    primes = []
    for m in _one_cover(D.poset._up):
        outside = full & ~down[m]
        acc = D._top
        for x in bits(outside):
            acc = mt[acc][x]
        if outside >> acc & 1:
            primes.append(down[m])
    primes.sort(key=canonical_key)
    members = [D.poset._members(S) for S in primes]
    up = [sum(1 << b for b, Sb in enumerate(primes) if not Sa & ~Sb)
          for Sa in primes]
    return PrimeIdealPoset(tuple(map(frozenset, members)),
                           FinitePoset._from_up(map(tuple, members), up))


def is_root_system(p) -> tuple:
    """Whether every principal up-set of the poset is a chain.

    Accepts a FinitePoset or a PrimeIdealPoset.  Returns (True, None) or
    (False, x) for the first element whose up-set contains an
    incomparable pair.
    """
    P = p.poset if isinstance(p, PrimeIdealPoset) else p
    for x, ux in enumerate(P._up):
        for a in bits(ux):
            if ux & ~(P._up[a] | P._down[a]):
                return (False, P.elements[x])
    return (True, None)
