"""Finite posets with shadows, separability witnesses, and strong amalgams.

Conventions used throughout:

* Element ids are opaque hashable values (strings, ints, tuples).  The
  *canonical order* of a poset is the order in which its elements were
  declared; every deterministic tiebreak (seed selection, intra-block
  ordering, candidate enumeration elsewhere in the package) refers to
  canonical positions.
* A *lower shadow* of ``x`` on a subset ``A`` is a subset ``U`` of ``A``
  with ``A ∩ ↓x = A ∩ ↓U``; upper shadows are defined dually.  On a
  finite poset the inclusion-smallest lower shadow is
  ``Max(A ∩ ↓x)`` and the smallest upper shadow is ``Min(A ∩ ↑x)``.
* An order is checked once, where it enters the library:
  ``FinitePoset(...)``, ``from_relation`` and ``antichain``.  Orders the
  library builds itself are stored from their masks by ``_from_up``.
* A *separability witness* is a pair of maps ``(A, B)`` assigning to each
  element a finite set of upper bounds (``A``) and lower bounds (``B``)
  such that ``x <= y`` implies ``A(x) ∩ B(y) != ∅``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InputError, _Frozen

ElementId = Hashable


def bits(mask: int) -> list:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _extremes(cone: Sequence[int], mask: int) -> int:
    """The members i of ``mask`` whose ``cone[i]`` meets ``mask`` in i
    alone: the maximal ones for up-sets, the minimal ones for down-sets.
    Walks the low bits in place, without listing them."""
    out, rest = 0, mask
    while rest:
        low = rest & -rest
        if cone[low.bit_length() - 1] & mask == low:
            out |= low
        rest ^= low
    return out


def down_set_masks(below: Mapping[int, int],
                   limit: Optional[int] = None) -> list:
    """All down-sets, as bitmasks, of the order on the keys of ``below``
    in which ``below[i]`` is the mask of the elements strictly below i.

    The keys are taken along a linear extension (fewer elements below
    first); each key i doubles the down-sets found so far that hold all
    of ``below[i]``, by adding i to them.  Without ``limit`` the list
    holds every down-set once.  With ``limit`` it stops after the first
    key that takes the count past ``limit``, so it holds more than
    ``limit`` masks (at most twice as many) exactly when there are more
    than ``limit`` down-sets.
    """
    found = [0]
    for i in sorted(below, key=lambda i: below[i].bit_count()):
        b, bit = below[i], 1 << i
        found += [X | bit for X in found if X & b == b]
        if limit is not None and len(found) > limit:
            break
    return found


def canonical_key(mask: int) -> tuple:
    """Sort key (size, members in canonical order) of a subset mask."""
    return (mask.bit_count(), bits(mask))


class FinitePoset:
    """An immutable finite partial order.

    ``relation`` is any set of pairs ``(a, b)`` meaning ``a <= b``; the
    reflexive closure is added automatically, but the relation as given
    must already be transitive and antisymmetric.  Use
    :meth:`from_relation` to close an arbitrary acyclic relation.

    Internally element i (its canonical position) has the bitmasks
    ``_up[i]`` (bit j set iff i <= j) and ``_down[i]`` (bit j set iff
    j <= i); ids are translated to positions only at the public API.
    """

    __slots__ = ("elements", "_idx", "_up", "_down")

    def __init__(self, elements: Sequence[ElementId], relation: Iterable[tuple]):
        self._init(elements, relation)

    @classmethod
    def from_relation(cls, elements: Sequence[ElementId],
                      pairs: Iterable[tuple]) -> "FinitePoset":
        """Build a poset from generating pairs, taking the reflexive-transitive
        closure first.  Raises :class:`InputError` if the closure has a cycle
        through distinct elements."""
        P = cls.__new__(cls)
        P._init(elements, pairs, close=True)
        return P

    @classmethod
    def _from_up(cls, elements: Sequence[ElementId],
                 up: Sequence[int]) -> "FinitePoset":
        """The poset whose element i has up-set mask ``up[i]``, stored
        unchecked: the ids must be distinct and ``up`` an order that the
        library built itself.  Outside input goes through ``_init``."""
        P = cls.__new__(cls)
        P._store(tuple(elements), tuple(up))
        return P

    def _init(self, elements, relation, close: bool = False) -> None:
        """Check outside input: distinct ids, and a relation on them that
        is antisymmetric.  Transitivity is checked only for a relation
        taken as given; with ``close``, Warshall's closure is transitive
        by construction."""
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise InputError("duplicate element ids")
        idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in relation:
            if a not in idx or b not in idx:
                raise InputError(f"relation mentions unknown element: {(a, b)!r}")
            up[idx[a]] |= 1 << idx[b]
        if close:  # Warshall
            for k in range(n):
                bit, uk = 1 << k, up[k]
                for i in range(n):
                    if up[i] & bit:
                        up[i] |= uk
        for i in range(n):
            for j in bits(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise InputError(f"antisymmetry fails at "
                                     f"{elements[i]!r}, {elements[j]!r}")
        if not close:
            for i, ui in enumerate(up):
                for j in bits(ui):
                    extra = up[j] & ~ui
                    if extra:
                        k = bits(extra)[0]
                        raise InputError(
                            "relation is not transitive: "
                            f"{elements[i]!r} <= {elements[j]!r} <= "
                            f"{elements[k]!r}")
        self._store(elements, tuple(up))

    def _store(self, elements: tuple, up: tuple) -> None:
        self.elements, self._up = elements, up
        self._idx = {e: i for i, e in enumerate(elements)}
        down = [0] * len(up)
        for i, u in enumerate(up):
            for j in bits(u):
                down[j] |= 1 << i
        self._down = tuple(down)

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        """The chain 0 < 1 < ... < n-1 on integer ids."""
        return cls._from_up(range(n), [-1 << i & ((1 << n) - 1)
                                       for i in range(n)])

    @classmethod
    def antichain(cls, ids: Sequence[ElementId]) -> "FinitePoset":
        return cls(ids, [])

    # -- translation between ids and positions ------------------------------

    def index(self, x: ElementId) -> int:
        try:
            return self._idx[x]
        except KeyError:
            raise InputError(f"unknown element: {x!r}") from None

    def _mask(self, xs: Iterable[ElementId]) -> int:
        m = 0
        for x in xs:
            m |= 1 << self.index(x)
        return m

    def _members(self, mask: int) -> list:
        """The elements of a mask, in canonical order."""
        els = self.elements
        return [els[i] for i in bits(mask)]

    def _max(self, mask: int) -> int:
        """The maximal elements of a mask."""
        return _extremes(self._up, mask)

    def _min(self, mask: int) -> int:
        """The minimal elements of a mask."""
        return _extremes(self._down, mask)

    def _prefix_shadows(self, seq: Sequence[int]) -> list:
        """Per position of an enumeration (given as element positions), the
        masks of the minimal upper and lower shadows on its strict prefix."""
        out = []
        prefix = 0
        for c in seq:
            out.append((self._min(prefix & self._up[c]),
                        self._max(prefix & self._down[c])))
            prefix |= 1 << c
        return out

    # -- order queries -----------------------------------------------------

    def __contains__(self, x) -> bool:
        return x in self._idx

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinitePoset)
                and self.elements == other.elements
                and self._up == other._up)

    def __hash__(self) -> int:
        return hash((self.elements, self._up))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements)"

    def leq(self, a: ElementId, b: ElementId) -> bool:
        return self._up[self.index(a)] >> self.index(b) & 1 == 1

    def down_set(self, A: Iterable[ElementId]) -> frozenset:
        """All x with x <= a for some a in A."""
        m = 0
        for a in A:
            m |= self._down[self.index(a)]
        return frozenset(self._members(m))

    def up_set(self, A: Iterable[ElementId]) -> frozenset:
        m = 0
        for a in A:
            m |= self._up[self.index(a)]
        return frozenset(self._members(m))

    def covers(self) -> list:
        """Cover pairs (a, b) with a < b and nothing strictly between: the
        minimal elements b of the strict up-set of a."""
        els = self.elements
        return [(els[i], els[j]) for i, ui in enumerate(self._up)
                for j in bits(self._min(ui & ~(1 << i)))]

    # -- constructions -----------------------------------------------------

    def dual(self) -> "FinitePoset":
        return FinitePoset._from_up(self.elements, self._down)

    def product(self, other: "FinitePoset") -> "FinitePoset":
        """Componentwise order on pairs; elements are tuples."""
        k = len(other)
        els = [(a, b) for a in self.elements for b in other.elements]
        up = [sum(1 << (i2 * k + j2) for i2 in bits(ui) for j2 in bits(uj))
              for ui in self._up for uj in other._up]
        return FinitePoset._from_up(els, up)

    def with_top(self, top: ElementId) -> "FinitePoset":
        if top in self._idx:
            raise InputError(f"id {top!r} already present")
        t = 1 << len(self)
        return FinitePoset._from_up(self.elements + (top,),
                                    [u | t for u in self._up] + [t])

    def with_bottom(self, bottom: ElementId) -> "FinitePoset":
        if bottom in self._idx:
            raise InputError(f"id {bottom!r} already present")
        return FinitePoset._from_up((bottom,) + self.elements,
                                    [(2 << len(self)) - 1]
                                    + [u << 1 for u in self._up])

    def restrict(self, subset: Iterable[ElementId]) -> "FinitePoset":
        """Induced subposet, keeping the canonical element order."""
        sub = self._mask(set(subset))
        bit = {i: 1 << k for k, i in enumerate(bits(sub))}   # new positions
        return FinitePoset._from_up(self._members(sub), [
            sum(bit[j] for j in bits(self._up[i] & sub)) for i in bit])

    def is_order_convex(self, subset: Iterable[ElementId]) -> bool:
        sub = self._mask(set(subset))
        return not any(self._down[c] & sub and self._up[c] & sub
                       for c in bits(~sub & ((1 << len(self)) - 1)))


# ---------------------------------------------------------------------------
# Shadows
# ---------------------------------------------------------------------------

def shadow(P: FinitePoset, A: Iterable[ElementId], x: ElementId,
           kind: str) -> frozenset:
    """The inclusion-smallest lower/upper shadow of ``x`` on ``A``.

    ``kind`` is ``"lower"`` (returns ``Max(A ∩ ↓x)``) or ``"upper"``
    (returns ``Min(A ∩ ↑x)``).
    """
    A = P._mask(set(A))
    i = P.index(x)
    if kind == "lower":
        return frozenset(P._members(P._max(A & P._down[i])))
    if kind == "upper":
        return frozenset(P._members(P._min(A & P._up[i])))
    raise InputError(f"kind must be 'lower' or 'upper', got {kind!r}")


# ---------------------------------------------------------------------------
# Separability witnesses
# ---------------------------------------------------------------------------

class SeparabilityWitness(NamedTuple):
    """Maps A (finite upper-bound sets) and B (finite lower-bound sets)."""
    A: Mapping[ElementId, frozenset]
    B: Mapping[ElementId, frozenset]

    @classmethod
    def full(cls, P: FinitePoset) -> "SeparabilityWitness":
        """A(x) = all upper bounds, B(x) = all lower bounds; a witness on
        every finite poset (x itself lies in A(x) ∩ B(y) when x <= y)."""
        return cls({x: P.up_set([x]) for x in P.elements},
                   {x: P.down_set([x]) for x in P.elements})


class WitnessViolation(NamedTuple):
    kind: str          # "upper_bound" | "lower_bound" | "intersection"
    data: tuple        # offending (element, member) or pair (x, y)


def check_separability_witness(P: FinitePoset,
                               W: SeparabilityWitness) -> Optional[WitnessViolation]:
    """None if W is a separability witness for P, else the first violation.

    Scan order: bound clauses element by element, then the intersection
    clause over strictly comparable pairs in canonical order, then over
    reflexive pairs.
    """
    els = P.elements
    A, B = [], []
    for i, z in enumerate(els):
        if z not in W.A or z not in W.B:
            raise InputError(f"witness maps not total: missing {z!r}")
        a = P._mask(W.A[z])
        if a & ~P._up[i]:
            return WitnessViolation(
                "upper_bound", (z, P._members(a & ~P._up[i])[0]))
        b = P._mask(W.B[z])
        if b & ~P._down[i]:
            return WitnessViolation(
                "lower_bound", (z, P._members(b & ~P._down[i])[0]))
        A.append(a)
        B.append(b)
    for i, ui in enumerate(P._up):
        for j in bits(ui & ~(1 << i)):
            if not A[i] & B[j]:
                return WitnessViolation("intersection", (els[i], els[j]))
    for i in range(len(els)):
        if not A[i] & B[i]:
            return WitnessViolation("intersection", (els[i], els[i]))
    return None


def is_separability_witness(P: FinitePoset, W: SeparabilityWitness) -> bool:
    return check_separability_witness(P, W) is None


def check_enumeration(P: FinitePoset, order: Sequence[ElementId]) -> tuple:
    order = tuple(order)
    if sorted(map(P.index, order)) != list(range(len(P))):
        raise InputError("enumeration must list every element exactly once")
    return order


def prefix_shadows(P: FinitePoset, enumeration: Sequence[ElementId]) -> dict:
    """Minimal upper/lower shadows of each element on its strict prefix:
    {x: (upper, lower)} as frozensets, in enumeration order."""
    order = check_enumeration(P, enumeration)
    seq = [P.index(x) for x in order]
    return {x: (frozenset(P._members(U)), frozenset(P._members(V)))
            for x, (U, V) in zip(order, P._prefix_shadows(seq))}


def witness_from_order(P: FinitePoset,
                       order: Sequence[ElementId]) -> SeparabilityWitness:
    """Separability witness built along an enumeration.

    Processing elements c in enumeration order, with U_c / V_c the minimal
    upper / lower shadows of c on its strict prefix:

        A(c) = {c} ∪ ⋃ { A(u) : u ∈ U_c }
        B(c) = {c} ∪ ⋃ { B(v) : v ∈ V_c }

    The result satisfies: x ∈ A(y) ∪ B(y) implies x comes no later than y
    in the enumeration.
    """
    seq = [P.index(x) for x in check_enumeration(P, order)]
    A = [0] * len(P)
    B = [0] * len(P)
    for c, (U, V) in zip(seq, P._prefix_shadows(seq)):
        A[c] = 1 << c
        for u in bits(U):
            A[c] |= A[u]
        B[c] = 1 << c
        for v in bits(V):
            B[c] |= B[v]
    els = P.elements
    return SeparabilityWitness(
        {els[c]: frozenset(P._members(A[c])) for c in seq},
        {els[c]: frozenset(P._members(B[c])) for c in seq})


class OrderFromWitnessResult(NamedTuple):
    """Enumeration assembled from a witness, with its block structure and,
    per element, the minimal shadows on that element's strict prefix."""
    enumeration: tuple
    blocks: tuple
    prefix_shadows: Mapping[ElementId, tuple]  # x -> (upper, lower) frozensets


def order_from_witness(P: FinitePoset,
                       W: SeparabilityWitness) -> OrderFromWitnessResult:
    """Enumerate P in block order.

    Blocks are built greedily: the seed is the canonically-least element
    not yet covered; its block is the closure of the seed under
    z -> A(z) ∪ B(z), minus earlier blocks.  Elements inside a block are
    listed in canonical order.
    """
    v = check_separability_witness(P, W)
    if v is not None:
        raise InputError(f"invalid witness: {v.kind} at {v.data!r}")
    reach = [P._mask(W.A[z] | W.B[z]) for z in P.elements]
    covered = 0
    blocks = []
    for seed in range(len(P)):
        if covered >> seed & 1:
            continue
        block = 1 << seed
        frontier = [seed]
        while frontier:
            new = reach[frontier.pop()] & ~covered & ~block
            block |= new
            frontier += bits(new)
        blocks.append(tuple(P._members(block)))
        covered |= block
    enumeration = tuple(x for block in blocks for x in block)
    return OrderFromWitnessResult(enumeration, tuple(blocks),
                                  prefix_shadows(P, enumeration))


# ---------------------------------------------------------------------------
# Locally finite set maps
# ---------------------------------------------------------------------------

def locally_finite_closure(P: FinitePoset, C: Mapping[ElementId, Iterable],
                           X: Iterable[ElementId]) -> frozenset:
    """⋃_{x∈X} C^ω(x): close X under the set map C (x itself included)."""
    for x, ys in C.items():
        P.index(x)
        for y in ys:
            P.index(y)
    seen = set()
    frontier = [x for x in X]
    for x in frontier:
        P.index(x)
    while frontier:
        x = frontier.pop()
        if x in seen:
            continue
        seen.add(x)
        for y in C.get(x, ()):
            if y not in seen:
                frontier.append(y)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Strong amalgams
# ---------------------------------------------------------------------------

class StrongAmalgamSpec(_Frozen):
    """A carrier poset, an index poset, and a family mapping each index
    element to a subset of the carrier (total on the index)."""
    __slots__ = _fields = ("carrier", "index", "family")

    def __init__(self, carrier: FinitePoset, index: FinitePoset,
                 family: Mapping[ElementId, frozenset]):
        for p in index.elements:
            if p not in family:
                raise InputError(f"family not total on index: missing {p!r}")
        for p, block in family.items():
            index.index(p)
            for x in block:
                if x not in carrier:
                    raise InputError(
                        f"family member {x!r} of block {p!r} not in carrier")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "family", family)


class AmalgamViolation(NamedTuple):
    clause: str        # "union" | "interpolation"
    data: tuple


def check_strong_amalgam(spec: StrongAmalgamSpec) -> Optional[AmalgamViolation]:
    """None if spec is a strong amalgam, else the first failing clause.

    Checks, in order: (1) the family covers the carrier; (2)
    interpolation: x in M_p, y in M_q, x <= y imply x <= z <= y for some
    z in a block M_r with r <= p, q.  The definition's shadow condition
    cannot fail on a finite carrier (each member of M_p ∩ ↑x lies above a
    minimal one, and dually), nor can interpolation for comparable p <= q
    (take r = p, z = x; dually r = q, z = y), so the scan runs over
    incomparable index pairs only, in row-major order.
    """
    M, P = spec.carrier, spec.index
    F = [M._mask(spec.family[p]) for p in P.elements]
    union = 0
    for block in F:
        union |= block
    missing = M._members(~union & ((1 << len(M)) - 1))
    if missing:
        return AmalgamViolation("union", (missing[0],))
    up, down = M._up, M._down
    ps, everything = P.elements, (1 << len(P)) - 1
    for i in range(len(P)):
        for j in bits(everything & ~(P._up[i] | P._down[i])):
            between = 0
            for r in bits(P._down[i] & P._down[j]):
                between |= F[r]
            for x in bits(F[i]):
                for y in bits(F[j] & up[x]):
                    if not between & up[x] & down[y]:
                        return AmalgamViolation(
                            "interpolation", (ps[i], ps[j], M.elements[x],
                                              M.elements[y]))
    return None


def witness_from_amalgam(spec: StrongAmalgamSpec,
                         per_block: Mapping[ElementId, SeparabilityWitness],
                         nu: Mapping[ElementId, ElementId]) -> SeparabilityWitness:
    """Assemble a witness for the whole carrier from per-block witnesses.

    For each carrier element x, with p ranging over index elements below
    nu(x) and U_{x,p} / V_{x,p} the minimal upper / lower shadows of x on
    the block M_p:

        A(x) = ⋃ { A_p(u) : p <= nu(x), u ∈ U_{x,p} }
        B(x) = ⋃ { B_p(v) : p <= nu(x), v ∈ V_{x,p} }
    """
    v = check_strong_amalgam(spec)
    if v is not None:
        raise InputError(f"not a strong amalgam: {v.clause} at {v.data!r}")
    M, P, fam = spec.carrier, spec.index, spec.family
    for p in P.elements:
        if p not in per_block:
            raise InputError(f"missing block witness for {p!r}")
        bv = check_separability_witness(M.restrict(fam[p]), per_block[p])
        if bv is not None:
            raise InputError(
                f"invalid block witness at {p!r}: {bv.kind} {bv.data!r}")
    for x in M.elements:
        if x not in nu:
            raise InputError(f"nu not total: missing {x!r}")
        if nu[x] not in fam or x not in fam[nu[x]]:
            raise InputError(f"inconsistent nu: {x!r} not in block {nu[x]!r}")
    F = {p: M._mask(fam[p]) for p in P.elements}
    A: dict = {}
    B: dict = {}
    for i, x in enumerate(M.elements):
        ax: set = set()
        bx: set = set()
        for p in P._members(P._down[P.index(nu[x])]):
            for u in M._members(M._min(F[p] & M._up[i])):
                ax |= per_block[p].A[u]
            for w in M._members(M._max(F[p] & M._down[i])):
                bx |= per_block[p].B[w]
        A[x] = frozenset(ax)
        B[x] = frozenset(bx)
    return SeparabilityWitness(A, B)


# ---------------------------------------------------------------------------
# Witness transformers
# ---------------------------------------------------------------------------

def witness_transform(kind: str, *args):
    """Closure properties of separability witnesses.

    Returns a ``(poset, witness)`` pair for the transformed poset.

    kinds:
      * ``dual``:            args = (P, W); swaps A and B on the dual poset.
      * ``product``:         args = (P1, W1, P2, W2); elements are pairs and
                             the maps are coordinatewise cartesian products.
      * ``add_top``:         args = (P, W, top_id); A(x) gains the new top.
      * ``add_bottom``:      args = (P, W, bottom_id); B(x) gains the bottom.
      * ``convex_restrict``: args = (P, W, subset); intersects both maps with
                             an order-convex subset.

    Raises :class:`InputError` on an unknown kind, a wrong number of
    arguments, or a witness whose maps are not total on its poset.
    """
    arity = {"dual": 2, "product": 4, "add_top": 3, "add_bottom": 3,
             "convex_restrict": 3}.get(kind)
    if arity is None:
        raise InputError(f"unknown transform kind: {kind!r}")
    if len(args) != arity:
        raise InputError(f"{kind} takes {arity} arguments, got {len(args)}")
    for P, W in [args[:2], args[2:]] if kind == "product" else [args[:2]]:
        for z in P.elements:
            if z not in W.A or z not in W.B:
                raise InputError(f"witness maps not total: missing {z!r}")
    if kind == "dual":
        P, W = args
        return P.dual(), SeparabilityWitness(dict(W.B), dict(W.A))
    if kind == "product":
        P1, W1, P2, W2 = args
        Q = P1.product(P2)
        A = {(x, y): frozenset((a, b) for a in W1.A[x] for b in W2.A[y])
             for x in P1.elements for y in P2.elements}
        B = {(x, y): frozenset((a, b) for a in W1.B[x] for b in W2.B[y])
             for x in P1.elements for y in P2.elements}
        return Q, SeparabilityWitness(A, B)
    if kind == "add_top":
        P, W, top = args
        Q = P.with_top(top)
        A = {x: W.A[x] | {top} for x in P.elements}
        A[top] = frozenset([top])
        B = {x: W.B[x] for x in P.elements}
        B[top] = frozenset([top])
        return Q, SeparabilityWitness(A, B)
    if kind == "add_bottom":
        P, W, bottom = args
        Q = P.with_bottom(bottom)
        A = {x: W.A[x] for x in P.elements}
        A[bottom] = frozenset([bottom])
        B = {x: W.B[x] | {bottom} for x in P.elements}
        B[bottom] = frozenset([bottom])
        return Q, SeparabilityWitness(A, B)
    P, W, subset = args                 # convex_restrict
    sub = frozenset(subset)
    if not P.is_order_convex(sub):
        raise InputError("subset is not order-convex")
    Q = P.restrict(sub)
    A = {x: W.A[x] & sub for x in Q.elements}
    B = {x: W.B[x] & sub for x in Q.elements}
    return Q, SeparabilityWitness(A, B)
