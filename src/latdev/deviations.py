"""Deviations on finite distributive lattices: verification, property
sweeps, and backtracking search.

A deviation is a total binary map d on the lattice with

    axiom 1:  x <= y ∨ d(x,y)          for all x, y
    axiom 2:  d(x,y) ∧ d(y,x) = 0      for all x, y

Deviations are represented as plain dicts mapping ordered id pairs to
ids of the host lattice.

Search relies on Birkhoff's representation: in a finite distributive
lattice a join-irreducible p lies below y ∨ c iff it lies below y or
below c.  So the values that axiom 1 allows at (x, y) are exactly the
filter ↑(x∖y), where x∖y = ⋁{p join-irreducible : p <= x, p not<= y},
and a mirrored pair (x, y), (y, x) has values meeting axiom 2 iff
(x∖y) ∧ (y∖x) = 0.  Search therefore requires a distributive lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .errors import ContractError, InputError, ResourceLimitError
from .lattices import FiniteDistributiveLattice
from .posets import ElementId, bits

DeviationMap = Dict[Tuple[ElementId, ElementId], ElementId]

# Most values one search or enumeration places (search nodes) before it
# stops with ResourceLimitError.  A search that never backtracks places
# n² values: 4096 on B6, 33,489 on a 183-element lattice.
MAX_SEARCH_NODES = 10 ** 6


@dataclass(frozen=True)
class DeviationViolation:
    axiom: int                 # 1 or 2
    pair: tuple


def _table(D: FiniteDistributiveLattice, d: DeviationMap) -> list:
    """d as a flat table of positions, t[i*n + j] = d(x_i, x_j), after
    checking that d is total with values in the carrier."""
    idx = D.poset._idx
    t = []
    for x in D.elements:
        for y in D.elements:
            if (x, y) not in d:
                raise InputError(f"map not total: missing pair {(x, y)!r}")
            v = d[(x, y)]
            if v not in idx:
                raise InputError(f"value {v!r} at {(x, y)!r} outside carrier")
            t.append(idx[v])
    return t


def _to_map(D: FiniteDistributiveLattice, t: list) -> DeviationMap:
    els = D.elements
    return dict(zip(((x, y) for x in els for y in els), (els[v] for v in t)))


def _violation(D: FiniteDistributiveLattice, t: list) -> Optional[tuple]:
    """(axiom, i, j) for the first violated axiom, or None."""
    n = len(D)
    up, jn, mt, bot = D.poset._up, D._join, D._meet, D._bot
    for i in range(n):
        ui, row = up[i], i * n
        for j in range(n):
            v = t[row + j]
            if not ui >> jn[j][v] & 1:
                return (1, i, j)
            if mt[v][t[j * n + i]] != bot:
                return (2, i, j)
    return None


def check_deviation(D: FiniteDistributiveLattice,
                    d: DeviationMap) -> Optional[DeviationViolation]:
    """None if d is a deviation on D, else the first violated axiom.

    Pairs are scanned in canonical order; within a pair, axiom 1 is
    checked before axiom 2.
    """
    bad = _violation(D, _table(D, d))
    if bad is None:
        return None
    axiom, i, j = bad
    return DeviationViolation(axiom, (D.elements[i], D.elements[j]))


@dataclass(frozen=True)
class PropertyReport:
    """Monotonicity/Cevian flags of a deviation, with first counterexamples.

    Counterexample shapes (canonical-order minimal):
      left_isotone:   (x, x', y)  with x <= x' but d(x,y) not<= d(x',y)
      right_antitone: (x, y, y')  with y <= y' but d(x,y') not<= d(x,y)
      cevian:         (x, y, z)   with d(x,z) not<= d(x,y) ∨ d(y,z)
    """
    left_isotone: bool
    right_antitone: bool
    cevian: bool
    left_isotone_ce: Optional[tuple] = None
    right_antitone_ce: Optional[tuple] = None
    cevian_ce: Optional[tuple] = None

    @property
    def monotone(self) -> bool:
        return self.left_isotone and self.right_antitone


def _isotone_failure(D: FiniteDistributiveLattice,
                     t: list) -> Optional[tuple]:
    """First (x, x', y) with x <= x' and d(x,y) not<= d(x',y), or None."""
    n = len(D)
    up = D.poset._up
    return next(((x, x2, y) for x in range(n) for x2 in bits(up[x])
                 for y in range(n)
                 if not up[t[x * n + y]] >> t[x2 * n + y] & 1), None)


def _antitone_failure(D: FiniteDistributiveLattice,
                      t: list) -> Optional[tuple]:
    """First (x, y, y') with y <= y' and d(x,y') not<= d(x,y), or None."""
    n = len(D)
    up = D.poset._up
    ups = [bits(m) for m in up]
    return next(((x, y, y2) for x in range(n) for y in range(n)
                 for y2 in ups[y]
                 if not up[t[x * n + y2]] >> t[x * n + y] & 1), None)


def _cevian_failure(D: FiniteDistributiveLattice,
                    t: list) -> Optional[tuple]:
    """First (x, y, z) with d(x,z) not<= d(x,y) ∨ d(y,z), or None."""
    n = len(D)
    up, jn = D.poset._up, D._join
    N = range(n)
    return next(((x, y, z) for x in N for y in N for z in N
                 if not up[t[x * n + z]] >> jn[t[x * n + y]][t[y * n + z]] & 1),
                None)


def deviation_properties(D: FiniteDistributiveLattice,
                         d: DeviationMap) -> PropertyReport:
    els, t = D.elements, _table(D, d)
    li, ra, cev = (None if ce is None else tuple(els[i] for i in ce)
                   for ce in (_isotone_failure(D, t), _antitone_failure(D, t),
                              _cevian_failure(D, t)))
    return PropertyReport(li is None, ra is None, cev is None, li, ra, cev)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def _differences(D: FiniteDistributiveLattice) -> list:
    """x∖y = ⋁{p join-irreducible : p <= x, p not<= y} for every pair of
    the distributive lattice D, as a flat position table
    dif[x*n + y].

    Elements are visited upwards.  Above 0, x has a lower cover x′, and
    its join-irreducibles are those of x′ and one more, p; so
    x∖y = (x′∖y) ∨ (p∖y), where p∖y is p or 0: one join lookup per pair.
    """
    n = len(D)
    up, down, jn, bk = D.poset._up, D.poset._down, D._join, D._birkhoff
    rank = [m.bit_count() for m in down]
    dif = [D._bot] * (n * n)
    for x in sorted(range(n), key=rank.__getitem__):
        strict = down[x] & ~(1 << x)
        if not strict:
            continue
        cover = max(bits(strict), key=rank.__getitem__)
        p = (bk[x] & ~bk[cover]).bit_length() - 1
        up_p, row, below = up[p], x * n, cover * n
        for y in range(n):
            v = dif[below + y]
            dif[row + y] = v if up_p >> y & 1 else jn[v][p]
    return dif


def _confirm_clash(D: FiniteDistributiveLattice, dif: list, x: int,
                   y: int) -> None:
    """Re-verify that no values of the pairs (x, y) and (y, x) meet both
    axioms, where (x∖y) ∧ (y∖x) != 0: every value that axiom 1 allows
    must lie above the difference, so any two allowed values meet above
    (x∖y) ∧ (y∖x)."""
    n = len(D)
    up, jn = D.poset._up, D._join
    for a, b in ((x, y), (y, x)):
        floor = up[dif[a * n + b]]
        for c in range(n):
            if up[a] >> jn[b][c] & 1 and not floor >> c & 1:
                raise ContractError(
                    f"value {D.elements[c]!r} meets axiom 1 at "
                    f"{(D.elements[a], D.elements[b])!r} but lies outside "
                    "the filter of the difference")


def _solutions(D: FiniteDistributiveLattice, require_monotone: bool,
               require_cevian: bool) -> Iterator[list]:
    """Every table passing the pruning, in search order, as flat position
    tables.

    D must be distributive (InputError otherwise).  Backtracks over
    ordered pairs in canonical order with an explicit stack; candidates
    for a pair (x, y) are the values c with x <= y ∨ c, which in a
    distributive lattice are the filter ↑(x∖y), in canonical order.  A
    mirrored pair with (x∖y) ∧ (y∖x) != 0 has no values meeting both
    axioms and ends the search before its first node, once that verdict
    is re-verified.  Placing more than ``MAX_SEARCH_NODES`` values raises
    ResourceLimitError.
    """
    if not D.is_distributive:
        raise InputError("deviation search needs a distributive lattice")
    n = len(D)
    up, down, jn, mt, bot = (D.poset._up, D.poset._down, D._join, D._meet,
                             D._bot)
    dif = _differences(D)
    for x in range(n):
        for y in range(x + 1, n):
            if mt[dif[x * n + y]][dif[y * n + x]] != bot:
                _confirm_clash(D, dif, x, y)
                return
    ups = [bits(m) for m in up]
    downs = [bits(m) for m in down]
    cands = [ups[v] for v in dif]
    tab: list = [None] * (n * n)

    def consistent(x, y, c) -> bool:
        if x == y:                      # axiom 2 forces d(x,x) = c ∧ c = 0
            if c != bot:
                return False
        else:
            r = tab[y * n + x]
            if r is not None and mt[c][r] != bot:
                return False
        if require_monotone:
            # decided (p,q) with p <= x, y <= q need d(p,q) <= c, and
            # with x <= p, q <= y need c <= d(p,q)
            dc, uc = down[c], up[c]
            for p in downs[x]:
                for q in ups[y]:
                    v = tab[p * n + q]
                    if v is not None and not dc >> v & 1:
                        return False
            for p in ups[x]:
                for q in downs[y]:
                    v = tab[p * n + q]
                    if v is not None and not uc >> v & 1:
                        return False
        if require_cevian:
            # triples all of whose pairs are decided once (x,y) is set
            uc = up[c]
            for b in range(n):
                u, w = tab[x * n + b], tab[b * n + y]
                if u is not None and w is not None and \
                        not uc >> jn[u][w] & 1:
                    return False
            for z in range(n):
                u, w = tab[x * n + z], tab[y * n + z]
                if u is not None and w is not None and \
                        not up[u] >> jn[c][w] & 1:
                    return False
            for a in range(n):
                u, w = tab[a * n + y], tab[a * n + x]
                if u is not None and w is not None and \
                        not up[u] >> jn[w][c] & 1:
                    return False
        return True

    size = n * n
    tried = [0] * (size + 1)    # next candidate position, per stack level
    k = nodes = 0
    while k >= 0:
        if k == size:
            yield list(tab)
        else:
            x, y = divmod(k, n)
            cs = cands[k]
            c = tried[k]
            while c < len(cs) and not consistent(x, y, cs[c]):
                c += 1
            if c < len(cs):
                nodes += 1
                if nodes > MAX_SEARCH_NODES:
                    raise ResourceLimitError(
                        f"deviation search placed more than "
                        f"{MAX_SEARCH_NODES} values")
                tab[k] = cs[c]
                tried[k] = c + 1
                k += 1
                tried[k] = 0
                continue
        k -= 1
        if k >= 0:
            tab[k] = None


def _verify(D, t, require_monotone, require_cevian) -> bool:
    """Whether t is a deviation with the requested properties; only the
    requested sweeps run."""
    if _violation(D, t) is not None:
        return False
    if require_monotone and (_isotone_failure(D, t) is not None
                             or _antitone_failure(D, t) is not None):
        return False
    return not require_cevian or _cevian_failure(D, t) is None


def search_deviation(D: FiniteDistributiveLattice,
                     require_monotone: bool = False,
                     require_cevian: bool = False) -> Optional[DeviationMap]:
    """First deviation in search order satisfying the requested flags,
    or None after exhaustion.

    Backtracks over ordered pairs in canonical order; candidates for a
    pair are tried in canonical order among values respecting axiom 1.
    Partial assignments are pruned by axiom 2 on the mirrored pair and by
    the requested properties restricted to decided pairs/triples.  The
    returned table is re-verified by the requested sweeps before being
    returned.  Raises InputError on a non-distributive lattice and
    ResourceLimitError past ``MAX_SEARCH_NODES`` search nodes.
    """
    for t in _solutions(D, require_monotone, require_cevian):
        if _verify(D, t, require_monotone, require_cevian):
            return _to_map(D, t)
        raise ContractError("search produced an inconsistent table")
    return None


def enumerate_deviations(D: FiniteDistributiveLattice,
                         limit: int) -> list:
    """Up to ``limit`` (at least 1) distinct deviations in search order
    (deterministic), with the errors of :func:`search_deviation`."""
    if limit < 1:
        raise InputError(f"limit must be at least 1, got {limit}")
    out = []
    for t in _solutions(D, False, False):
        if _violation(D, t) is not None:
            raise ContractError("search produced an inconsistent table")
        out.append(_to_map(D, t))
        if len(out) >= limit:
            break
    return out
