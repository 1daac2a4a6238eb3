"""Deviations on finite distributive lattices: verification, property
sweeps, the least deviation, and enumeration.

A deviation is a total binary map d on the lattice with

    axiom 1:  x <= y ∨ d(x,y)          for all x, y
    axiom 2:  d(x,y) ∧ d(y,x) = 0      for all x, y

Deviations are represented as plain dicts mapping ordered id pairs to
ids of the host lattice.  ``_table`` is the one place such a map is
checked and turned into a flat table of positions (``adjustment`` uses
it too), and ``_counterexamples`` the one property pass on that table,
whose positions the property report maps to ids.  Search re-verifies
its table with the tests of that pass, for the properties asked for.

Search and enumeration rely on Birkhoff's representation: in a finite
distributive lattice a join-irreducible p lies below y ∨ c iff it lies
below y or below c.  So the values that axiom 1 allows at (x, y) are
exactly the filter ↑(x∖y), where x∖y = ⋁{p join-irreducible : p <= x,
p not<= y}, and a mirrored pair (x, y), (y, x) has values meeting
axiom 2 iff (x∖y) ∧ (y∖x) = 0.  The x∖y table is therefore the
pointwise least deviation whenever one exists, which is exactly when
the lattice is completely normal; it is monotone and Cevian.  Search
checks the table once against both axioms and returns it; a pair that
breaks axiom 2 is confirmed by the pair test of complete normality in
``lattices``.  Enumeration backtracks over the filters.  Both require a
distributive lattice.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, NamedTuple, Optional, Tuple

from .errors import ContractError, InputError, ResourceLimitError
from .lattices import FiniteDistributiveLattice, _normal_pair, _one_cover
from .posets import ElementId, FinitePoset, bits

DeviationMap = Dict[Tuple[ElementId, ElementId], ElementId]

_MISSING = object()

# Most values one enumeration places (search nodes) before it stops
# with ResourceLimitError.  Every placed value extends to a deviation, so
# each deviation enumerated costs at most n² nodes: 4096 on B6, 33,489
# on a 183-element lattice.  Search places none.
MAX_SEARCH_NODES = 10 ** 6


class DeviationViolation(NamedTuple):
    axiom: int                 # 1 or 2
    pair: tuple


def _table(P: FinitePoset, Q: FinitePoset, d: Mapping) -> list:
    """d: P × P → Q as a flat table of positions, t[i*n + j] =
    d(p_i, p_j), after checking that d is total with values in Q; the
    first fault in canonical pair order is raised as InputError."""
    idx = Q._idx
    t = []
    for x in P.elements:
        for y in P.elements:
            v = d.get((x, y), _MISSING)
            if v is _MISSING:
                raise InputError(f"map not total: missing pair {(x, y)!r}")
            i = idx.get(v)
            if i is None:
                raise InputError(f"value {v!r} at {(x, y)!r} outside carrier")
            t.append(i)
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
    bad = _violation(D, _table(D.poset, D.poset, d))
    if bad is None:
        return None
    axiom, i, j = bad
    return DeviationViolation(axiom, (D.elements[i], D.elements[j]))


class PropertyReport(NamedTuple):
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


def _rows(D: FiniteDistributiveLattice, t: list) -> list:
    """rows[x][k] = the mask of the y with d(x,y) <= m_k, over the
    meet-irreducibles m_k of D (the elements with one upper cover).

    In a finite lattice a <= b iff every meet-irreducible above b lies
    above a, and the meet-irreducibles above a ∨ b are those above both a
    and b.  So each property is a statement about these row sets, and
    needs no distributivity: isotone iff rows[x′][k] ⊆ rows[x][k] for
    every cover x ⋖ x′, antitone iff every row set is an up-set, Cevian
    iff every relation d(x,y) <= m_k is transitive.  The tests look at
    each distinct row set once.  To name a first counterexample, the
    isotone scan compares rows of comparable pairs only from the x in
    the mask that :func:`_isotone` returns, and the antitone and Cevian
    scan, :func:`_open_failure`, looks only at the x that
    :func:`_first_open` names."""
    n = len(D)
    up = D.poset._up
    ms = _one_cover(D.poset._up)
    above = [[k for k, m in enumerate(ms) if uv >> m & 1] for uv in up]
    rows = []
    for x in range(n):
        by_value: dict = {}
        for y, v in enumerate(t[x * n:(x + 1) * n]):
            by_value[v] = by_value.get(v, 0) | 1 << y
        row = [0] * len(ms)
        for v, ys in by_value.items():
            for k in above[v]:
                row[k] |= ys
        rows.append(row)
    return rows


def _isotone(D: FiniteDistributiveLattice, rows: list) -> int:
    """The mask ↓{x : some cover x ⋖ x′ has rows[x′][k] ⊄ rows[x][k]},
    which is 0 iff d is isotone in its first argument (covers give every
    x <= x′ by transitivity).  It holds the x of the first
    counterexample (x, x′, y): a chain of covers from x up to x′ has a
    failing cover c ⋖ c′, and x <= c."""
    P = D.poset
    bad = 0
    for x, rx in enumerate(rows):
        for x2 in bits(P._min(P._up[x] & ~(1 << x))):
            if bad >> x & 1:
                break
            for a, b in zip(rows[x2], rx):
                if a & ~b:
                    bad |= P._down[x]
                    break
    return bad


def _first_open(rows: list, cones: list) -> Optional[int]:
    """The first x with a row set rows[x][k] that is not closed under
    ``cones[k]`` (some y in it has cones[k][y] outside it), or None; each
    distinct (k, S) is tested where it first occurs.

    With ``up`` as every cone, a closed row set is an up-set, so d is
    antitone in its second argument iff None comes back.  With column k
    of the rows as cone k, closure says that d(x,y) <= m_k and
    d(y,z) <= m_k give d(x,z) <= m_k, so d is Cevian iff None comes
    back.  Either way the x returned is that of the first
    counterexample, which :func:`_open_failure` names."""
    seen = [set() for _ in cones]
    for x, row in enumerate(rows):
        for S, cone, tested in zip(row, cones, seen):
            if S in tested:
                continue
            tested.add(S)
            rest = S
            while rest:
                low = rest & -rest
                if cone[low.bit_length() - 1] & ~S:
                    return x
                rest ^= low
    return None


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _isotone_failure(D: FiniteDistributiveLattice, rows: list,
                     below: int) -> tuple:
    """First (x, x', y) with x <= x' and d(x,y) not<= d(x',y), scanning
    only the x in ``below``, the nonzero mask of :func:`_isotone`: y
    fails iff some m_k lies above d(x',y) but not above d(x,y)."""
    for x in bits(below):
        rx = rows[x]
        for x2 in bits(D.poset._up[x]):
            bad = 0
            for a, b in zip(rows[x2], rx):
                bad |= a & ~b
            if bad:
                return (x, x2, _lowest(bad))
    raise ContractError("a cover fails isotonicity, but no x below it")


def _open_failure(rows: list, cones: list, x: int) -> tuple:
    """First (x, y, z) with y in some rows[x][k] and z in cones[k][y]
    outside it, at the x that :func:`_first_open` names with the same
    cones.  With ``up`` as cones that is y <= y' with
    d(x,y') not<= d(x,y); with the columns, d(x,z) not<= d(x,y) ∨ d(y,z):
    some m_k lies above d(x,y) and d(y,z) but not above d(x,z)."""
    for y in range(len(rows)):
        bad = 0
        for S, cone in zip(rows[x], cones):
            if S >> y & 1:
                bad |= cone[y] & ~S
        if bad:
            return (x, y, _lowest(bad))
    raise ContractError(f"a row set of x = {x} is open, but no y at it")


def _up_cones(D: FiniteDistributiveLattice, rows: list) -> list:
    """The cones of the antitone test: ``up`` for every row set."""
    return [D.poset._up] * len(rows[0])


def _column_cones(rows: list) -> list:
    """The cones of the Cevian test: column k of the rows as cone k."""
    return list(zip(*rows))


def _counterexamples(D: FiniteDistributiveLattice, t: list) -> tuple:
    """The first isotone, antitone and Cevian counterexamples of the
    total map t in canonical order, as position triples (None where the
    property holds).  Each property is decided by its test on the row
    sets of :func:`_rows`, and only a failed test runs its scan."""
    rows = _rows(D, t)
    below = _isotone(D, rows)
    out = [_isotone_failure(D, rows, below) if below else None]
    for cones in (_up_cones(D, rows), _column_cones(rows)):
        x = _first_open(rows, cones)
        out.append(None if x is None else _open_failure(rows, cones, x))
    return tuple(out)


def deviation_properties(D: FiniteDistributiveLattice,
                         d: DeviationMap) -> PropertyReport:
    """The properties of any total map d on D, with first
    counterexamples in canonical order (:func:`_counterexamples`)."""
    els = D.elements
    ces = [None if ce is None else tuple(els[i] for i in ce)
           for ce in _counterexamples(D, _table(D.poset, D.poset, d))]
    return PropertyReport(*(ce is None for ce in ces), *ces)


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


def _floors(D: FiniteDistributiveLattice) -> Optional[list]:
    """The x∖y table of D, or None when it breaks axiom 2 at a pair
    (x, y) that :func:`lattices._normal_pair` rejects (the values of a
    deviation there, met with x∨y, would be a witness); ContractError on
    any other violation.  D must be distributive (InputError otherwise).
    """
    if not D.is_distributive:
        raise InputError("deviation search needs a distributive lattice")
    dif = _differences(D)
    bad = _violation(D, dif)
    if bad is None:
        return dif
    axiom, x, y = bad
    if axiom == 2 and not _normal_pair(D, x, y):
        return None
    raise ContractError(f"the x∖y table breaks axiom {axiom} at "
                        f"{(D.elements[x], D.elements[y])!r}")


def _solutions(D: FiniteDistributiveLattice) -> Iterator[list]:
    """Every deviation on D in search order, as flat position tables.

    Backtracks over ordered pairs in canonical order with an explicit
    stack; candidates for a pair (x, y) are the filter ↑(x∖y) in
    canonical order.  A value is placed only if it meets the mirrored
    pair's value, or while that is undecided its floor y∖x, in 0, so
    every placed value extends to a deviation.  Placing more than
    ``MAX_SEARCH_NODES`` values raises ResourceLimitError.
    """
    dif = _floors(D)
    if dif is None:
        return
    n = len(D)
    mt, bot = D._meet, D._bot
    ups = [bits(m) for m in D.poset._up]
    cands = [ups[v] for v in dif]
    tab: list = [None] * (n * n)

    def consistent(x, y, c) -> bool:
        if x == y:                      # axiom 2 forces d(x,x) = c ∧ c = 0
            return c == bot
        r = tab[y * n + x]
        return mt[c][dif[y * n + x] if r is None else r] == bot

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


def search_deviation(D: FiniteDistributiveLattice,
                     require_monotone: bool = False,
                     require_cevian: bool = False) -> Optional[DeviationMap]:
    """The least deviation on D, d(x,y) = x∖y, or None when D is not
    completely normal.

    Every deviation lies pointwise above x∖y, and the x∖y table is
    monotone and Cevian; it is a deviation iff D is completely normal.
    So no search node is placed: the table is checked against both
    axioms once, and the flags do not change the result; when one is
    set, the row sets of :func:`_rows` are built once and only the tests
    of the requested properties re-verify the table (no counterexample
    scan runs), and a requested property that fails raises
    ContractError.  Raises InputError on a non-distributive lattice.
    """
    t = _floors(D)
    if t is None:
        return None
    if require_monotone or require_cevian:
        rows = _rows(D, t)
        monotone = not require_monotone or (
            not _isotone(D, rows)
            and _first_open(rows, _up_cones(D, rows)) is None)
        cevian = not require_cevian or \
            _first_open(rows, _column_cones(rows)) is None
        if not (monotone and cevian):
            raise ContractError("search produced an inconsistent table")
    return _to_map(D, t)


def enumerate_deviations(D: FiniteDistributiveLattice,
                         limit: int) -> list:
    """Up to ``limit`` (at least 1) distinct deviations in search order
    (deterministic); the first is the one :func:`search_deviation`
    returns when the element list puts each x∖y before every element
    above it.  Raises InputError on a non-distributive lattice and
    ResourceLimitError past ``MAX_SEARCH_NODES`` search nodes."""
    if limit < 1:
        raise InputError(f"limit must be at least 1, got {limit}")
    out = []
    for t in _solutions(D):
        if _violation(D, t) is not None:
            raise ContractError("search produced an inconsistent table")
        out.append(_to_map(D, t))
        if len(out) >= limit:
            break
    return out
