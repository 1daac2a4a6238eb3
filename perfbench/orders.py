"""The two parts of the orders workload (order-small, order-scale):
generators and the oracle.

Posets are generated here as plain data (element ids and generating
pairs); latdev receives only those. The oracle represents a poset by
bitmasks of its transitive closure and a down-set lattice O(J) by the
bitmasks of its down-sets, so every verdict is checked without latdev:

* O(J) is completely normal iff every principal up-set of J is a chain,
  and then its prime ideals form a root system and a deviation exists;
* the prime ideals of O(J) are {X : p not in X}, one per p in J, so
  there are exactly |J| of them;
* deviation axioms, monotonicity and the Cevian inequality are checked
  as bitmask inclusions.
"""

from __future__ import annotations

import random
from itertools import product

from clicalls import cli_items
from harness import Wrong, plain


class Poset:
    """A finite poset as plain data plus bitmasks of its closure."""

    def __init__(self, elements, pairs):
        self.elements = tuple(elements)
        self.pairs = tuple(pairs)
        pos = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        up = [1 << i for i in range(n)]
        for a, b in self.pairs:
            up[pos[a]] |= 1 << pos[b]
        for k in range(n):                       # Warshall on bitmasks
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        self.up = up
        self.down = [sum(1 << i for i in range(n) if up[i] >> j & 1)
                     for j in range(n)]

    def is_forest(self) -> bool:
        """Every principal up-set is a chain."""
        n = len(self.elements)
        for x in range(n):
            for a in range(n):
                if self.up[x] >> a & 1 and \
                        self.up[x] & ~(self.up[a] | self.down[a]):
                    return False
        return True


def down_sets(P: Poset) -> list:
    """Bitmasks of all down-sets, adding elements in a linear extension."""
    order = sorted(range(len(P.elements)),
                   key=lambda i: bin(P.down[i]).count("1"))
    fam = [0]
    for e in order:
        below = P.down[e] & ~(1 << e)
        fam += [D | 1 << e for D in fam if D & below == below]
    return fam


class DownsetLattice:
    """Oracle for O(J): elements are down-set bitmasks, keyed by the ids
    latdev gives them (member tuples in J's declaration order)."""

    def __init__(self, J: Poset):
        self.J = J
        self.cn = J.is_forest()
        self.masks = down_sets(J)
        n = len(J.elements)
        self.ids = [tuple(J.elements[i] for i in range(n) if m >> i & 1)
                    for m in self.masks]
        self.index = {x: i for i, x in enumerate(self.ids)}
        ms = self.masks
        self.le_pairs = [(a, b) for a in range(len(ms)) for b in range(len(ms))
                         if ms[a] & ~ms[b] == 0]
        self._blocks = None

    def __len__(self):
        return len(self.masks)

    def table(self, d) -> list:
        """The map d (id pairs to ids) as a bitmask table; Wrong if it is
        not a total map into the lattice."""
        try:
            return [[self.masks[self.index[d[(x, y)]]] for y in self.ids]
                    for x in self.ids]
        except KeyError as exc:
            raise Wrong(f"map not total or off the lattice: {exc}") from None

    def check_map(self, d, monotone=False, cevian=False):
        t = self.table(d)
        ms = self.masks
        n = len(ms)
        for i in range(n):
            ti = t[i]
            for j in range(n):
                if ms[i] & ~(ms[j] | ti[j]):
                    raise Wrong(f"axiom 1 fails at {self.ids[i]}, {self.ids[j]}")
                if ti[j] & t[j][i]:
                    raise Wrong(f"axiom 2 fails at {self.ids[i]}, {self.ids[j]}")
        if monotone:
            for a, b in self.le_pairs:
                ta, tb = t[a], t[b]
                for y in range(n):
                    if ta[y] & ~tb[y]:
                        raise Wrong("not left isotone")
                    if t[y][b] & ~t[y][a]:
                        raise Wrong("not right antitone")
        if cevian:
            for x in range(n):
                tx = t[x]
                for y in range(n):
                    ty = t[y]
                    for z in range(n):
                        if tx[z] & ~(tx[y] | ty[z]):
                            raise Wrong("not Cevian")

    def blocks(self) -> list:
        """Per unordered pair {x, y}, the value pairs (d(x,y), d(y,x)) that
        both axioms allow; computed once."""
        if self._blocks is None:
            ms = self.masks
            self._blocks = []
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    x, y = ms[i], ms[j]
                    us = [u for u in range(len(ms)) if x & ~(y | ms[u]) == 0]
                    vs = [v for v in range(len(ms)) if y & ~(x | ms[v]) == 0]
                    self._blocks.append((i, j, [(u, v) for u in us for v in vs
                                                if ms[u] & ms[v] == 0]))
        return self._blocks

    def random_deviation(self, rng: random.Random) -> dict:
        """A uniformly drawn allowed value pair for every unordered pair
        (the lattice must be CN)."""
        bottom = self.ids[0]
        d = {(x, x): bottom for x in self.ids}
        for i, j, sols in self.blocks():
            u, v = rng.choice(sols)
            d[(self.ids[i], self.ids[j])] = self.ids[u]
            d[(self.ids[j], self.ids[i])] = self.ids[v]
        return d


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def all_posets(max_n: int) -> list:
    """Every labelled poset on {0..n-1}, n <= max_n: each unordered pair is
    incomparable, < or >, and non-transitive choices are dropped."""
    out = []
    for n in range(max_n + 1):
        idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for states in product((0, 1, 2), repeat=len(idx)):
            rel = [(i, j) if s == 1 else (j, i)
                   for (i, j), s in zip(idx, states) if s]
            P = Poset(range(n), rel)
            strict = sum(bin(u).count("1") - 1 for u in P.up)
            if strict == len(rel):               # closure added nothing
                out.append(P)
    return out


def chain_product(k: int, m: int) -> Poset:
    els = [f"{i}.{j}" for i in range(k) for j in range(m)]
    pairs = [(f"{i}.{j}", f"{i + 1}.{j}") for i in range(k - 1)
             for j in range(m)]
    pairs += [(f"{i}.{j}", f"{i}.{j + 1}") for i in range(k)
              for j in range(m - 1)]
    return Poset(els, pairs)


def antichain(n: int) -> Poset:
    return Poset([f"a{i}" for i in range(n)], [])


def random_forest(rng: random.Random, lattice_size: int) -> Poset:
    """An up-set forest (each element has at most one upper cover) on four
    to six elements with shuffled declaration order, whose down-set lattice
    has exactly ``lattice_size`` elements."""
    while True:
        n = rng.randint(4, 6)
        parent = {}
        for i in range(1, n):
            if rng.random() < 0.75:
                parent[i] = rng.randrange(i)
        labels = [f"f{i}" for i in range(n)]
        rng.shuffle(labels)
        P = Poset(labels, [(labels[c], labels[p]) for c, p in parent.items()])
        if len(down_sets(P)) == lattice_size:
            return P


def random_dag(rng: random.Random, n: int, p: float) -> Poset:
    return Poset(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < p])


def relabel(P: Poset, rng: random.Random) -> tuple:
    """P with its ids permuted, each keeping its declaration position, and
    the permutation."""
    new = list(P.elements)
    rng.shuffle(new)
    m = dict(zip(P.elements, new))
    return Poset(new, [(m[a], m[b]) for a, b in P.pairs]), m


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------

def _build(L, J: Poset):
    return L.lattices.lattice_from_downsets(
        L.posets.FinitePoset.from_relation(J.elements, J.pairs))


def lattice_item(lat: DownsetLattice, holder: dict, scale=False,
                 curve=False):
    """Build O(J) for the oracle's J, decide CN, prime ideals, root system
    and search for a deviation; with ``scale`` also zero-distributivity and
    the monotone and Cevian searches; with ``curve`` record the size curve
    points."""
    J = lat.J

    def fn(ctx):
        L = ctx.L
        size = len(lat)
        D = ctx.call("lattices.build", _build, L, J)
        if curve:
            ctx.point(f"lattices.build_s.n{size}")
        if sorted(map(str, D.elements)) != sorted(map(str, lat.ids)):
            raise Wrong("lattice elements differ from the down-sets of J")
        holder["D"] = D
        cn, _ = ctx.call("lattices.check", L.lattices.is_completely_normal, D)
        if cn != lat.cn:
            raise Wrong(f"complete normality {cn}, expected {lat.cn}")
        if scale:
            zd, _ = ctx.call("lattices.check",
                             L.lattices.is_zero_distributive, D)
            if not zd:
                raise Wrong("a distributive lattice is zero-distributive")
        pip = ctx.call("lattices.primes", L.lattices.prime_ideal_poset, D)
        if curve:
            ctx.point(f"lattices.primes_s.n{size}")
        ctx.count("lattices.prime_ideals", len(pip.ideals))
        if len(pip.ideals) != len(J.elements):
            raise Wrong(f"{len(pip.ideals)} prime ideals, "
                        f"expected {len(J.elements)}")
        rs, _ = ctx.call("lattices.check", L.lattices.is_root_system, pip)
        if rs != lat.cn:
            raise Wrong(f"root system {rs}, expected {lat.cn}")
        searches = [] if lat.cn and size > SEARCH_MAX else [(False, False)]
        if scale and lat.cn and size <= SMALL_SEARCH:
            searches += [(True, False), (True, True)]
        for mono, cev in searches:
            d = ctx.call("deviations.search", L.deviations.search_deviation,
                         D, require_monotone=mono, require_cevian=cev)
            ctx.count("deviations.found", d is not None)
            # Existence is known for plain and monotone deviations (CN, and
            # the monotone adjustment); a Cevian one is only checked if found.
            if not cev and (d is not None) != lat.cn:
                raise Wrong(f"deviation found: {d is not None}, "
                            f"expected {lat.cn}")
            if d is not None:
                lat.check_map(d, monotone=mono, cevian=cev)
    return fn


# Monotone and Cevian searches run on CN lattices up to this size.
SMALL_SEARCH = 16
# The plain search runs on every lattice except CN ones larger than this:
# on a CN lattice it recurses once per ordered pair of elements, and at 32
# elements (B5) passes the interpreter's recursion limit. That is the seed
# commit's edge; the benchmark's workloads have no failing items.
SEARCH_MAX = 31


def adjust_item(lat: DownsetLattice, holder: dict, d: dict, order: list):
    """Adjust one deviation on both paths, check the result with latdev's
    sweeps and with the oracle."""

    def fn(ctx):
        L = ctx.L
        D = holder["D"]
        naive = ctx.call("adjustment.naive", L.adjustment.monotone_adjustment,
                         D.poset, D, d, order)
        shadow = ctx.call("adjustment.shadow",
                          L.adjustment.monotone_adjustment,
                          D.poset, D, d, order, use_shadows=True)
        v = ctx.call("deviations.verify", L.deviations.check_deviation,
                     D, naive.d_prime)
        rep = ctx.call("deviations.verify", L.deviations.deviation_properties,
                       D, naive.d_prime)
        if ctx.traced:
            for path, res in (("naive", naive), ("shadow", shadow)):
                for e in res.trace.values():
                    ctx.count(f"adjustment.meetands.{path}", len(e.meetands))
                    ctx.count(f"adjustment.joinands.{path}", len(e.joinands))
        if dict(naive.d_prime) != dict(shadow.d_prime):
            raise Wrong("naive and shadow adjustment differ")
        if v is not None or not rep.monotone:
            raise Wrong("latdev rejects the adjusted map")
        lat.check_map(naive.d_prime, monotone=True)
    return fn


def witness_item(P: Poset, order: list):
    """Witness along an enumeration, then the enumeration back from it."""

    def fn(ctx):
        L = ctx.L
        FP = L.posets.FinitePoset.from_relation(P.elements, P.pairs)
        W = ctx.call("posets.witness", L.posets.witness_from_order, FP, order)
        ok = ctx.call("posets.witness", L.posets.is_separability_witness,
                      FP, W)
        pos = {x: i for i, x in enumerate(order)}
        _check_witness(P, W)
        if not ok:
            raise Wrong("latdev rejects its own witness")
        for y in P.elements:
            if any(pos[x] > pos[y] for x in W.A[y] | W.B[y]):
                raise Wrong("witness reaches past the enumeration")
        res = ctx.call("posets.witness", L.posets.order_from_witness, FP, W)
        _check_enumeration(P, res)
    return fn


def _mask(P: Poset, xs) -> int:
    return sum(1 << P.elements.index(x) for x in xs)


def _check_witness(P: Poset, W):
    n = len(P.elements)
    A = [_mask(P, W.A[x]) for x in P.elements]
    B = [_mask(P, W.B[x]) for x in P.elements]
    for i in range(n):
        if A[i] & ~P.up[i] or B[i] & ~P.down[i]:
            raise Wrong("witness set outside the bounds")
        for j in range(n):
            if P.up[i] >> j & 1 and not A[i] & B[j]:
                raise Wrong("separation fails")


def _check_enumeration(P: Poset, res):
    if sorted(res.enumeration) != sorted(P.elements) or \
            [x for b in res.blocks for x in b] != list(res.enumeration):
        raise Wrong("enumeration is not the concatenated blocks")
    prefix = 0
    for x in res.enumeration:
        i = P.elements.index(x)
        above, below = prefix & P.up[i], prefix & P.down[i]
        upper = {P.elements[a] for a in range(len(P.elements))
                 if above >> a & 1 and not above & P.down[a] & ~(1 << a)}
        lower = {P.elements[a] for a in range(len(P.elements))
                 if below >> a & 1 and not below & P.up[a] & ~(1 << a)}
        if set(res.prefix_shadows[x][0]) != upper or \
                set(res.prefix_shadows[x][1]) != lower:
            raise Wrong(f"prefix shadows wrong at {x!r}")
        prefix |= 1 << i


def amalgam_item(M: Poset, family: dict, nu: dict):
    """Strong amalgam over a chain index: check it, build a witness per
    block, assemble the carrier's witness."""

    def fn(ctx):
        L = ctx.L
        FP = L.posets.FinitePoset
        carrier = FP.from_relation(M.elements, M.pairs)
        k = len(family)
        spec = L.posets.StrongAmalgamSpec(carrier, FP.chain(k), family)
        v = ctx.call("posets.amalgam", L.posets.check_strong_amalgam, spec)
        if v is not None:
            raise Wrong(f"nested chain family rejected: {v}")
        wits = {}
        for p in range(k):
            sub = carrier.restrict(family[p])
            wits[p] = ctx.call("posets.amalgam", L.posets.witness_from_order,
                               sub, sub.elements)
        W = ctx.call("posets.amalgam", L.posets.witness_from_amalgam,
                     spec, wits, nu)
        _check_witness(M, W)
    return fn


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Item times cluster by lattice size. With two adjustments per CN lattice
# the median item lies inside a cluster; with four it lay in the gap
# between two, and moved by a quarter from run to run.
ADJUST_PER_LATTICE = 2
SMALL_CLI = ("lattice check", "deviation check", "deviation search",
             "deviation enumerate", "adjust")


class OrderSmall:
    """All 243 down-set lattices of labelled posets with <= 4 elements.

    The batch is one pass in seeded order: per lattice one check item and,
    on CN lattices, ADJUST_PER_LATTICE adjustment items with seeded
    deviations and orders that reuse the lattice the check item built;
    then the five CLI subcommands that front these layers."""

    name = "order-small"

    def generate(self, L, seed: int) -> list:
        lats = [DownsetLattice(J) for J in all_posets(4)]
        rng = random.Random(f"{self.name}/{seed}")
        batch = []
        for k in rng.sample(range(len(lats)), len(lats)):
            lat = lats[k]
            holder = {}
            batch.append(("check", plain(lattice_item(lat, holder))))
            if lat.cn:
                for _ in range(ADJUST_PER_LATTICE):
                    order = list(lat.ids)
                    rng.shuffle(order)
                    batch.append(("adjust", plain(adjust_item(
                        lat, holder, lat.random_deviation(rng), order))))
        return batch + list(cli_items(SMALL_CLI))


# Fixed families of the size sweep. B5 is the largest Boolean lattice
# whose prime ideals latdev finds in time: on B6 its down-set enumeration
# costs a Dedekind number and gives no verdict within minutes.
CHAIN_KS = (1, 2, 3, 4, 5, 6)
BOOLEAN_NS = (1, 2, 3, 4, 5)
# Up-set forests stay below SEARCH_MAX lattice elements, so the plain
# search runs on each.
FOREST_SIZES = (10, 12, 14, 16, 18, 20, 24, 28)
WITNESS_SIZES = tuple(range(10, 31, 2))
AMALGAM_SIZES = tuple((m, k) for m in (4, 6, 8) for k in (2, 3, 4, 5))
SCALE_CLI = ("poset witness", "poset order", "poset amalgam")
# The batch relabels every witness poset and amalgam this many times. The
# lattice items spread over three orders of magnitude, one size each, so a
# percentile among them falls between two sizes; with three copies of the
# small items, the median falls among many items of similar cost.
POSET_COPIES = 3


def lattice_sizes() -> list:
    sizes = {len(down_sets(chain_product(k, 3))) for k in CHAIN_KS}
    sizes |= {2 ** n for n in BOOLEAN_NS}
    return sorted(sizes)


class OrderScale:
    """A size sweep: down-set lattices of chain(k) x chain(3) and of
    antichains (Boolean lattices), up-set forests, witness posets and
    strong amalgams. Shapes, declaration orders and enumerations come from
    a fixed generator, so the batch costs about the same for every seed;
    the seed draws the element ids of the forests, posets and amalgams."""

    name = "order-scale"

    def generate(self, L, seed: int) -> list:
        shapes = random.Random("order-scale shapes")
        rng = random.Random(f"{self.name}/{seed}")
        lats = [DownsetLattice(chain_product(k, 3)) for k in CHAIN_KS]
        lats += [DownsetLattice(antichain(n)) for n in BOOLEAN_NS]
        batch = [("lattice", plain(lattice_item(lat, {}, scale=True,
                                                curve=True)))
                 for lat in lats]
        for size in FOREST_SIZES:
            J = relabel(random_forest(shapes, size), rng)[0]
            batch.append(("lattice", plain(lattice_item(
                DownsetLattice(J), {}, scale=True))))
        posets = []
        for n in WITNESS_SIZES:
            P = random_dag(shapes, n, 0.2)
            order = list(P.elements)
            shapes.shuffle(order)
            posets.append((P, order))
        amalgams = []
        for m, k in AMALGAM_SIZES:
            M = random_dag(shapes, m, 0.35)
            cur, fam = set(), {}
            for p in range(k):
                room = [x for x in M.elements if x not in cur]
                cur |= set(shapes.sample(room, shapes.randint(0, len(room))))
                fam[p] = cur.copy()
            fam[k - 1] = set(M.elements)
            amalgams.append((M, fam))
        for _ in range(POSET_COPIES):
            for P0, order in posets:
                P, lab = relabel(P0, rng)
                batch.append(("witness", plain(witness_item(
                    P, [lab[x] for x in order]))))
            for M0, fam in amalgams:
                M, lab = relabel(M0, rng)
                fam = {p: frozenset(lab[x] for x in xs)
                       for p, xs in fam.items()}
                nu = {x: next(p for p in fam if x in fam[p])
                      for x in M.elements}
                batch.append(("amalgam", plain(amalgam_item(M, fam, nu))))
        return batch + list(cli_items(SCALE_CLI))
