"""semilinear-sets, the first part of the fm workload: the set-algebra use
of the Fourier-Motzkin layer.

A "set" item is one random set U in dimension 1-4 with up to 4 cells of up
to 4 atoms and a random variable support X. It takes the upper and lower
shadows of U on X, the complement of U, ``includes`` in both directions
between U and each shadow, and ``witness_point`` on every cell. A
"complement" item is a set in dimension 4 with 4 cells of 3 strict or
non-strict atoms, whose complement has up to 81 cells; it takes the
complement and the cell witnesses. Checks, independent of the verdicts
under test:
U is inside its upper shadow and contains its lower shadow; every
witness is re-checked with ``contains``; every "true" verdict and every
empty cell is cross-checked against seeded sample points, which must also
split exactly between U and its complement.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from clicalls import cli_items
from harness import Wrong

# The batch is GROUPS groups of SETS set items (dimensions 1-4 in turn)
# and STRESS complement items, then the CLI items. The median item is a set
# item: with 12 per group it moved by about a fifth from seed to seed, with
# 24 by under a tenth. One complement item per group put the tail among
# the axiom items, whose costs lie further apart, and its spread over
# seeds grew from 0.09-0.15 to 0.20.
GROUPS, SETS, STRESS = 8, 24, 2
SAMPLES = 12
# Set items keep the De Morgan bound of U (product over cells of the atom
# count, equalities counted twice) at most 6. Above it the lower shadow,
# which complements the projected complement, meets a cliff: each De Morgan
# stage adds an atom to every cell and Fourier-Motzkin elimination of those
# atoms grows quadratically, so sets of one shape take from milliseconds to
# past the item time limit (about 1 in 1500 sets at bound 16). At bound 8,
# one shape of the batch (four cells in dimension 4) took from 0.04 s to
# 1.6 s with its coefficients and decided the batch's time alone; at 6, no
# set item took more than 0.08 s over 20 seeds.
DE_MORGAN_BOUND = 6
# Complement items have a fixed shape: with random shapes their cost spans
# three orders of magnitude and decides the run's throughput alone.
STRESS_CELLS, STRESS_ATOMS = 4, 3
SET_CLI = ("semilinear includes", "semilinear shadow")


def random_shape(rng: random.Random, bound: int) -> list:
    """The relations of up to 4 cells of up to 4 atoms, redrawn until the
    De Morgan bound is at most ``bound``."""
    while True:
        rels = [rng.choices((">", ">=", "="), weights=(9, 9, 2),
                            k=rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))]
        if prod(sum(2 if r == "=" else 1 for r in c) for c in rels) <= bound:
            return rels


def random_cells(rng: random.Random, n: int, rels: list) -> list:
    """Cells of atoms with the given relations and random coefficients."""
    cells = []
    for cell in rels:
        atoms = []
        for rel in cell:
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            if not any(coeffs):
                coeffs[rng.randrange(n)] = rng.choice([-2, -1, 1, 2])
            atoms.append((tuple(coeffs), rng.randint(-3, 3), rel))
        cells.append(atoms)
    return cells


def random_point(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))
                 for _ in range(n))


def to_set(L, n: int, cells: list):
    sl = L.semilinear
    return sl.SemilinearSet.of(n, [
        sl.Cell.of(sl.Constraint(sl.LinearForm(
            tuple(Fraction(c) for c in coeffs), Fraction(const)), rel)
            for coeffs, const, rel in cell)
        for cell in cells])


def _bucket(cells: int) -> str:
    """The power of two at or above ``cells`` (or 0), as ``c<bucket>``."""
    return f"c{0 if cells == 0 else 1 << (cells - 1).bit_length()}"


# Complement cells are at most the De Morgan bound: DE_MORGAN_BOUND for set
# items, STRESS_ATOMS ** STRESS_CELLS = 81 for complement items, whose
# complements had 72 to 81 cells over 30 seeds. The curve has the buckets
# up to the set items' bound and the complement items' bucket.
COMPLEMENT_BUCKETS = sorted(
    {_bucket(c) for c in range(DE_MORGAN_BOUND + 1)}
    | {_bucket(STRESS_ATOMS ** STRESS_CELLS)}, key=lambda b: int(b[1:]))


def _includes(ctx, S, T, pts, expect_true=False):
    """includes(S, T), i.e. T inside S, checked against the samples."""
    ok, w = ctx.call("semilinear.includes", ctx.L.semilinear.includes, S, T)
    if ok:
        if any(T.contains(p) and not S.contains(p) for p in pts):
            raise Wrong("includes is true but a sample point refutes it")
    elif expect_true:
        raise Wrong("a shadow law failed")
    elif not (T.contains(w) and not S.contains(w)):
        raise Wrong("includes witness does not separate the sets")
    else:
        pts.append(w)


def _witnesses(ctx, U, n, pts):
    for cell in U.cells:
        w = ctx.call("semilinear.witness", ctx.L.semilinear.witness_point,
                     cell, n)
        single = ctx.L.semilinear.SemilinearSet(n, (cell,))
        if w is None:
            if any(single.contains(p) for p in pts):
                raise Wrong("witness_point says empty, a sample lies inside")
        elif not single.contains(w):
            raise Wrong("witness point outside its cell")
        else:
            pts.append(w)


def _complement(ctx, U, pts):
    sl = ctx.L.semilinear
    comp = ctx.call("semilinear.complement", sl.complement, U)
    ctx.point("semilinear.complement_s." + _bucket(len(comp.cells)))
    ctx.count("semilinear.complement_cells", len(comp.cells))
    if any(comp.contains(p) == U.contains(p) for p in pts):
        raise Wrong("a sample point is in both or neither of U and its "
                    "complement")


def set_item(n, cells, X, pts):
    def prepare(L):
        U, samples = to_set(L, n, cells), list(pts)

        def fn(ctx):
            sl = ctx.L.semilinear
            up = ctx.call("semilinear.shadow", sl.upper_shadow_set, U, X)
            lo = ctx.call("semilinear.shadow", sl.lower_shadow_set, U, X)
            _witnesses(ctx, U, n, samples)
            _complement(ctx, U, samples)
            _includes(ctx, up, U, samples, expect_true=True)
            _includes(ctx, U, lo, samples, expect_true=True)
            _includes(ctx, U, up, samples)
            _includes(ctx, lo, U, samples)
        return fn
    return prepare


def stress_item(n, cells, pts):
    def prepare(L):
        U, samples = to_set(L, n, cells), list(pts)

        def fn(ctx):
            _witnesses(ctx, U, n, samples)
            _complement(ctx, U, samples)
        return fn
    return prepare


class SemilinearSets:
    name = "semilinear-sets"

    def generate(self, L, seed: int) -> list:
        """Shapes (dimension, relations of each cell's atoms, support X)
        come from a fixed generator, so the batch costs about the same for
        every seed; the seed draws coefficients and sample points."""
        shapes = random.Random("semilinear-sets shapes")
        rng = random.Random(f"{self.name}/{seed}")
        batch = []
        for _ in range(GROUPS):
            for k in range(SETS):
                n = 1 + k % 4
                rels = random_shape(shapes, DE_MORGAN_BOUND)
                X = [i for i in range(n) if shapes.random() < 0.6]
                cells = random_cells(rng, n, rels)
                pts = [random_point(rng, n) for _ in range(SAMPLES)]
                batch.append(("set", set_item(n, cells, X, pts)))
            for _ in range(STRESS):
                rels = [shapes.choices((">", ">="), k=STRESS_ATOMS)
                        for _ in range(STRESS_CELLS)]
                cells = random_cells(rng, 4, rels)
                pts = [random_point(rng, 4) for _ in range(SAMPLES)]
                batch.append(("complement", stress_item(4, cells, pts)))
        return batch + list(cli_items(SET_CLI))
