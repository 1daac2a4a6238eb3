"""vl-ideals, the second part of the fm workload: the Fourier-Motzkin layer
as many small emptiness queries.

Every item has its own depth-3 terms over n = 1..3 generators with at
most four linear pieces; items share sub-work through common subterms and
latdev's caches, not through repeated inputs. Items: the Cevian
inequality on a triple, the ideal-level deviation axioms on a pair, the
ideal order on a pair, the pseudocomplement probe on the bounded region,
and points of the ``noiso_probe`` grid. Checks: every Cevian triple and
every axiom instance is true (they are theorems); every false
``ideal_leq`` witness is re-evaluated with ``evaluate``; the probe finds
no counterexample; every grid point reproduces both inclusion failures.
"""

from __future__ import annotations

import random
from fractions import Fraction

from clicalls import cli_items
from harness import Wrong, clear_caches, plain

MAX_PIECES = 4
# The right-hand side of the Cevian and the first axiom check is a join of
# differences of inputs; pairs and triples whose right-hand side has more
# than 16 pieces are redrawn (about 1 in 6). Above that, one item in a
# hundred takes seconds and decides the run's throughput alone.
MAX_RHS_PIECES = 16
# The batch is GROUPS groups of one Cevian, axiom and order item per
# dimension, PSCOM pseudocomplement items and one item of NOISO grid
# points, then the CLI items.
GROUPS, PSCOM, NOISO = 8, 2, 4
GRID = [(k, m, n) for k in range(1, 7) for m in range(1, 5)
        for n in range(1, 5) if 2 ** (k - 1) > m * n]
VL_CLI = ("vlat leq", "vlat cevian", "vlat pscom-probe", "vlat noiso-probe")


def random_ast(rng: random.Random, n: int, depth: int) -> tuple:
    """A term as nested tuples, biased towards leaves."""
    if depth <= 0:
        r = rng.random()
        if r < 0.7:
            return ("g", rng.randrange(n))
        if r < 0.9:
            return ("one",)
        return ("scale", Fraction(rng.randint(-2, 2)), ("one",))
    op = rng.choice(["add", "join", "meet", "scale", "pos", "leaf", "leaf"])
    if op == "leaf":
        return random_ast(rng, n, 0)
    if op == "scale":
        q = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        return ("scale", q, random_ast(rng, n, depth - 1))
    if op == "pos":
        return ("pos", random_ast(rng, n, depth - 1))
    return (op, random_ast(rng, n, depth - 1), random_ast(rng, n, depth - 1))


def permute(ast: tuple, perm: list) -> tuple:
    """The term with generator i renamed to perm[i]."""
    if ast[0] == "g":
        return ("g", perm[ast[1]])
    return tuple(permute(a, perm) if isinstance(a, tuple) else a
                 for a in ast)


def to_term(L, ast: tuple):
    vl = L.vlterms
    op = ast[0]
    if op == "g":
        return vl.gen(ast[1])
    if op == "one":
        return vl.one()
    if op == "scale":
        return ast[1] * to_term(L, ast[2])
    if op == "pos":
        return to_term(L, ast[1]).pos()
    a, b = to_term(L, ast[1]), to_term(L, ast[2])
    return a + b if op == "add" else a | b if op == "join" else a & b


def _linearize(ctx, n, *terms):
    for t in terms:
        pw = ctx.call("vlterms.linearize", ctx.L.vlterms.linearize, t, n)
        ctx.count("vlterms.pieces", len(pw.pieces))


def terms_item(make, asts, *rest):
    """The ``prepare`` of ``make(*terms, *rest)`` on terms given as ASTs."""
    return lambda L: make(*(to_term(L, a) for a in asts), *rest)


def cevian_item(g, h, k, n):
    def fn(ctx):
        _linearize(ctx, n, g, h, k)
        if not ctx.call("vlterms.cevian", ctx.L.vlterms.check_cevian_triple,
                        g, h, k, n):
            raise Wrong("Cevian inequality reported false")
    return fn


def axiom_item(a, b, n):
    def fn(ctx):
        vl = ctx.L.vlterms
        a_, b_ = abs(a), abs(b)
        _linearize(ctx, n, a_, b_)
        ok, _ = ctx.call("vlterms.ideal_leq", vl.ideal_leq, a_,
                         vl.ideal_join(b_, vl.cevian_dev(a_, b_)), n)
        if not ok:
            raise Wrong("axiom 1 reported false at the ideal level")
        if not ctx.call("vlterms.ideal_leq", vl.ideal_meet_is_zero,
                        vl.cevian_dev(a_, b_), vl.cevian_dev(b_, a_), n):
            raise Wrong("axiom 2 reported false at the ideal level")
    return fn


def leq_item(g, h, n):
    def fn(ctx):
        vl = ctx.L.vlterms
        _linearize(ctx, n, g, h)
        for lhs, rhs in ((g, h), (h, g)):
            ok, w = ctx.call("vlterms.ideal_leq", vl.ideal_leq, lhs, rhs, n)
            if not ok and not (vl.evaluate(rhs, w) == 0
                               and vl.evaluate(lhs, w) != 0):
                raise Wrong("ideal_leq witness does not refute the order")
    return fn


def pscom_item(t, c):
    def fn(ctx):
        vl = ctx.L.vlterms
        rep = ctx.call("vlterms.probe", vl.pseudocomplement_probe,
                       3, 1, c, [t])
        if rep.counterexamples:
            raise Wrong(f"pseudocomplement counterexample at {t}")
    return fn


def noiso_item(points):
    def fn(ctx):
        for k, m, n in points:
            rep = ctx.call("vlterms.probe", ctx.L.vlterms.noiso_probe,
                           k, m, n)
            if not rep.reproduced:
                raise Wrong(f"noiso_probe({k}, {m}, {n}) not reproduced")
            for chk in (rep.primary, rep.dual):
                w = chk.witness
                ev = ctx.L.vlterms.evaluate
                if not (ev(chk.rhs, w) == 0 and ev(chk.lhs, w) != 0):
                    raise Wrong("noiso witness does not refute the order")
    return fn


class VLIdeals:
    name = "vl-ideals"

    def generate(self, L0, seed: int) -> list:
        """Terms, scalars and grid points come from a fixed generator, so
        the batch costs about the same for every seed; the seed renames the
        generators of each item's terms, which changes the order in which
        Fourier-Motzkin elimination meets the variables but not the piece
        counts. ``L0``, the set-up's import of latdev, counts the pieces of
        candidate terms and is emptied of its caches after every draw; the
        timed rounds run on another import."""
        shapes = random.Random("vl-ideals shapes")
        rng = random.Random(f"{self.name}/{seed}")
        vl0 = L0.vlterms

        def pieces(t, n, ceiling=None) -> int:
            try:
                return len(vl0.linearize(t, n, ceiling).pieces)
            except L0.errors.ResourceLimitError:
                return ceiling + 1

        def asts(n, k, rhs=None):
            """k input terms with renamed generators; ``rhs`` builds the
            right-hand side to bound."""
            while True:
                out = []
                while len(out) < k:
                    ast = random_ast(shapes, n, 3)
                    if pieces(to_term(L0, ast), n) <= MAX_PIECES:
                        out.append(ast)
                fits = rhs is None or pieces(
                    rhs(*(to_term(L0, a) for a in out)), n,
                    MAX_RHS_PIECES) <= MAX_RHS_PIECES
                clear_caches(L0)
                if fits:
                    perm = rng.sample(range(n), n)
                    return [permute(a, perm) for a in out]

        def cevian_rhs(g, h, k):
            return vl0.ideal_join(vl0.cevian_dev(g, h), vl0.cevian_dev(h, k))

        def axiom_rhs(a, b):
            return vl0.ideal_join(abs(b), vl0.cevian_dev(abs(a), abs(b)))

        batch = []
        for _ in range(GROUPS):
            for n in (1, 2, 3):
                batch += [
                    ("cevian", terms_item(cevian_item,
                                          asts(n, 3, cevian_rhs), n)),
                    ("axioms", terms_item(axiom_item,
                                          asts(n, 2, axiom_rhs), n)),
                    ("leq", terms_item(leq_item, asts(n, 2), n))]
            for _ in range(PSCOM):
                batch.append(("pscom", terms_item(
                    pscom_item, asts(3, 1),
                    shapes.choice([Fraction(1, 2), 1, 2]))))
            batch.append(("noiso", plain(noiso_item(
                shapes.sample(GRID, NOISO)))))
        return batch + list(cli_items(VL_CLI))
