"""Differential tests: ``vlterms.linearize``, which caches the pieces of
every term node and skips clashing pairs of pieces, against the per-term
walk it replaced (``oracle_fm.linearize_pieces``).

On seeded random terms (n = 1..4, depth <= 4), on terms heavy in ``|.|``
and on terms that hold a subterm several times, the pieces must be
identical in order (cell atoms and forms), with an empty node cache and
again once the cache holds the pieces of every other term; a piece
ceiling must fail with the same exception type and message.

The zero, cozero and sign sets that ``vlterms`` builds from its integer
pieces must equal those that ``oracle_fm.piece_set`` builds from the
oracle's ``Fraction`` pieces: the same cells in order, and in each the
same atoms in order with the same key (its value types included) and
row, on this corpus and on terms whose scalars have denominators 2-7.
"""

import random
from fractions import Fraction

import pytest

import oracle_fm as oracle
from latdev.errors import InputError, ResourceLimitError
from latdev.semilinear import DEFAULT_CELL_CEILING, is_empty
from latdev.vlterms import (Add, Join, Meet, One, Scale, _node_pieces,
                            _sign_set, cozero_set, gen, linearize,
                            random_term, substitute, zero_set)

TERMS = 600


def _leaf(rng: random.Random, n: int):
    r = rng.random()
    if r < 0.75:
        return gen(rng.randrange(n))
    return One() if r < 0.9 else Scale(Fraction(rng.randint(-2, 2)), One())


def abs_heavy_term(rng: random.Random, n: int, depth: int):
    """Mostly absolute values and positive parts: the pairs of pieces of
    one partition that clash."""
    if depth <= 0:
        return _leaf(rng, n)
    op = rng.choice(["abs", "abs", "pos", "add", "join", "meet", "scale"])
    a = abs_heavy_term(rng, n, depth - 1)
    if op == "abs":
        return abs(a)
    if op == "pos":
        return a.pos()
    if op == "scale":
        return Scale(Fraction(rng.choice([-2, -1, 1, 3]),
                              rng.choice([1, 2])), a)
    b = abs_heavy_term(rng, n, depth - 1)
    return {"add": Add, "join": Join, "meet": Meet}[op](a, b)


def shared_term(rng: random.Random, n: int, depth: int):
    """A term that holds one random subterm several times, as one object
    and as a separately built equal one."""
    s = random_term(rng, n, 2)
    copy = substitute(s, {i: gen(i) for i in range(n)})
    other = random_term(rng, n, max(depth - 2, 0))
    shapes = [
        lambda: Add(abs(s), Meet(copy, other)),
        lambda: Join((s - other).pos(), (other - copy).pos()),
        lambda: Meet(abs(s - other), abs(copy) + other),
        lambda: abs(abs(s) - abs(copy)),
    ]
    return rng.choice(shapes)()


def _corpus():
    rng = random.Random(20261019)
    makers = [random_term, abs_heavy_term, shared_term]
    for k in range(TERMS):
        n = 1 + k % 4
        depth = 1 + (k // 4) % 4
        yield n, makers[k % 3](rng, n, depth)


CORPUS = list(_corpus())


def fraction_term(rng: random.Random, n: int, depth: int):
    """A random term whose scalars, and constants, have denominators
    2-7."""
    def scalar():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                        rng.randint(2, 7))
    if depth <= 0:
        r = rng.random()
        if r < 0.6:
            return gen(rng.randrange(n))
        return Scale(scalar(), One()) if r < 0.85 else One()
    op = rng.choice(["scale", "scale", "add", "join", "meet", "pos"])
    a = fraction_term(rng, n, depth - 1)
    if op == "scale":
        return Scale(scalar(), a)
    if op == "pos":
        return a.pos()
    b = fraction_term(rng, n, depth - 1)
    return {"add": Add, "join": Join, "meet": Meet}[op](a, b)


FRACTION_TERMS = [(1 + k % 3, fraction_term(random.Random(k), 1 + k % 3,
                                            1 + k % 4))
                  for k in range(150)]


def _outcome(fn):
    try:
        return fn()
    except (InputError, ResourceLimitError) as exc:
        return (type(exc), str(exc))


def _new(t, n, limit=DEFAULT_CELL_CEILING):
    return _outcome(lambda: linearize(t, n, limit).pieces)


def _old(t, n, limit=DEFAULT_CELL_CEILING):
    return _outcome(lambda: oracle.linearize_pieces(t, n, limit))


def test_corpus_has_the_intended_shapes():
    pieces = [len(oracle.linearize_pieces(t, n, DEFAULT_CELL_CEILING))
              for n, t in CORPUS]
    assert max(pieces) >= 8 and sum(p > 1 for p in pieces) > TERMS // 3


def test_pieces_identical_cold_and_warm():
    expected = [_old(t, n) for n, t in CORPUS]
    for (n, t), want in zip(CORPUS, expected):
        _node_pieces.cache_clear()
        is_empty.cache_clear()
        assert _new(t, n) == want, str(t)
    # warming: each term is assembled from the cached pieces of the
    # subterms it shares with earlier terms
    for (n, t), want in zip(CORPUS, expected):
        assert _new(t, n) == want, str(t)
    # warm: every node of the corpus is cached
    misses = _node_pieces.cache_info().misses
    for (n, t), want in zip(CORPUS, expected):
        assert _new(t, n) == want, str(t)
    assert _node_pieces.cache_info().misses == misses


def test_skipped_pairs_leave_fewer_emptiness_tests():
    """|t| pairs the pieces of one partition: only the matching pairs are
    built."""
    g0, g1 = gen(0), gen(1)
    _node_pieces.cache_clear()
    is_empty.cache_clear()
    pw = linearize(abs(Join(g0, g1)), 2)
    calls = is_empty.cache_info()
    assert pw.pieces == oracle.linearize_pieces(abs(Join(g0, g1)), 2,
                                                DEFAULT_CELL_CEILING)
    # Join(g0, g1): 2 cells; |.|: 2 of the 4 pairs survive, 2 cells each
    assert calls.hits + calls.misses == 2 + 2 * 2


@pytest.mark.parametrize("limit", [1, 2, 3, 5])
def test_ceilings_fail_alike(limit):
    tripped = 0
    for n, t in CORPUS[::3]:
        want = _old(t, n, limit)
        tripped += isinstance(want, tuple) and \
            want[0] is ResourceLimitError
        _node_pieces.cache_clear()
        assert _new(t, n, limit) == want, str(t)
        # warm: the subterms below the ceiling are cached now
        assert _new(t, n, limit) == want, str(t)
        assert _new(t, n) == _old(t, n)
    assert tripped > 0


def test_generator_outside_dimension_fails_alike():
    t = Add(Join(gen(0), gen(1)), gen(3))
    assert _new(t, 2) == _old(t, 2)
    assert _new(t, 2)[0] is InputError
    # the dimension check precedes any ceiling
    assert _new(t, 2, 1) == _old(t, 2, 1) == _new(t, 2)


SET_KINDS = ("zero", "cozero", "positive", "nonpositive")


def _library_set(t, n, kind):
    if kind == "zero":
        return zero_set(t, n, DEFAULT_CELL_CEILING)
    if kind == "cozero":
        return cozero_set(t, n, DEFAULT_CELL_CEILING)
    return _sign_set(t, n, DEFAULT_CELL_CEILING, kind == "positive")


def _atoms(cells) -> list:
    """Each cell as its atoms in order: key, the types of the key's
    values, and row."""
    return [[(a.key, tuple(map(type, a.key)), a.row) for a in c.atoms]
            for c in cells]


def test_sets_from_integer_pieces_match_the_oracle():
    corpus = CORPUS + FRACTION_TERMS
    for n, t in FRACTION_TERMS:
        assert _new(t, n) == _old(t, n), str(t)
    expected = [[_atoms(oracle.piece_set(t, n, DEFAULT_CELL_CEILING, kind))
                 for kind in SET_KINDS] for n, t in corpus]
    # some atoms hold values that are not integral
    assert any(Fraction in types for sets in expected for cells in sets
               for atoms in cells for _, types, _ in atoms)
    for (n, t), want in zip(corpus, expected):
        for caches in (_node_pieces, zero_set, cozero_set, is_empty):
            caches.cache_clear()
        assert [_atoms(_library_set(t, n, kind).cells)
                for kind in SET_KINDS] == want, str(t)
    # warm: every node's pieces and sets are cached now
    for (n, t), want in zip(corpus, expected):
        assert [_atoms(_library_set(t, n, kind).cells)
                for kind in SET_KINDS] == want, str(t)
