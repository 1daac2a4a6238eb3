"""Differential tests: the integer Fourier-Motzkin kernel against the
Fraction-based reference code in ``oracle_fm``.

On seeded random sets in dimensions 1-4, with fractional coefficients,
positively scaled duplicates of atoms, all-zero (constant) atoms and
several equalities per cell, these must be identical: ``is_empty``
verdicts, ``witness_point`` points (equal, not merely valid),
``eliminate`` cells as their atoms' text in order, ``complement`` and
``includes`` results; ``contains`` must agree with Fraction evaluation,
also when one point object is tested again and the scaled-point memo
answers, and for the points that it never keeps.
The atoms that complement and elimination derive from integer data
(``negations``, ``_from_row``) must equal the ones the oracle builds
through ``Fraction`` forms in every attribute.  Separately seeded sets
whose cells hold a written contradiction (``f > 0`` against ``-f`` or
``f = 0``), which the integer kernel decides by elimination alone, go
through the same comparisons.  Every path of ``witness_point``'s
back-substitution (skip, equality, lower or upper bound alone, strict or
closed, midpoint and single point) runs at least 100 times on the corpus.
``LinearForm``, which holds integers over one denominator, is compared
with the oracle's ``Fraction`` form on seeded forms of dimension 0-4.
"""

import random
from fractions import Fraction
from math import prod

import pytest

import oracle_fm as oracle
from latdev import semilinear
from latdev.errors import InputError
from latdev.semilinear import (EQ, GE, GT, _POINTS, _POINTS_CAP, Cell,
                               Constraint, LinearForm, SemilinearSet,
                               _complement, _from_row, _project,
                               _scaled_point, complement, eliminate,
                               includes, is_empty, lower_shadow_set,
                               upper_shadow_set, witness_point)

from conftest import random_point

SETS = 10_000
# complement and includes multiply cell counts; they run on the sets whose
# De Morgan bound (product of atom counts, equalities twice) is at most this
DE_MORGAN_BOUND = 8


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3]))


def _atom(rng: random.Random, n: int, earlier: list) -> Constraint:
    r = rng.random()
    if earlier and r < 0.15:            # a positively scaled duplicate
        a = rng.choice(earlier)
        return Constraint(a.form.scale(rng.choice(
            [Fraction(2), Fraction(1, 3), Fraction(3, 2)])), a.rel)
    rel = rng.choices([GT, GE, EQ], weights=[4, 4, 3])[0]
    if r < 0.2:                         # all-zero coefficients
        coeffs = [Fraction(0)] * n
    else:
        coeffs = [_coeff(rng) for _ in range(n)]
        if not any(coeffs):
            coeffs[rng.randrange(n)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return Constraint(LinearForm(tuple(coeffs), _coeff(rng)), rel)


def random_fm_set(rng: random.Random, n: int) -> SemilinearSet:
    cells = []
    for _ in range(rng.randint(1, 3)):
        atoms: list = []
        for _ in range(rng.randint(1, 4)):
            atoms.append(_atom(rng, n, atoms))
        cells.append(Cell.of(atoms))
    return SemilinearSet.of(n, cells)


def _de_morgan(S: SemilinearSet) -> int:
    return prod(sum(2 if a.rel == EQ else 1 for a in c.atoms)
                for c in S.cells)


def _corpus():
    """The seeded corpus.  A test that draws from the yielded rng between
    sets changes every later set, so only tests that draw nothing share
    one pass (the ``corpus`` fixture)."""
    rng = random.Random(20261018)
    for k in range(SETS):
        n = 1 + k % 4
        yield n, random_fm_set(rng, n), rng


@pytest.fixture(scope="module")
def corpus():
    """``_corpus()`` without draws in between, built once, with the
    oracle's emptiness verdict and witness point for every cell."""
    return [(n, S, [(oracle.is_empty(c), oracle.witness_point(c, n))
                    for c in S.cells])
            for n, S, _ in _corpus()]


def _text(S: SemilinearSet) -> list:
    return [[str(a) for a in c.atoms] for c in S.cells]


def test_corpus_has_the_intended_shapes(corpus):
    """The generator produces what the module docstring promises."""
    stats = dict(eq2=0, const=0, frac=0, dup=0, empty=0)
    for _, S, verdicts in corpus:
        for c, (empty, _) in zip(S.cells, verdicts):
            stats["eq2"] += sum(a.rel == EQ for a in c.atoms) >= 2
            stats["const"] += any(a.form.is_constant() for a in c.atoms)
            stats["frac"] += any(v.denominator > 1 for a in c.atoms
                                 for v in a.form.coeffs)
            norm = [oracle._normalize(oracle.atom(a)) for a in c.atoms]
            stats["dup"] += any(
                a != b and na == nb
                for a, na in zip(c.atoms, norm)
                for b, nb in zip(c.atoms, norm))
            stats["empty"] += empty
    assert all(v >= 500 for v in stats.values()), stats


def _back_substitution_path(stage, point) -> str:
    """The path that back-substitution takes at one stage of
    ``_project``, read from the stage and the final point in Fraction
    arithmetic: the coordinates after x_i are final when x_i is picked."""
    kind, i = stage[0], stage[1]
    if kind != "ineq":
        return kind
    lows, ups = [], []
    for rel, vec in stage[2]:
        value = sum((c * p for j, (c, p) in enumerate(zip(vec, point))
                     if j != i), Fraction(vec[-1]))
        (lows if vec[i] > 0 else ups).append((-value / vec[i], rel == GT))
    # the greatest lower and least upper bound; strict if any such is
    lo = max(lows, default=None, key=lambda b: (b[0], b[1]))
    up = min(ups, default=None, key=lambda b: (b[0], not b[1]))
    if up is None:
        return "lower strict" if lo[1] else "lower closed"
    if lo is None:
        return "upper strict" if up[1] else "upper closed"
    return "midpoint" if lo[0] < up[0] else "single point"


def test_back_substitution_takes_every_path(corpus):
    """Each path of ``witness_point``'s back-substitution runs at least
    100 times over the corpus."""
    counts = dict.fromkeys(["skip", "eq", "lower strict", "lower closed",
                            "upper strict", "upper closed", "midpoint",
                            "single point"], 0)
    for n, S, verdicts in corpus:
        for c, (empty, point) in zip(S.cells, verdicts):
            if empty:
                continue
            stages, _ = _project([a.row for a in c.atoms], range(n))
            for stage in stages:
                counts[_back_substitution_path(stage, point)] += 1
    assert all(v >= 100 for v in counts.values()), counts


def test_is_empty_and_witness_point(corpus):
    for n, S, verdicts in corpus:
        for c, (empty, point) in zip(S.cells, verdicts):
            assert is_empty(c) == empty, c
            assert witness_point(c, n) == point, c


def test_eliminate_reports_the_same_atoms():
    for n, S, rng in _corpus():
        vs = [i for i in range(n) if rng.random() < 0.5]
        assert _text(eliminate(S, vs)) == _text(oracle.eliminate(S, vs)), \
            (S, vs)


def test_complement_and_includes():
    checked = 0
    for n, S, rng in _corpus():
        T = random_fm_set(rng, n)
        if _de_morgan(S) > DE_MORGAN_BOUND:
            continue
        checked += 1
        assert complement(S) == oracle.complement(S), S
        assert includes(S, T) == oracle.includes(S, T), (S, T)
        assert includes(S, S) == (True, None)
    assert checked >= 5_000


def test_contains_matches_fraction_evaluation():
    for n, S, rng in _corpus():
        points = [random_point(rng, n) for _ in range(3)]
        points += [w for c in S.cells
                   if (w := oracle.witness_point(c, n)) is not None]
        for p in points:
            assert S.contains(p) == oracle.contains(S, p), (S, p)
            for c in S.cells:
                assert c.satisfied_by(p) == oracle.cell_satisfied_by(c, p)
                for a in c.atoms:
                    assert a.satisfied_by(p) == oracle.satisfied_by(a, p)


def _same_atom(a: Constraint, b: Constraint) -> bool:
    """Equal in every attribute (each form read fresh, then compared)."""
    return (a.key, a.row, hash(a), a.form, str(a), a.rel) == \
        (b.key, b.row, hash(b), b.form, str(b), b.rel)


def test_row_built_atoms_match_fraction_built(corpus):
    checked = 0
    for _, S, _ in corpus[::2]:
        for c in S.cells:
            for a in c.atoms:
                negs, old = a.negations(), oracle.negations(a)
                assert len(negs) == len(old), a
                assert all(map(_same_atom, negs, old)), a
                for b in negs + (a,):
                    assert _same_atom(_from_row(b.row),
                                      oracle.from_row(b.row)), b
                checked += 1
    assert checked >= 20_000


def test_atoms_store_no_form(monkeypatch):
    """An atom stores its key and row, not its form, and a complement
    builds no form at all.  Every ``LinearForm`` is made by its
    constructor or by ``semilinear._form``; both are counted."""
    assert "form" not in Constraint.__slots__
    sets = [S for _, S, _ in _corpus() if _de_morgan(S) <= 4]
    made = []
    init = LinearForm.__init__

    def counting_init(self, *args):
        made.append(1)
        init(self, *args)

    def counting_form(*args):
        made.append(1)
        return build(*args)

    build = semilinear._form
    monkeypatch.setattr(LinearForm, "__init__", counting_init)
    monkeypatch.setattr(semilinear, "_form", counting_form)
    assert LinearForm((1,), 2) + LinearForm((3,)) == LinearForm((4,), 2)
    assert len(made) == 4
    made.clear()
    _complement.cache_clear()
    atoms = sum(len(c.atoms) for S in sets for c in complement(S).cells)
    assert atoms >= 1_000 and not made


FORMS = 2_000
# each applied to two forms, latdev's and the oracle's alike; the
# results of the fifth and sixth equal the first, those of the last
# three the seventh
FORM_OPS = [
    lambda a, b: a, lambda a, b: b, lambda a, b: a + b,
    lambda a, b: a - b, lambda a, b: a + b - b,
    lambda a, b: a.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
    lambda a, b: a - a, lambda a, b: -a, lambda a, b: -b,
    lambda a, b: a.scale(-2), lambda a, b: b.scale(Fraction(-3, 2)),
    lambda a, b: a.scale(Fraction(2, 3)), lambda a, b: b.scale(0),
    lambda a, b: a.scale(0), lambda a, b: (a - b).scale(0)]


def test_forms_match_fraction_forms():
    """Values, sums, differences, negation, scaling, evaluation, the
    constant test, text and equality of ``LinearForm``s match those of
    the oracle's ``Fraction`` forms, and ``Constraint(form, rel)`` has the
    key, row and hash that it had when built from a ``Fraction`` form."""
    rng = random.Random(20261022)
    equal = 0
    for k in range(FORMS):
        n = k % 5
        vals = [[_coeff(rng) for _ in range(n + 1)] for _ in range(2)]
        new = [op(*[LinearForm(tuple(v[:-1]), v[-1]) for v in vals])
               for op in FORM_OPS]
        old = [op(*[oracle.Form(tuple(v[:-1]), v[-1]) for v in vals])
               for op in FORM_OPS]
        point = random_point(rng, n)
        for f, g in zip(new, old):
            assert (f.coeffs, f.const, f.dimension) == \
                (g.coeffs, g.const, g.dimension), (f, g)
            assert f.evaluate(point) == g.evaluate(point), (f, point)
            assert f.is_constant() == g.is_constant()
            assert str(f) == str(g)
            for rel in (GT, GE, EQ):
                a = Constraint(f, rel)
                key, row = oracle.key_and_row(g, rel)
                assert (a.key, a.row, hash(a)) == (key, row, hash(key)), f
                assert a.form == f
        for f, g in zip(new, old):
            for f2, g2 in zip(new, old):
                assert (f == f2) == (g == g2), (f, f2)
                assert f != f2 or hash(f) == hash(f2)
                equal += f == f2
    assert equal >= (len(FORM_OPS) + 18) * FORMS


def _coordinates(rng: random.Random, n: int) -> list:
    """One point of int, one of Fraction, one of both and one of
    rational literals such as ``"1/2"``."""
    ints = tuple(rng.randint(-4, 4) for _ in range(n))
    fracs = random_point(rng, n)
    mixed = tuple(rng.choice([i, f]) for i, f in zip(ints, fracs))
    texts = tuple(str(p) for p in random_point(rng, n))
    return [ints, fracs, mixed, texts]


def test_contains_on_complements_matches_fraction_evaluation():
    checked = 0
    for n, S, rng in _corpus():
        if _de_morgan(S) > 3:
            continue
        C = complement(S)
        points = _coordinates(rng, n) + _coordinates(rng, n)
        points += [w for c in C.cells
                   if (w := oracle.witness_point(c, n)) is not None]
        for p in points:
            assert C.contains(p) == oracle.contains(C, p), (C, p)
            assert C.contains(p) != S.contains(p), (S, p)
            for c in C.cells:
                assert c.satisfied_by(p) == oracle.cell_satisfied_by(c, p)
        checked += 1
    assert checked >= 2_000


def test_atom_key_keeps_equality_and_order():
    """Keys store integral values as ints; equality, hashing and the
    ``Cell.of`` order match comparing ``(rel, coeffs, const)``."""
    rng = random.Random(7)
    atoms = [_atom(rng, 3, []) for _ in range(400)]
    for a in atoms:
        assert a.key[0] == a.rel
        assert all(type(v) is int or v.denominator > 1 for v in a.key[1:])
        for b in atoms[:40]:
            same = (a.rel, a.form.coeffs, a.form.const) == \
                (b.rel, b.form.coeffs, b.form.const)
            assert (a == b) == same
            assert not same or hash(a) == hash(b)
    assert list(Cell.of(atoms).atoms) == sorted(
        set(atoms), key=lambda a: (a.rel, a.form.coeffs, a.form.const))


@pytest.mark.parametrize("point", [(Fraction(1, 2),), (1, 2, 3), ()])
def test_membership_checks_dimension(point):
    S = SemilinearSet(2, (Cell.of([Constraint(
        LinearForm((Fraction(1), Fraction(-1, 2))), GT)]),))
    with pytest.raises(InputError):
        S.contains(point)
    with pytest.raises(InputError):
        S.cells[0].atoms[0].satisfied_by(point)
    with pytest.raises(InputError):
        oracle.contains(S, point)


def _memo_sets(rng: random.Random, n: int) -> list:
    """A random set U in dimension n, its complement and its upper and
    lower shadows on a random support."""
    while True:
        U = random_fm_set(rng, n)
        if _de_morgan(U) <= 4:
            break
    X = [i for i in range(n) if rng.random() < 0.5]
    return [U, complement(U), upper_shadow_set(U, X),
            lower_shadow_set(U, X)]


def test_one_point_against_many_sets():
    """Each point is scaled once, at its first test, and every later test
    of the same object reads the memo; the verdicts stay the oracle's."""
    rng = random.Random(20261020)
    checked = 0
    for k in range(300):
        n = 1 + k % 4
        sets = _memo_sets(rng, n)
        points = [random_point(rng, n) for _ in range(3)]
        points += [w for c in sets[0].cells
                   if (w := witness_point(c, n)) is not None]
        _scaled_point.cache_clear()
        for p in points:
            for T in sets:
                assert T.contains(p) == oracle.contains(T, p), (T, p)
                for c in T.cells:
                    assert c.satisfied_by(p) == \
                        oracle.cell_satisfied_by(c, p)
                assert _POINTS[id(p)][0] is p
                checked += 1
    assert checked >= 3_000


def test_memo_hit_checks_dimension():
    p = (Fraction(1, 2), 1)
    two = SemilinearSet(2, (Cell.of([Constraint(
        LinearForm((Fraction(1), Fraction(-1, 2))), GT)]),))
    three = SemilinearSet.whole(3)
    assert two.contains(p) == oracle.contains(two, p) is False
    assert _POINTS[id(p)][0] is p
    for check in (lambda: three.contains(p),
                  lambda: oracle.contains(three, p),
                  lambda: Cell.of([Constraint(LinearForm(
                      (Fraction(1),) * 3), GE)]).satisfied_by(p),
                  lambda: Constraint(LinearForm((Fraction(1),)),
                                     GT).satisfied_by(p)):
        with pytest.raises(InputError, match="point dimension mismatch"):
            check()


def test_changed_list_point_gets_new_verdict():
    half = SemilinearSet(2, (Cell.of([Constraint(
        LinearForm((Fraction(1), Fraction(0))), GT)]),))
    p = [Fraction(1, 3), 0]
    for first, verdict in ((Fraction(1, 3), True), (Fraction(-1, 3), False),
                           (2, True)):
        p[0] = first
        assert half.contains(p) is verdict
        assert oracle.contains(half, p) is verdict
        assert half.cells[0].satisfied_by(p) is verdict
        assert id(p) not in _POINTS


def test_equal_distinct_tuples_agree():
    rng = random.Random(20261021)
    for k in range(100):
        n = 1 + k % 4
        sets = _memo_sets(rng, n)
        p = random_point(rng, n)
        q = tuple(list(p))
        assert p == q and p is not q
        for T in sets:
            assert T.contains(p) == T.contains(q) == oracle.contains(T, p)


class _Tuple(tuple):
    pass


@pytest.mark.parametrize("point", [
    ("1/2", 1), (0.5, 1), (True, 1), (Fraction(1, 2), False),
    (Fraction(1, 2), -0.25), _Tuple((Fraction(1, 2), 1))])
def test_points_never_kept(point):
    """Points of strings, floats or bools, and tuple subclasses, are
    scaled at every call, with the verdicts of Fraction evaluation."""
    for T in (SemilinearSet(2, (Cell.of([Constraint(
            LinearForm((Fraction(1), Fraction(-1))), GE)]),)),
              SemilinearSet.whole(2)):
        for _ in range(2):
            assert T.contains(point) == oracle.contains(T, point)
            assert id(point) not in _POINTS


def test_memo_holds_at_most_its_cap():
    rng = random.Random(20261022)
    S = random_fm_set(rng, 2)
    points = [random_point(rng, 2) for _ in range(3 * _POINTS_CAP)]
    _scaled_point.cache_clear()
    sizes = []
    for p in points + points[::-1]:
        assert S.contains(p) == oracle.contains(S, p), p
        sizes.append(len(_POINTS))
    assert max(sizes) == _POINTS_CAP
    _scaled_point.cache_clear()
    assert not _POINTS


CONTRADICTIONS = 1_500


def _contradiction_sets():
    """Seeded sets whose first cell holds a written contradiction: 0-4
    random atoms plus ``f > 0`` with ``c*(-f) >= 0``, ``c*(-f) > 0`` or
    ``f = 0`` for a random c > 0, where f mentions the first variable in
    half of the cells and only the last variable in the others; a second,
    random cell in half of the sets.  Built apart from the corpus, which
    rarely holds such cells (the integer kernel has no shortcut for them;
    the oracle's ``is_empty`` does)."""
    rng = random.Random(20261019)
    for k in range(CONTRADICTIONS):
        n = 1 + k % 4
        atoms: list = []
        for _ in range(rng.randint(0, 4)):
            atoms.append(_atom(rng, n, atoms))
        if k // 4 % 2:
            coeffs = [_coeff(rng) for _ in range(n)]
            lead = 0
        else:
            coeffs = [Fraction(0)] * n
            lead = n - 1
        coeffs[lead] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                rng.choice([1, 2]))
        f = LinearForm(tuple(coeffs), _coeff(rng))
        c = Fraction(rng.randint(1, 4), rng.choice([1, 1, 2, 3]))
        kind = rng.choice([GE, GT, EQ])
        second = Constraint(f, EQ) if kind == EQ else \
            Constraint((-f).scale(c), kind)
        atoms += [Constraint(f, GT), second]
        rng.shuffle(atoms)
        cells = [Cell.of(atoms)]
        if rng.random() < 0.5:
            cells += random_fm_set(rng, n).cells[:1]
        yield n, SemilinearSet.of(n, cells), rng, kind


def test_written_contradictions_match_oracle():
    """The cells whose emptiness the deleted syntactic test used to
    decide: elimination alone reaches the oracle's verdicts, points and
    projections, and (within the De Morgan bound) its complements and
    inclusions."""
    kinds = {GE: 0, GT: 0, EQ: 0}
    compared = 0
    for n, S, rng, kind in _contradiction_sets():
        kinds[kind] += 1
        cell = S.cells[0]
        assert is_empty(cell) and oracle.is_empty(cell), cell
        assert witness_point(cell, n) is None
        assert oracle.witness_point(cell, n) is None
        for c in S.cells[1:]:
            assert is_empty(c) == oracle.is_empty(c), c
            assert witness_point(c, n) == oracle.witness_point(c, n), c
        for _ in range(2):
            vs = [i for i in range(n) if rng.random() < 0.5]
            assert _text(eliminate(S, vs)) == \
                _text(oracle.eliminate(S, vs)), (S, vs)
        T = random_fm_set(rng, n)
        if _de_morgan(S) <= DE_MORGAN_BOUND:
            assert complement(S) == oracle.complement(S), S
            assert includes(S, T) == oracle.includes(S, T), (S, T)
            compared += 1
        if _de_morgan(T) <= DE_MORGAN_BOUND:
            assert includes(T, S) == oracle.includes(T, S), (S, T)
    assert min(kinds.values()) >= 400 and compared >= 800, \
        (kinds, compared)
