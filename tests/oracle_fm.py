"""Fraction-based Fourier-Motzkin reference code (test oracle).

This is the exact-``Fraction`` elimination that the integer kernel in
``latdev.semilinear`` replaced, kept verbatim so that the differential
tests in ``test_fm_kernel.py`` can compare the two: the atom helpers
(normalization, combination, pivot substitution, tidying and the
syntactic emptiness test, which the integer kernel no longer has: it
decides emptiness by elimination alone), the three elimination loops
of ``is_empty``, ``witness_point`` and ``eliminate``, and the set-level
``complement`` and ``includes`` built on them.

Departures from the replaced text: ``is_empty`` is not cached, membership
is decided by ``satisfied_by``/``contains`` below (the replaced
``Constraint.satisfied_by`` and ``SemilinearSet.contains``, evaluating
each form in ``Fraction``), and ``complement`` negates atoms with
``negations`` below (the replaced ``Constraint.negations``, building
each negated atom from its ``Fraction`` form), so that no check here
runs the integer kernel.  ``from_row`` is the replaced ``_from_row``,
which built the atom of an integer row through its ``Fraction`` form;
``test_fm_kernel.py`` compares the row-built atoms with both.

``linearize_pieces`` is the piecewise-form computation of
``latdev.vlterms`` that the per-node cache replaced (``test_linearize.py``
compares the two): one recursive walk per term with a per-call memo,
building and testing every pair of pieces.  Departures: it is not
cached, and its emptiness test is ``is_empty`` below.  ``piece_set``
builds the zero, cozero and sign sets of a term from those pieces, each
atom as ``Constraint(form, rel)`` of its ``Fraction`` form, as
``vlterms`` built them before its pieces became integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Optional

from latdev.errors import ContractError, InputError, ResourceLimitError
from latdev.semilinear import (DEFAULT_CELL_CEILING, EQ, GE, GT, Cell,
                               Constraint, LinearForm, SemilinearSet)
from latdev.vlterms import (Add, Gen, Join, Meet, One, Scale, VLTerm,
                            max_generator)


def satisfied_by(a: Constraint, point) -> bool:
    v = a.form.evaluate(point)
    return v > 0 if a.rel == GT else v >= 0 if a.rel == GE else v == 0


def cell_satisfied_by(cell: Cell, point) -> bool:
    return all(satisfied_by(a, point) for a in cell.atoms)


def contains(S: SemilinearSet, point) -> bool:
    if len(point) != S.dimension:
        raise InputError("point dimension mismatch")
    pt = tuple(Fraction(p) for p in point)
    return any(cell_satisfied_by(c, pt) for c in S.cells)


def negations(a: Constraint) -> tuple:
    """Atoms whose disjunction is the complement of this atom."""
    if a.rel == GT:
        return (Constraint(-a.form, GE),)
    if a.rel == GE:
        return (Constraint(-a.form, GT),)
    return (Constraint(a.form, GT), Constraint(-a.form, GT))


def from_row(row: tuple) -> Constraint:
    rel, vec = row
    return Constraint(LinearForm(tuple(map(Fraction, vec[:-1])),
                                 Fraction(vec[-1])), rel)


def _atom_key(a: Constraint):
    return (a.rel, a.form.coeffs, a.form.const)


def _normalize(a: Constraint) -> Constraint:
    nums = list(a.form.coeffs) + [a.form.const]
    denoms = [f.denominator for f in nums]
    L = lcm(*denoms) if denoms else 1
    ints = [int(f * L) for f in nums]
    g = gcd(*(abs(v) for v in ints)) if any(ints) else 1
    g = g or 1
    scaled = [Fraction(v, g) for v in ints]
    return Constraint(LinearForm(tuple(scaled[:-1]), scaled[-1]), a.rel)


def _combine(lo: Constraint, up: Constraint, i: int) -> Constraint:
    """Eliminate x_i from a lower (positive coeff) and upper (negative
    coeff) bound; strict iff either parent strict."""
    c1 = lo.form.coeffs[i]
    c2 = up.form.coeffs[i]
    new = lo.form.scale(-c2) + up.form.scale(c1)
    rel = GT if (lo.rel == GT or up.rel == GT) else GE
    return _normalize(Constraint(new, rel))


def _substitute_pivot(atom: Constraint, pivot: Constraint, i: int) -> Constraint:
    """Replace x_i in atom using the equality pivot (pivot coeff != 0)."""
    c = atom.form.coeffs[i]
    if c == 0:
        return atom
    p = pivot.form.coeffs[i]
    new = atom.form + pivot.form.scale(-c / p)
    return _normalize(Constraint(new, atom.rel))


def _const_atom_true(a: Constraint) -> bool:
    v = a.form.const
    return v > 0 if a.rel == GT else v >= 0 if a.rel == GE else v == 0


def _step(atoms: list, i: int):
    """One elimination step for x_i.  Returns (stage, new_atoms) where
    stage is ('skip', i), ('eq', i, pivot) or ('ineq', i, involved)."""
    involved = [a for a in atoms if a.form.coeffs[i] != 0]
    if not involved:
        return ("skip", i, ()), atoms
    rest = [a for a in atoms if a.form.coeffs[i] == 0]
    pivot = next((a for a in involved if a.rel == EQ), None)
    if pivot is not None:
        new = [_substitute_pivot(a, pivot, i) for a in atoms if a is not pivot]
        return ("eq", i, pivot), new
    lowers = [a for a in involved if a.form.coeffs[i] > 0]
    uppers = [a for a in involved if a.form.coeffs[i] < 0]
    derived = [_combine(lo, up, i) for lo in lowers for up in uppers]
    return ("ineq", i, tuple(involved)), rest + derived


def _tidy(atoms: Iterable[Constraint]):
    """Drop true constant atoms and exact duplicates; None on a false
    constant atom."""
    out = []
    seen = set()
    for a in atoms:
        if a.form.is_constant():
            if not _const_atom_true(a):
                return None
            continue
        k = _atom_key(a)
        if k not in seen:
            seen.add(k)
            out.append(a)
    return out


def _obviously_empty(atoms) -> bool:
    """Syntactic fast path: an atom  f > 0  together with any atom on the
    negated form (or  f = 0  on the same form) is contradictory.  Catches
    the sibling cells produced by case-splitting without running a full
    elimination."""
    rels: dict = {}
    for a in atoms:
        key = (a.form.coeffs, a.form.const)
        rels.setdefault(key, set()).add(a.rel)
    for (coeffs, const), rs in rels.items():
        if GT not in rs:
            continue
        if EQ in rs:
            return True
        neg = (tuple(-c for c in coeffs), -const)
        if neg in rels:
            return True
    return False


def is_empty(cell: Cell) -> bool:
    """Whether no rational point satisfies all atoms of the cell."""
    if not cell.atoms:
        return False
    if _obviously_empty(cell.atoms):
        return True
    n = cell.atoms[0].form.dimension
    atoms = _tidy(cell.atoms)
    if atoms is None:
        return True
    for i in range(n):
        _, atoms = _step(atoms, i)
        atoms = _tidy(atoms)
        if atoms is None:
            return True
        if _obviously_empty(atoms):
            return True
    return False


def witness_point(cell: Cell,
                  dimension: Optional[int] = None) -> Optional[tuple]:
    """A rational point satisfying every atom, or None if the cell is
    empty.  The point is verified by evaluation before being returned."""
    if not cell.atoms:
        if dimension is None:
            raise InputError("dimension required for the unconstrained cell")
        return tuple(Fraction(0) for _ in range(dimension))
    n = cell.atoms[0].form.dimension
    if dimension is not None and dimension != n:
        raise InputError("dimension mismatch")
    atoms = _tidy(cell.atoms)
    if atoms is None:
        return None
    stages = []
    for i in range(n):
        stage, atoms = _step(atoms, i)
        stages.append(stage)
        atoms = _tidy(atoms)
        if atoms is None:
            return None
    point: dict = {}

    def value_at(f: LinearForm, skip: int) -> Fraction:
        return f.const + sum(
            (f.coeffs[j] * point[j] for j in range(n)
             if j != skip and f.coeffs[j] != 0), Fraction(0))

    for stage in reversed(stages):
        kind, i = stage[0], stage[1]
        if kind == "skip":
            point[i] = Fraction(0)
        elif kind == "eq":
            pivot = stage[2]
            point[i] = -value_at(pivot.form, i) / pivot.form.coeffs[i]
        else:
            lo = up = None
            lo_strict = up_strict = False
            for a in stage[2]:
                c = a.form.coeffs[i]
                bound = -value_at(a.form, i) / c
                strict = a.rel == GT
                if c > 0:
                    if lo is None or bound > lo or (bound == lo and strict):
                        lo, lo_strict = bound, strict
                else:
                    if up is None or bound < up or (bound == up and strict):
                        up, up_strict = bound, strict
            if lo is None and up is None:
                point[i] = Fraction(0)
            elif up is None:
                point[i] = lo + 1 if lo_strict else lo
            elif lo is None:
                point[i] = up - 1 if up_strict else up
            elif lo < up:
                point[i] = (lo + up) / 2
            else:
                if lo != up or lo_strict or up_strict:
                    raise ContractError(
                        f"back-substitution met an empty interval at x{i}")
                point[i] = lo
    pt = tuple(point[i] for i in range(n))
    if not cell_satisfied_by(cell, pt):
        raise ContractError("back-substitution produced a bad point")
    return pt


def _guard(count: int, ceiling: Optional[int]):
    limit = DEFAULT_CELL_CEILING if ceiling is None else ceiling
    if count > limit:
        raise ResourceLimitError(
            f"cell count {count} exceeds ceiling {limit}")


def _accumulate(out: list, cell: Cell, ceiling: Optional[int]):
    """Add a cell to a union-in-progress, dropping empty and subsumed
    cells (an atom superset denotes a subset region)."""
    if is_empty(cell):
        return
    atoms = set(cell.atoms)
    for c in out:
        if set(c.atoms) <= atoms:
            return
    out[:] = [c for c in out if not atoms <= set(c.atoms)]
    out.append(cell)
    _guard(len(out), ceiling)


def complement(S: SemilinearSet,
               ceiling: Optional[int] = None) -> SemilinearSet:
    """De Morgan expansion of the pointwise complement."""
    acc = [Cell(())]
    for cell in S.cells:
        options = [neg for atom in cell.atoms for neg in negations(atom)]
        nxt: list = []
        for base in acc:
            for opt in options:
                _accumulate(nxt, Cell.of(base.atoms + (opt,)), ceiling)
        acc = nxt
        if not acc:
            break
    return SemilinearSet(S.dimension, tuple(acc))


def eliminate(S: SemilinearSet, variables: Iterable[int],
              ceiling: Optional[int] = None) -> SemilinearSet:
    """Existential projection over the listed variables, cylindrified
    back to the ambient dimension (projected coordinates unconstrained)."""
    vs = sorted(set(variables))
    for i in vs:
        if not 0 <= i < S.dimension:
            raise InputError(f"variable index {i} out of range")
    out = []
    for cell in S.cells:
        atoms = _tidy(cell.atoms)
        if atoms is None:
            continue
        dead = False
        for i in vs:
            _, atoms = _step(atoms, i)
            atoms = _tidy(atoms)
            if atoms is None:
                dead = True
                break
        if dead:
            continue
        c = Cell.of(atoms)
        if not is_empty(c) and c not in out:
            out.append(c)
        _guard(len(out), ceiling)
    return SemilinearSet(S.dimension, tuple(out))


def includes(S: SemilinearSet, T: SemilinearSet,
             ceiling: Optional[int] = None) -> tuple:
    """Whether T ⊆ S.  Returns (True, None) or (False, witness) with a
    verified witness point in T \\ S."""
    if S.dimension != T.dimension:
        raise InputError("dimension mismatch")
    comp = complement(S, ceiling)
    for t in T.cells:
        for c in comp.cells:
            w = witness_point(Cell.of(t.atoms + c.atoms), S.dimension)
            if w is not None:
                if not contains(T, w) or contains(S, w):
                    raise ContractError(f"inclusion witness {w} fails")
                return (False, w)
    return (True, None)


def linearize_pieces(t: VLTerm, n: int, limit: int) -> tuple:
    if max_generator(t) >= n:
        raise InputError("term uses a generator outside the declared dimension")
    memo: Dict[VLTerm, tuple] = {}

    def guard(pieces):
        if len(pieces) > limit:
            raise ResourceLimitError(
                f"piece count {len(pieces)} exceeds ceiling {limit}")
        return pieces

    def go(s: VLTerm) -> tuple:
        if s in memo:
            return memo[s]
        if isinstance(s, Gen):
            coeffs = [Fraction(0)] * n
            coeffs[s.index] = Fraction(1)
            out = ((Cell(()), LinearForm(tuple(coeffs))),)
        elif isinstance(s, One):
            out = ((Cell(()), LinearForm(tuple([Fraction(0)] * n),
                                         Fraction(1))),)
        elif isinstance(s, Scale):
            out = tuple((c, f.scale(s.coeff)) for c, f in go(s.arg))
        elif isinstance(s, Add):
            acc = []
            for c1, f1 in go(s.left):
                for c2, f2 in go(s.right):
                    cell = Cell.of(c1.atoms + c2.atoms)
                    if not is_empty(cell):
                        acc.append((cell, f1 + f2))
            out = tuple(guard(acc))
        elif isinstance(s, (Join, Meet)):
            keep_left_closed = isinstance(s, Join)
            acc = []
            for c1, f1 in go(s.left):
                for c2, f2 in go(s.right):
                    base = c1.atoms + c2.atoms
                    diff = f1 - f2
                    # join keeps the larger branch, meet the smaller
                    first = Cell.of(base + (Constraint(
                        diff if keep_left_closed else -diff, GE),))
                    second = Cell.of(base + (Constraint(
                        -diff if keep_left_closed else diff, GT),))
                    if not is_empty(first):
                        acc.append((first, f1))
                    if not is_empty(second):
                        acc.append((second, f2))
            out = tuple(guard(acc))
        else:
            raise InputError(f"not a term: {s!r}")
        memo[s] = out
        return out

    return go(t)


def piece_set(t: VLTerm, n: int, limit: int, kind: str) -> tuple:
    """The cells of the zero set (``kind`` "zero"), the cozero set
    ("cozero"), {t > 0} ("positive") or {t <= 0} ("nonpositive") of a
    term: over its pieces (cell, f) in order, the nonempty cells
    ``cell ∧ atoms`` for the atom tuples below.  A constant piece of the
    zero set is kept whole when it is 0 and dropped otherwise."""
    def extras(f: LinearForm) -> list:
        if kind == "zero":
            if not f.is_constant():
                return [(Constraint(f, EQ),)]
            return [()] if f.const == 0 else []
        if kind == "cozero":
            return [(Constraint(f, GT),), (Constraint(-f, GT),)]
        if kind == "positive":
            return [(Constraint(f, GT),)]
        return [(Constraint(-f, GE),)]

    cells = []
    for cell, f in linearize_pieces(t, n, limit):
        for atoms in extras(f):
            c = Cell.of(cell.atoms + atoms) if atoms else cell
            if not is_empty(c):
                cells.append(c)
    return tuple(cells)
