"""Exact semilinear sets over ℚⁿ.

A *cell* is a finite conjunction of atoms ``form > 0``, ``form >= 0`` or
``form = 0`` where ``form`` is an affine linear form with rational
coefficients; a *semilinear set* is a finite union of cells.  All
decisions (emptiness, inclusion, projection) are exact, via
Fourier-Motzkin elimination: a bound derived from one strict and one
non-strict parent is strict.  Equality atoms are eliminated by
substitution when possible.

Cells are kept as written apart from duplicate-atom removal; empty cells
are pruned by the operations that create new cells.  Set equality is
semantic (mutual inclusion), never syntactic.

Operations that multiply cell counts (complement, intersection) enforce
a configurable ceiling (default ``DEFAULT_CELL_CEILING``) and raise
:class:`ResourceLimitError` beyond it.

Variables are 0-indexed and written ``x0, x1, ...`` in the textual
format, e.g. ``"2*x0 - 1/3*x1 + 1 > 0"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple

from .errors import ContractError, InputError, ResourceLimitError

DEFAULT_CELL_CEILING = 10_000

GT, GE, EQ = ">", ">=", "="
_RELS = (GT, GE, EQ)


@dataclass(frozen=True)
class LinearForm:
    """An affine form  c0*x0 + ... + c{n-1}*x{n-1} + const."""
    coeffs: Tuple[Fraction, ...]
    const: Fraction = Fraction(0)

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.coeffs):
            raise InputError("point dimension mismatch")
        return sum((c * Fraction(p) for c, p in zip(self.coeffs, point)),
                   self.const)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                          self.const + other.const)

    def __neg__(self) -> "LinearForm":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def scale(self, q) -> "LinearForm":
        q = Fraction(q)
        return LinearForm(tuple(q * c for c in self.coeffs), q * self.const)

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            term = f"x{i}" if mag == 1 else f"{mag}*x{i}"
            parts.append(("-" if c < 0 else "+", term))
        if self.const != 0 or not parts:
            parts.append(("-" if self.const < 0 else "+", str(abs(self.const))))
        sign0, t0 = parts[0]
        out = ("-" if sign0 == "-" else "") + t0
        for sign, t in parts[1:]:
            out += f" {sign} {t}"
        return out


def form(coeffs, const=0) -> LinearForm:
    return LinearForm(tuple(Fraction(c) for c in coeffs), Fraction(const))


def unit_form(n: int, i: int, coeff=1, const=0) -> LinearForm:
    coeffs = [Fraction(0)] * n
    coeffs[i] = Fraction(coeff)
    return LinearForm(tuple(coeffs), Fraction(const))


@dataclass(frozen=True)
class Constraint:
    """An atom  form rel 0  with rel one of >, >=, =."""
    form: LinearForm
    rel: str

    def __post_init__(self):
        if self.rel not in _RELS:
            raise InputError(f"relation must be one of {_RELS}, got {self.rel!r}")

    def satisfied_by(self, point) -> bool:
        v = self.form.evaluate(point)
        return v > 0 if self.rel == GT else v >= 0 if self.rel == GE else v == 0

    def negations(self) -> tuple:
        """Atoms whose disjunction is the complement of this atom."""
        if self.rel == GT:
            return (Constraint(-self.form, GE),)
        if self.rel == GE:
            return (Constraint(-self.form, GT),)
        return (Constraint(self.form, GT), Constraint(-self.form, GT))

    def __str__(self) -> str:
        return f"{self.form} {self.rel} 0"


def _atom_key(a: Constraint):
    return (a.rel, a.form.coeffs, a.form.const)


@dataclass(frozen=True)
class Cell:
    """A conjunction of atoms; no atoms means the whole space."""
    atoms: Tuple[Constraint, ...]

    @classmethod
    def of(cls, atoms: Iterable[Constraint]) -> "Cell":
        uniq = sorted(set(atoms), key=_atom_key)
        return cls(tuple(uniq))

    def satisfied_by(self, point) -> bool:
        return all(a.satisfied_by(point) for a in self.atoms)

    def dimension_consistent(self, n: int) -> bool:
        return all(a.form.dimension == n for a in self.atoms)


@dataclass(frozen=True)
class SemilinearSet:
    """A finite union of cells in a fixed dimension."""
    dimension: int
    cells: Tuple[Cell, ...]

    def __post_init__(self):
        for c in self.cells:
            if not c.dimension_consistent(self.dimension):
                raise InputError("cell atoms disagree with declared dimension")

    @classmethod
    def whole(cls, n: int) -> "SemilinearSet":
        return cls(n, (Cell(()),))

    @classmethod
    def empty(cls, n: int) -> "SemilinearSet":
        return cls(n, ())

    @classmethod
    def of(cls, n: int, cells: Iterable[Cell]) -> "SemilinearSet":
        seen = []
        for c in cells:
            if c not in seen:
                seen.append(c)
        return cls(n, tuple(seen))

    def contains(self, point) -> bool:
        if len(point) != self.dimension:
            raise InputError("point dimension mismatch")
        pt = tuple(Fraction(p) for p in point)
        return any(c.satisfied_by(pt) for c in self.cells)


# ---------------------------------------------------------------------------
# Fourier-Motzkin machinery (internal atoms normalized to primitive
# integer vectors; positive scaling preserves semantics)
# ---------------------------------------------------------------------------

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


@lru_cache(maxsize=1 << 17)
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
    if not cell.satisfied_by(pt):
        raise ContractError("back-substitution produced a bad point")
    return pt


# ---------------------------------------------------------------------------
# Set-level operations
# ---------------------------------------------------------------------------

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


def is_empty_set(S: SemilinearSet) -> bool:
    return all(is_empty(c) for c in S.cells)


def set_witness(S: SemilinearSet) -> Optional[tuple]:
    """A point of S, or None if S is empty."""
    for c in S.cells:
        w = witness_point(c, S.dimension)
        if w is not None:
            return w
    return None


def union(S: SemilinearSet, T: SemilinearSet) -> SemilinearSet:
    if S.dimension != T.dimension:
        raise InputError("dimension mismatch")
    return SemilinearSet.of(S.dimension, S.cells + T.cells)


def intersect(S: SemilinearSet, T: SemilinearSet,
              ceiling: Optional[int] = None) -> SemilinearSet:
    if S.dimension != T.dimension:
        raise InputError("dimension mismatch")
    out: list = []
    for a in S.cells:
        for b in T.cells:
            _accumulate(out, Cell.of(a.atoms + b.atoms), ceiling)
    return SemilinearSet(S.dimension, tuple(out))


def complement(S: SemilinearSet,
               ceiling: Optional[int] = None) -> SemilinearSet:
    """De Morgan expansion of the pointwise complement."""
    acc = [Cell(())]
    for cell in S.cells:
        options = [neg for atom in cell.atoms for neg in atom.negations()]
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
                if not T.contains(w) or S.contains(w):
                    raise ContractError(f"inclusion witness {w} fails")
                return (False, w)
    return (True, None)


def same_set(S: SemilinearSet, T: SemilinearSet,
             ceiling: Optional[int] = None) -> bool:
    return includes(S, T, ceiling)[0] and includes(T, S, ceiling)[0]


# ---------------------------------------------------------------------------
# Shadows on a variable support and interpolation
# ---------------------------------------------------------------------------

def upper_shadow_set(U: SemilinearSet, X: Iterable[int],
                     ceiling: Optional[int] = None) -> SemilinearSet:
    """Smallest X-definable superset of U: project away the variables
    outside X.  Atoms of the result mention only variables in X."""
    X = set(X)
    return eliminate(U, [i for i in range(U.dimension) if i not in X], ceiling)


def lower_shadow_set(U: SemilinearSet, X: Iterable[int],
                     ceiling: Optional[int] = None) -> SemilinearSet:
    """Largest X-definable subset of U."""
    return complement(upper_shadow_set(complement(U, ceiling), X, ceiling),
                      ceiling)


def interpolant(U: SemilinearSet, X: Iterable[int], V: SemilinearSet,
                Y: Iterable[int],
                ceiling: Optional[int] = None) -> SemilinearSet:
    """A set W definable over X ∩ Y with U ⊆ W ⊆ V, given U ⊆ V with U
    definable over X and V over Y.  W is the upper shadow of U on X ∩ Y;
    the sandwich is verified before returning."""
    X, Y = set(X), set(Y)
    if U.dimension != V.dimension:
        raise InputError("dimension mismatch")
    for S, Z, name in ((U, X, "U"), (V, Y, "V")):
        back = upper_shadow_set(S, Z, ceiling)
        ok, w = includes(S, back, ceiling)
        if not ok:
            raise ContractError(
                f"{name} is not definable over its declared support; "
                f"witness {w}")
    ok, w = includes(V, U, ceiling)
    if not ok:
        raise ContractError(f"U is not included in V; witness {w}")
    W = upper_shadow_set(U, X & Y, ceiling)
    ok1, _ = includes(W, U, ceiling)
    ok2, _ = includes(V, W, ceiling)
    if not (ok1 and ok2):
        raise ContractError("interpolant sandwich failed")
    return W


def is_homogeneous_strict(S: SemilinearSet) -> bool:
    """Whether every atom is a strict homogeneous inequality (the shape
    of generating sets of the open-cone lattice over a variable set)."""
    return all(a.rel == GT and a.form.const == 0
               for c in S.cells for a in c.atoms)


def is_proper(S: SemilinearSet, ceiling: Optional[int] = None) -> bool:
    """Whether S is not the whole space."""
    return not includes(S, SemilinearSet.whole(S.dimension), ceiling)[0]


# ---------------------------------------------------------------------------
# Textual format
# ---------------------------------------------------------------------------

_TERM = re.compile(r"""
    \s*(?P<sign>[+-])?\s*
    (?:
        (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*x(?P<var1>\d+))?
      | x(?P<var2>\d+)
    )
""", re.VERBOSE)


def parse_linear_form(text: str, n: int) -> LinearForm:
    coeffs = [Fraction(0)] * n
    const = Fraction(0)
    pos = 0
    first = True
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (not first and m.group("sign") is None):
            raise InputError(f"cannot parse linear form at: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("var2") is not None:
            i = int(m.group("var2"))
            coef = Fraction(sign)
        else:
            coef = sign * Fraction(m.group("coef"))
            i = int(m.group("var1")) if m.group("var1") is not None else None
        if i is None:
            const += coef
        else:
            if i >= n:
                raise InputError(f"variable x{i} outside dimension {n}")
            coeffs[i] += coef
        pos = m.end()
        first = False
    return LinearForm(tuple(coeffs), const)


def parse_constraint(text: str, n: int) -> Constraint:
    m = re.search(r"(>=|<=|>|<|=)", text)
    if not m:
        raise InputError(f"no relation in constraint: {text!r}")
    rel = m.group(1)
    lhs = parse_linear_form(text[:m.start()], n)
    rhs = parse_linear_form(text[m.end():], n)
    f = lhs - rhs
    if rel == "<":
        f, rel = -f, GT
    elif rel == "<=":
        f, rel = -f, GE
    return Constraint(f, rel)


def parse_cell(atom_texts: Iterable[str], n: int) -> Cell:
    return Cell.of(parse_constraint(t, n) for t in atom_texts)


def parse_set(cells: Iterable[Iterable[str]], n: int) -> SemilinearSet:
    return SemilinearSet.of(n, (parse_cell(c, n) for c in cells))
