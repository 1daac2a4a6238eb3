"""Exact semilinear sets over ℚⁿ.

A *cell* is a finite conjunction of atoms ``form > 0``, ``form >= 0`` or
``form = 0`` where ``form`` is an affine linear form with rational
coefficients; a *semilinear set* is a finite union of cells.  All
decisions (emptiness, inclusion, projection) are exact, via
Fourier-Motzkin elimination: a bound derived from one strict and one
non-strict parent is strict.  Equality atoms are eliminated by
substitution when possible.

The elimination runs on integer rows: an atom becomes its relation and
the primitive integer vector ``(c0, ..., c{n-1}, const)`` of its form
(scaled by a positive rational, which keeps its meaning; computed once,
when the atom is built), and a single
projection loop, ``_project``, serves emptiness, witness points and
projection; each of its steps makes one pass over the rows and reduces
each row it builds to a primitive one inline.  The atoms that complement
and elimination derive, and those that ``vlterms`` builds from the
integer rows of its pieces (``_row_atom``), carry only their key and
row (negated, copied from a projected row, or read off an integer row
over one denominator); their ``LinearForm`` is built
on first read, which only the textual format, reports and callers that
ask for ``form`` do.  Membership tests scale the point to integers over
one common denominator and read the sign of each atom's primitive row
there, in integer arithmetic; a coordinate that is not a finite rational
is an input error.  Witness points are back-substituted the same way, as
integer numerators over one common denominator, and verified there;
their coordinates become ``Fraction``s once, when returned.  Fractions
remain only where rational values are the result: those coordinates,
``LinearForm.evaluate`` and the textual format.

Cells are kept as written apart from duplicate-atom removal; empty cells
are pruned by the operations that create new cells.  Projection reports
the atoms that mention no eliminated variable as written and the derived
ones as primitive integer forms.  Set equality is semantic (mutual
inclusion), never syntactic.

Operations that multiply cell counts (complement, intersection) enforce
a configurable ceiling (default ``DEFAULT_CELL_CEILING``) and raise
:class:`ResourceLimitError` beyond it; so does an elimination step that
would build more than ``MAX_FM_ROWS`` rows.

Two results are cached, each by a module-level ``functools`` cache:
``is_empty`` on the cell (its atoms in order), and ``complement`` on the
set (its dimension and its cells in order) and the ceiling, where no
ceiling means ``DEFAULT_CELL_CEILING``.  A raised error is never cached,
so a complement within one ceiling still fails a lower one.  Scaled
points are memoized by identity (``_POINTS``): a point that is an exact
``tuple`` of exact ``int``s and ``Fraction``s cannot change, so it is
scaled at its first membership test and every later test of the same
object, against any set, cell or atom, reads its integers back; the
dimension is still checked at every call, and any other point (a list,
or coordinates of other types) is scaled at every call.  The memo holds
at most ``_POINTS_CAP`` points and is emptied when full, and by
``_scaled_point.cache_clear``.  ``includes``
walks to the first nonempty meet t ∧ c of a cell t of T and a cell c of
the complement of S (``_first_meet``, which tests each partial meet with
``is_empty`` and builds no intersection) and back-substitutes only that
cell; ``witness_point`` is not cached and reads ``MAX_FM_ROWS`` at each
call.
The sets that complement, intersection and elimination build from the
atoms of checked sets are stored without re-checking the dimension of
every atom (``SemilinearSet._built``); the constructor checks outside
input.

Variables are 0-indexed and written ``x0, x1, ...`` in the textual
format, e.g. ``"2*x0 - 1/3*x1 + 1 > 0"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter, mul, neg as _neg
from typing import Iterable, Optional, Sequence, Tuple

from .errors import ContractError, InputError, ResourceLimitError, _Frozen

DEFAULT_CELL_CEILING = 10_000
# Most rows one Fourier-Motzkin step may build (kept rows plus lower x
# upper combinations).  Steps grow doubly exponentially: a cell of 40
# strict atoms in dimension 3 asks for 12,964,734 rows at its last step.
MAX_FM_ROWS = 10 ** 6
# Largest dimension of a semilinear document or of a term's space: every
# atom and piece holds a dense row of that many coefficients.
MAX_DIMENSION = 10_000

GT, GE, EQ = ">", ">=", "="
_RELS = (GT, GE, EQ)


class LinearForm(_Frozen):
    """An affine form  c0*x0 + ... + c{n-1}*x{n-1} + const."""
    __slots__ = _fields = ("coeffs", "const")

    def __init__(self, coeffs: Tuple[Fraction, ...],
                 const: Fraction = Fraction(0)):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.coeffs):
            raise InputError("point dimension mismatch")
        return sum((c * _rational(p) for c, p in zip(self.coeffs, point)),
                   self.const)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        if len(self.coeffs) != len(other.coeffs):
            raise InputError(f"linear forms of dimensions {len(self.coeffs)} "
                             f"and {len(other.coeffs)} do not combine")
        return LinearForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                          self.const + other.const)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(-c for c in self.coeffs), -self.const)

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


class Constraint(_Frozen):
    """An atom  form rel 0  with rel one of >, >=, =.

    ``key`` is the flat tuple ``(rel, c0, ..., c{n-1}, const)`` with
    integral values stored as ints: atoms are equal, hashed and sorted by
    it (equal to comparing ``(rel, coeffs, const)``, with int-to-int
    comparisons).  ``row`` is the atom's integer row for elimination:
    its relation and the primitive integer vector of its form.

    Atoms derived by complement and elimination are built from a key and
    a row alone (``_derived``); their ``form`` is built from the key on
    first read."""
    _fields = ("form", "rel")
    __slots__ = _fields + ("key", "row", "_hash")

    def __init__(self, form: LinearForm, rel: str):
        if rel not in _RELS:
            raise InputError(f"relation must be one of {_RELS}, got {rel!r}")
        vals = [v.numerator if v.denominator == 1 else v
                for v in form.coeffs + (form.const,)]
        key = (rel, *vals)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))
        d = lcm(*[v.denominator for v in vals])
        if d > 1:
            vals = [v.numerator * (d // v.denominator) for v in vals]
        object.__setattr__(self, "row", (rel, _primitive(vals)))

    def __getattr__(self, name):
        # only reached while the ``form`` slot of a derived atom is unset
        if name != "form":
            raise AttributeError(
                f"'Constraint' object has no attribute {name!r}")
        key = self.key
        f = LinearForm(tuple(map(Fraction, key[1:-1])), Fraction(key[-1]))
        object.__setattr__(self, "form", f)
        return f

    def __eq__(self, other):
        if other.__class__ is not Constraint:
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def satisfied_by(self, point) -> bool:
        return _holds((self,), *_scaled_point(point, len(self.key) - 2))

    def negations(self) -> tuple:
        """Atoms whose disjunction is the complement of this atom, built
        from its key and row: ``-form`` has the negated key and row."""
        (rel, vec), vals = self.row, self.key[1:]
        neg_rel = GE if rel == GT else GT
        neg = _derived((neg_rel, *map(_neg, vals)),
                       (neg_rel, tuple(map(_neg, vec))))
        if rel != EQ:
            return (neg,)
        return (_derived((GT, *vals), (GT, vec)), neg)

    def __str__(self) -> str:
        return f"{self.form} {self.rel} 0"


def _derived(key: tuple, row: tuple) -> Constraint:
    """The atom with this key and row (which must agree), built without
    its form."""
    a = object.__new__(Constraint)
    object.__setattr__(a, "rel", key[0])
    object.__setattr__(a, "key", key)
    object.__setattr__(a, "row", row)
    object.__setattr__(a, "_hash", hash(key))
    return a


def _row_atom(rel: str, vec: tuple, d: int) -> Constraint:
    """The atom ``vec / d  rel  0`` of integers ``vec`` (the coefficients,
    then the constant) over a positive denominator ``d``, in lowest
    terms, built without its form: its key holds each ``vec[i] / d`` as
    an int when integral and a ``Fraction`` otherwise, as ``Constraint``
    builds it, and its row is the primitive vector."""
    if d == 1:
        key = (rel, *vec)
    else:
        key = (rel, *[v // d if not v % d else Fraction(v, d) for v in vec])
    return _derived(key, (rel, _primitive(vec)))


_atom_key = attrgetter("key")


class Cell(_Frozen):
    """A conjunction of atoms; no atoms means the whole space."""
    _fields = ("atoms",)
    __slots__ = _fields + ("_hash",)

    def __init__(self, atoms: Tuple[Constraint, ...]):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_hash", hash(atoms))

    def __eq__(self, other):
        if other.__class__ is not Cell:
            return NotImplemented
        return self._hash == other._hash and self.atoms == other.atoms

    def __hash__(self):
        return self._hash

    @classmethod
    def of(cls, atoms: Iterable[Constraint]) -> "Cell":
        return cls(tuple(sorted(set(atoms), key=_atom_key)))

    def satisfied_by(self, point) -> bool:
        if not self.atoms:
            # the whole space of the point's own dimension: only its
            # coordinates are checked
            _scaled_point(point, len(point))
            return True
        return _holds(self.atoms,
                      *_scaled_point(point, _cell_dimension(self)))

    def dimension_consistent(self, n: int) -> bool:
        return all(len(a.key) == n + 2 for a in self.atoms)


def _cell_dimension(cell: Cell) -> int:
    """The dimension of a cell's atoms; atoms of two dimensions in one
    cell are an input error.  Checked where a cell enters a decision, not
    in ``Cell.of``."""
    k = len(cell.atoms[0].key)
    if any(len(a.key) != k for a in cell.atoms):
        raise InputError("cell atoms disagree in dimension")
    return k - 2


class SemilinearSet(_Frozen):
    """A finite union of cells in a fixed dimension."""
    __slots__ = _fields = ("dimension", "cells")

    def __init__(self, dimension: int, cells: Tuple[Cell, ...]):
        if not isinstance(dimension, int) or dimension < 0:
            raise InputError(f"dimension must be a non-negative int, got "
                             f"{dimension!r}")
        for c in cells:
            if c.__class__ is not Cell:
                raise InputError(f"not a cell: {c!r}")
            if not c.dimension_consistent(dimension):
                raise InputError("cell atoms disagree with declared dimension")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _built(cls, n: int, cells: tuple) -> "SemilinearSet":
        """The set of these cells, stored unchecked: every atom must have
        dimension n, as the atoms of checked sets and the atoms derived
        from them have.  Outside input goes through the constructor's
        check."""
        S = object.__new__(cls)
        object.__setattr__(S, "dimension", n)
        object.__setattr__(S, "cells", cells)
        return S

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
        P, D = _scaled_point(point, self.dimension)
        for c in self.cells:
            if _holds(c.atoms, P, D):
                return True
        return False


# ---------------------------------------------------------------------------
# Integer rows and integer membership
# ---------------------------------------------------------------------------

# Points scaled by ``_scaled_point``, by identity: id(point) -> (point,
# P, D).  The entry holds the point, so its id is not reused while the
# entry lives.  Emptied when full: on one round of the benchmark's fm
# batch (seed 9001), 256 entries keep 13,844 of the 13,888 hits of an
# unbounded memo.
_POINTS: dict = {}
_POINTS_CAP = 256


def _scaled_point(point, n: int) -> tuple:
    """``(P, D)``: a tuple of integers ``P`` and a positive common
    denominator ``D`` with ``point == P / D``.  A coordinate that is not a
    finite rational is an input error.

    The dimension is checked at every call.  An exact ``tuple`` of exact
    ``int``s and ``Fraction``s cannot change, so its ``(P, D)`` is kept
    in ``_POINTS`` and read back when the same object comes again; any
    other point is scaled at every call."""
    if len(point) != n:
        raise InputError("point dimension mismatch")
    e = _POINTS.get(id(point))
    if e is not None and e[0] is point:
        return e[1], e[2]
    nums, dens = [], []
    keep = point.__class__ is tuple
    for p in point:
        if p.__class__ is not int and p.__class__ is not Fraction:
            keep = False
            p = _rational(p)
        nums.append(p.numerator)
        dens.append(p.denominator)
    d = lcm(*dens)
    if d > 1:
        nums = [a * (d // b) for a, b in zip(nums, dens)]
    P = tuple(nums)
    if keep:
        if len(_POINTS) >= _POINTS_CAP:
            _POINTS.clear()
        _POINTS[id(point)] = (point, P, d)
    return P, d


# the benchmark empties every module-level ``cache_clear`` between rounds
_scaled_point.cache_clear = _POINTS.clear


def _rational(p) -> Fraction:
    """A point coordinate as a ``Fraction``: anything ``Fraction`` takes
    (an int, a float by its binary value, a string such as ``"1/2"``);
    anything else, or a nan or infinity, is an input error."""
    try:
        return Fraction(p)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"coordinate {p!r} is not a finite rational") \
            from None


def _holds(atoms: Iterable[Constraint], P: Sequence[int], D: int) -> bool:
    """Whether every atom holds at the point ``P / D``: the sign of each
    atom's primitive row at ``P`` with the constant scaled by ``D`` (the
    row is the form scaled by a positive factor, so the sign is the
    form's)."""
    for a in atoms:
        rel, vec = a.row
        v = sum(map(mul, P, vec), vec[-1] * D)
        if not (v > 0 if rel == GT else v >= 0 if rel == GE else v == 0):
            return False
    return True


def _primitive(vec) -> tuple:
    g = gcd(*vec)
    return tuple(vec) if g <= 1 else tuple(v // g for v in vec)


def _from_row(row: tuple) -> Constraint:
    """The atom of a primitive integer row."""
    return _derived((row[0], *row[1]), row)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination on integer rows
# ---------------------------------------------------------------------------

def _tidy(rows: Iterable[tuple]) -> Optional[list]:
    """Drop true constant rows and exact duplicates (keeping the first);
    None on a false constant row."""
    out = []
    seen = set()
    for r in rows:
        rel, vec = r
        if not any(vec[:-1]):
            c = vec[-1]
            if not (c > 0 if rel == GT else c >= 0 if rel == GE else c == 0):
                return None
        elif r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _project(rows: list, variables: Iterable[int]):
    """Eliminate ``variables`` in order from the rows.

    Returns ``(stages, rows)``, with one stage per variable for
    back-substitution: ``("skip", i)``, ``("eq", i, pivot)`` or
    ``("ineq", i, involved)``; or None once a false constant row appears.
    That row is the only verdict of emptiness: elimination is exact, so
    rows with no rational solution end in one, and no syntactic test runs
    first.  An equality step substitutes the first equality that mentions
    x_i into every other row in place, so the order of the rows, and with
    it the next pivot, is kept; an inequality step keeps the rows without
    x_i and appends each lower/upper combination, and raises
    :class:`ResourceLimitError` before building them when that would make
    more than ``MAX_FM_ROWS`` rows."""
    rows = _tidy(rows)
    if rows is None:
        return None
    stages = []
    for i in variables:
        # one pass: the rows without x_i, the lower and upper rows (both,
        # in order, as ``involved``), up to the first equality with x_i
        new, involved, lowers, uppers = [], [], [], []
        pivot = None
        for r in rows:
            c = r[1][i]
            if not c:
                new.append(r)
            elif r[0] == EQ:
                pivot = r
                break
            else:
                involved.append(r)
                (lowers if c > 0 else uppers).append(r)
        if pivot is None and not involved:
            stages.append(("skip", i))
            continue
        if pivot is not None:
            pv = pivot[1]
            p = pv[i]
            ap, s = abs(p), 1 if p > 0 else -1
            new = []
            for r in rows:
                vec = r[1]
                c = vec[i]
                if not c:
                    new.append(r)
                elif r is not pivot:
                    sc = s * c
                    v = [ap * a - sc * b for a, b in zip(vec, pv)]
                    g = gcd(*v)
                    new.append((r[0], tuple([a // g for a in v]) if g > 1
                                else tuple(v)))
            stages.append(("eq", i, pivot))
        else:
            count = len(new) + len(lowers) * len(uppers)
            if count > MAX_FM_ROWS:
                raise ResourceLimitError(
                    f"eliminating x{i} would build {count} rows, more "
                    f"than {MAX_FM_ROWS}")
            for lo_rel, lo in lowers:
                c1 = lo[i]
                lo_gt = lo_rel == GT
                for up_rel, up in uppers:
                    c2 = -up[i]
                    v = [c2 * a + c1 * b for a, b in zip(lo, up)]
                    g = gcd(*v)
                    new.append((GT if lo_gt or up_rel == GT else GE,
                                tuple([a // g for a in v]) if g > 1
                                else tuple(v)))
            stages.append(("ineq", i, involved))
        rows = _tidy(new)
        if rows is None:
            return None
    return stages, rows


@lru_cache(maxsize=1 << 17)
def is_empty(cell: Cell) -> bool:
    """Whether no rational point satisfies all atoms of the cell."""
    if not cell.atoms:
        return False
    n = _cell_dimension(cell)
    return _project([a.row for a in cell.atoms], range(n)) is None


def witness_point(cell: Cell,
                  dimension: Optional[int] = None) -> Optional[tuple]:
    """A rational point satisfying every atom, or None if the cell is
    empty.

    Back-substitution runs on integers: the coordinates found so far are
    ``P / D``, integer numerators over one positive denominator, and
    ``P`` is rescaled whenever ``D`` grows.  A row ``vec`` bounds x_i by
    ``-(vec·P + vec[-1]·D) / (vec[i]·D)``; bounds are compared by
    cross-multiplication, and of two equal bounds a strict one wins.  x_i
    is the lower bound (plus 1 if strict) when there is no upper one, the
    upper bound (minus 1 if strict) when there is no lower one, the
    midpoint of a nonempty interval, or the one point of a closed interval
    of length 0; an equality gives its one value and a skipped variable 0.
    The point is verified on ``(P, D)`` before being returned, converted
    to ``Fraction`` once."""
    if not cell.atoms:
        if dimension is None:
            raise InputError("dimension required for the unconstrained cell")
        return tuple(Fraction(0) for _ in range(dimension))
    n = _cell_dimension(cell)
    if dimension is not None and dimension != n:
        raise InputError("dimension mismatch")
    projected = _project([a.row for a in cell.atoms], range(n))
    if projected is None:
        return None
    P, D = [0] * n, 1
    for stage in reversed(projected[0]):
        kind, i = stage[0], stage[1]
        if kind == "skip":
            continue
        # x_i = num / (den * D) with den > 0; s is vec·P + vec[-1]·D, the
        # row's value at P / D times D, where P[i] is still 0
        if kind == "eq":
            vec = stage[2][1]
            c = vec[i]
            s = sum(map(mul, P, vec), vec[-1] * D)
            num, den = (-s, c) if c > 0 else (s, -c)
        else:
            # the lower bound ln / (ld * D) and the upper un / (ud * D);
            # a denominator of 0: no such bound yet
            ln = ld = un = ud = 0
            lo_strict = up_strict = False
            for rel, vec in stage[2]:
                c = vec[i]
                s = sum(map(mul, P, vec), vec[-1] * D)
                strict = rel == GT
                if c > 0:                   # -s / c, above lo iff t < 0
                    t = ln * c + s * ld
                    if not ld or t < 0 or not t and strict:
                        ln, ld, lo_strict = -s, c, strict
                else:                       # s / -c, below up iff t < 0
                    t = un * c + s * ud
                    if not ud or t < 0 or not t and strict:
                        un, ud, up_strict = s, -c, strict
            if not ud:
                num, den = (ln + ld * D if lo_strict else ln), ld
            elif not ld:
                num, den = (un - ud * D if up_strict else un), ud
            else:
                t = ln * ud - un * ld
                if t < 0:
                    num, den = ln * ud + un * ld, 2 * ld * ud
                elif t or lo_strict or up_strict:
                    raise ContractError(
                        f"back-substitution met an empty interval at x{i}")
                else:
                    num, den = ln, ld
        den *= D
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        if D % den:
            m = den // gcd(D, den)
            P = [p * m for p in P]
            D *= m
        P[i] = num * (D // den)
    if not _holds(cell.atoms, P, D):
        raise ContractError("back-substitution produced a bad point")
    return tuple([Fraction(p, D) for p in P])


# ---------------------------------------------------------------------------
# Set-level operations
# ---------------------------------------------------------------------------

def _guard(count: int, ceiling: Optional[int]):
    limit = DEFAULT_CELL_CEILING if ceiling is None else ceiling
    if count > limit:
        raise ResourceLimitError(
            f"cell count {count} exceeds ceiling {limit}")


def _accumulate(out: list, cell: Cell, ceiling: Optional[int]):
    """Add a cell to a union-in-progress of (cell, atom set) pairs,
    dropping subsumed and empty cells (an atom superset denotes a subset
    region).  Subsumption is tested first: it needs no elimination."""
    atoms = set(cell.atoms)
    for _, s in out:
        if s <= atoms:
            return
    if is_empty(cell):
        return
    out[:] = [(c, s) for c, s in out if not atoms <= s]
    out.append((cell, atoms))
    _guard(len(out), ceiling)


def _first_meet(sets: Sequence[SemilinearSet]) -> Optional[Cell]:
    """The first nonempty meet c1 ∧ ... ∧ ck of one cell of each set, or
    None when the sets share no point.  A depth-first walk in nested
    order, the first set's cells outermost: those are taken as given,
    each deeper meet is ``Cell.of`` the atoms so far and the next cell's,
    and an empty partial meet is dropped before it is extended."""
    def extend(meets: Iterable[Cell], k: int) -> Optional[Cell]:
        for cell in meets:
            if is_empty(cell):
                continue
            if k + 1 == len(sets):
                return cell
            found = extend((Cell.of(cell.atoms + c.atoms)
                            for c in sets[k + 1].cells), k + 1)
            if found is not None:
                return found
        return None
    return extend(sets[0].cells, 0)


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
    return SemilinearSet._built(S.dimension, tuple(c for c, _ in out))


def complement(S: SemilinearSet,
               ceiling: Optional[int] = None) -> SemilinearSet:
    """De Morgan expansion of the pointwise complement (cached, see
    ``_complement``)."""
    return _complement(S, DEFAULT_CELL_CEILING if ceiling is None
                       else ceiling)


@lru_cache(maxsize=1 << 12)
def _complement(S: SemilinearSet, ceiling: int) -> SemilinearSet:
    """The complement, cached on the set (its dimension and its cells in
    order) and the ceiling: a result within one ceiling may exceed a
    lower one, and a raised error is never cached."""
    acc = [Cell(())]
    for cell in S.cells:
        options = [neg for atom in cell.atoms for neg in atom.negations()]
        nxt: list = []
        for base in acc:
            for opt in options:
                _accumulate(nxt, Cell.of(base.atoms + (opt,)), ceiling)
        acc = [c for c, _ in nxt]
        if not acc:
            break
    return SemilinearSet._built(S.dimension, tuple(acc))


def _variables(S: SemilinearSet, variables: Iterable[int]) -> set:
    """The variable indices as a set, each checked to lie in range."""
    vs = set(variables)
    for i in sorted(vs):
        if not 0 <= i < S.dimension:
            raise InputError(f"variable index {i} out of range")
    return vs


def eliminate(S: SemilinearSet, variables: Iterable[int],
              ceiling: Optional[int] = None) -> SemilinearSet:
    """Existential projection over the listed variables, cylindrified
    back to the ambient dimension (projected coordinates unconstrained)."""
    vs = sorted(_variables(S, variables))
    out = []
    for cell in S.cells:
        # atoms that mention variables but no eliminated one pass through
        # as written; constant atoms go to _project, which drops or fails them
        kept, rows = [], []
        for a in cell.atoms:
            key = a.key
            if any(key[1:-1]) and not any(key[i + 1] for i in vs):
                kept.append(a)
            else:
                rows.append(a.row)
        projected = _project(rows, vs)
        if projected is None:
            continue
        c = Cell.of(kept + [_from_row(r) for r in projected[1]])
        if not is_empty(c) and c not in out:
            out.append(c)
        _guard(len(out), ceiling)
    return SemilinearSet._built(S.dimension, tuple(out))


def includes(S: SemilinearSet, T: SemilinearSet,
             ceiling: Optional[int] = None) -> tuple:
    """Whether T ⊆ S.  Returns (True, None) or (False, witness) with a
    verified witness point in T \\ S: the witness of the first meet
    t ∧ c (``_first_meet``) over the cells t of T and c of the complement
    of S in order.  Only that one cell is back-substituted."""
    if S.dimension != T.dimension:
        raise InputError("dimension mismatch")
    cell = _first_meet((T, complement(S, ceiling)))
    if cell is None:
        return (True, None)
    w = witness_point(cell, S.dimension)
    if w is None or not T.contains(w) or S.contains(w):
        raise ContractError(f"inclusion witness {w} fails")
    return (False, w)


def same_set(S: SemilinearSet, T: SemilinearSet,
             ceiling: Optional[int] = None) -> bool:
    return includes(S, T, ceiling)[0] and includes(T, S, ceiling)[0]


# ---------------------------------------------------------------------------
# Shadows on a variable support and interpolation
# ---------------------------------------------------------------------------

def upper_shadow_set(U: SemilinearSet, X: Iterable[int],
                     ceiling: Optional[int] = None) -> SemilinearSet:
    """Smallest X-definable superset of U: project away the variables
    outside X.  Atoms of the result mention only variables in X; an
    index of X outside ``0..dimension-1`` is an input error."""
    X = _variables(U, X)
    return eliminate(U, [i for i in range(U.dimension) if i not in X], ceiling)


def lower_shadow_set(U: SemilinearSet, X: Iterable[int],
                     ceiling: Optional[int] = None) -> SemilinearSet:
    """Largest X-definable subset of U."""
    X = _variables(U, X)
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


# ---------------------------------------------------------------------------
# Textual format
# ---------------------------------------------------------------------------

_TERM = re.compile(r"""
    \s*(?P<sign>[+-])?\s*
    (?:
        (?P<coef>[0-9]+(?:/[0-9]+)?)\s*(?:\*\s*x(?P<var1>[0-9]+))?
      | x(?P<var2>[0-9]+)
    )
""", re.VERBOSE)


def parse_rational(text: str) -> Fraction:
    """A rational literal such as ``3``, ``-2/3`` or ``0.5``; a zero
    denominator or a malformed literal is an input error, and so is any
    character outside ASCII (``Fraction`` reads every Unicode digit)."""
    if not text.isascii():
        raise InputError(f"not a rational number: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise InputError(f"not a rational number: {text!r}") from None


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
            coef = sign * parse_rational(m.group("coef"))
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
