"""Vector-lattice terms over finitely many generators and their
principal-ideal calculus.

Terms are ASTs over generators ``g0 .. g{n-1}``, the unit constant
``one``, rational scaling, sums, joins and meets; ``t^+`` abbreviates
``t ∨ 0`` and ``|t|`` abbreviates ``t ∨ (-t)``.  A term denotes a
piecewise-linear function on ℚⁿ (``one`` denotes the constant 1), and

* ``linearize`` computes a covering piecewise form (cells split on the
  sign of differences, closed side on the kept branch),
* ``cozero_set`` / ``zero_set`` are the semilinear sets where the term
  is nonzero / zero (cached per node, dimension and ceiling),
* ``ideal_leq`` decides the principal-ideal order: <g> <= <h> iff the
  zero set of h is contained in the zero set of g — optionally relative
  to a region, in which case only zeros inside the region count.

A principal ideal is fixed by its zero set, and the representatives of
ideal joins, meets and deviations are composite terms (|g| ∨ |h|,
(g - h)^+).  So ``ideal_leq``, ``ideal_meet_is_zero`` and
``check_cevian_triple`` decide on zero and cozero sets built by parts,
never linearizing such a composite whole (``_parts``):

* Z(c·u) = Z(u) for c != 0, and Z(0·u) is everything;
* Z(|u|) = Z(u);
* Z(u⁺) = {u <= 0} and coz(u⁺) = {u > 0}, read off the pieces of u;
* for syntactically nonnegative a and b, Z(a ∨ b) = Z(a + b) =
  Z(a) ∩ Z(b) and Z(a ∧ b) = Z(a) ∪ Z(b), and dually
  coz(a ∨ b) = coz(a + b) = coz(a) ∪ coz(b), coz(a ∧ b) = coz(a) ∩ coz(b);
* any other node takes the zero or cozero set of its whole piecewise
  form.

Each decision is one walk (``semilinear._first_meet``) to the first
nonempty meet of one cell of each set (and of the region), which builds
no intersection of the sets.  A true verdict comes from this walk alone.
A false ``ideal_leq`` verdict takes its witness from a second walk, over
the whole-term sets ``zero_set(h)`` and ``cozero_set(g)``, which are
still linearized whole, so reports do not change; whole-term sets that
do not meet where the parts meet are a ``ContractError``.  One ceiling
bounds both pieces and cells (None means
``semilinear.DEFAULT_CELL_CEILING``).  It bounds the pieces actually
built, so a verdict may be reached where linearizing the composite whole
would pass the ceiling; as a cell ceiling it bounds neither walk.

A term is a DAG: ``|t|`` holds ``t`` twice.  Nodes store their hash and
largest generator index, and the functions that walk a term visit each
shared node once.  The pieces of each node are cached (one ``functools``
cache keyed on the node, the dimension and the piece ceiling), so
subterms shared between terms or within one are split once.  A piece
form is a ``LinearForm``, whose integers over one denominator make
scaling, sums and the join/meet differences integer arithmetic; each
atom is ``Constraint(form, rel)``.  ``linearize`` returns the cached
pieces as they are, and the zero, cozero and sign sets are built from
them.  The piece ceiling is resolved in one place (``_check_inputs``,
through ``semilinear._ceiling``): None means
``semilinear.DEFAULT_CELL_CEILING``, and a ceiling below 1 is an input
error.
A join, meet or sum pairs the pieces of its two sides and skips, before
building any cell, each pair whose cells clash syntactically: a strict
row ``f > 0`` in one cell and a row on ``-f``, or ``f = 0``, in the other.
Every cell built from such a pair is empty, so the pieces are those of
building and testing all pairs.  This is the library's only syntactic
emptiness test (``semilinear`` decides emptiness by elimination alone);
it is kept because linearizing a term cold would otherwise build the
difference form, the atom and both cells of every such pair.

The region of interest is ``omega_region(n)``, a one-cell semilinear
set: points u with 0 <= u_i <= 1 for all i and u_j <= 2*u_k whenever
0 < j < k.  It is built once per n and shared: a ``functools`` cache
keyed on n keeps the four most recently used regions, since the region
in dimension n holds n(n-1)/2 + 2n dense atoms.

The deviation at ideal level sends (<g>, <h>) to <(g-h)^+>; it is Cevian
(``check_cevian_triple``), and ``pseudocomplement_probe`` /
``noiso_probe`` exercise the two complementation phenomena that drive
the non-monotonicity construction at finite dimension.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import ContractError, InputError, ResourceLimitError, _Frozen
from .semilinear import (MAX_DIMENSION, Cell, Constraint, GE, GT, EQ,
                         LinearForm, SemilinearSet, _ceiling, _first_meet,
                         _number, _rational, intersect, is_empty,
                         parse_rational, union, unit_form, witness_point)

# Largest k that ``noiso_probe`` accepts.  Its report writes 2^(k-1) in
# decimal (in the terms and the witness points), and Python refuses to
# print an int of more than 4300 digits; 2^1023 has 308, and it bounds
# m * n_coeff too.
MAX_NOISO_K = 1024

# Deepest term that ``parse_term`` accepts: the parser, ``str``,
# ``linearize`` and the zero sets built by parts (through their per-node
# caches) recurse once per level, and
# this keeps them far below Python's recursion limit.  Nothing walks a
# term path by path, so depth costs no more than size: hashes and maximal
# generator indices are stored in the nodes, and equality, ``evaluate``,
# ``substitute`` and ``term_depth`` visit each shared node once without
# recursion.
MAX_TERM_DEPTH = 100

# Largest n of ``omega_region(n)``: it holds n(n-1)/2 + 2n dense atoms
# of n coefficients, so its cost grows cubically (0.2 s and 33 MB at
# n = 100 on a 2-vCPU host).
MAX_REGION_DIMENSION = 100


# ---------------------------------------------------------------------------
# Term AST
# ---------------------------------------------------------------------------

class VLTerm(_Frozen):
    """Base class of the term nodes, which are immutable: each node's
    constructor checks its operands (InputError otherwise) and stores them.

    A term is a DAG (``|t|`` holds ``t`` twice), so nothing here walks it
    path by path: each node stores its hash, computed once from its
    children's stored hashes, and the largest generator index below it;
    equality is structural, comparing each pair of nodes once."""
    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, VLTerm):
            return NotImplemented
        return _same(self, other)

    def __hash__(self):
        return self._hash

    def __add__(self, other: "VLTerm") -> "VLTerm":
        return Add(self, other)

    def __sub__(self, other: "VLTerm") -> "VLTerm":
        return Add(self, Scale(Fraction(-1), other))

    def __neg__(self) -> "VLTerm":
        return Scale(Fraction(-1), self)

    def __rmul__(self, q) -> "VLTerm":
        return Scale(q, self)

    def __or__(self, other: "VLTerm") -> "VLTerm":
        return Join(self, other)

    def __and__(self, other: "VLTerm") -> "VLTerm":
        return Meet(self, other)

    def pos(self) -> "VLTerm":
        return Join(self, zero())

    def __abs__(self) -> "VLTerm":
        return Join(self, Scale(Fraction(-1), self))


class Gen(VLTerm):
    """The generator ``g<index>``; the index is a non-negative ``int``."""
    _fields = ("index",)
    __slots__ = _fields + ("_hash", "_top")

    def __init__(self, index: int):
        if index.__class__ is not int or index < 0:
            raise InputError(f"generator index must be non-negative and "
                             f"an int, got {index!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash((1, index)))
        object.__setattr__(self, "_top", index)

    def __str__(self):
        return f"g{self.index}"


class One(VLTerm):
    __slots__ = ()
    _hash = hash((2,))
    _top = -1

    def __str__(self):
        return "one"


class Scale(VLTerm):
    """``coeff * arg``; the coefficient is stored as the exact
    ``Fraction`` of the number given (a float by its binary value), and
    anything that is not a finite rational number is an input error."""
    _fields = ("coeff", "arg")
    __slots__ = _fields + ("_hash", "_top")

    def __init__(self, coeff: Fraction, arg: VLTerm):
        coeff = _number(coeff, "scalar")
        if not isinstance(arg, VLTerm):
            raise InputError(f"not a term: {arg!r}")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash((3, coeff, arg._hash)))
        object.__setattr__(self, "_top", arg._top)

    def __str__(self):
        return f"{self.coeff}*({self.arg})"


class _Binary(VLTerm):
    _fields = ("left", "right")
    __slots__ = _fields + ("_hash", "_top")

    def __init__(self, left: VLTerm, right: VLTerm):
        if not isinstance(left, VLTerm):
            raise InputError(f"not a term: {left!r}")
        if not isinstance(right, VLTerm):
            raise InputError(f"not a term: {right!r}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash",
                           hash((self._TAG, left._hash, right._hash)))
        object.__setattr__(self, "_top", max(left._top, right._top))


class Add(_Binary):
    __slots__ = ()
    _TAG = 4

    def __str__(self):
        return f"({self.left} + {self.right})"


class Join(_Binary):
    __slots__ = ()
    _TAG = 5

    def __str__(self):
        return f"({self.left} \\/ {self.right})"


class Meet(_Binary):
    __slots__ = ()
    _TAG = 6

    def __str__(self):
        return f"({self.left} /\\ {self.right})"


def _children(s: VLTerm) -> tuple:
    if isinstance(s, (Gen, One)):
        return ()
    if isinstance(s, Scale):
        return (s.arg,)
    if isinstance(s, _Binary):
        return (s.left, s.right)
    raise InputError(f"not a term: {s!r}")


def _same(a: VLTerm, b: VLTerm) -> bool:
    """Structural equality, comparing each pair of nodes once."""
    todo, seen = [(a, b)], set()
    while todo:
        x, y = todo.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        if x.__class__ is not y.__class__ or x._hash != y._hash:
            return False
        seen.add((id(x), id(y)))
        if isinstance(x, Gen):
            if x.index != y.index:
                return False
        elif isinstance(x, Scale):
            if x.coeff != y.coeff:
                return False
            todo.append((x.arg, y.arg))
        elif isinstance(x, _Binary):
            todo += ((x.left, y.left), (x.right, y.right))
    return True


def _fold(t: VLTerm, combine):
    """``combine(node, values of its children)`` over the nodes of the
    term, children first and left before right, each shared node once and
    without recursion; returns the value at the root."""
    value: dict = {}
    stack = [t]
    while stack:
        s = stack[-1]
        if id(s) in value:
            stack.pop()
            continue
        kids = _children(s)
        todo = [k for k in kids if id(k) not in value]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        value[id(s)] = combine(s, [value[id(k)] for k in kids])
    return value[id(t)]


def text_length(t: VLTerm) -> int:
    """``len(str(t))``, counted over the shared nodes of the term: the
    text itself has one copy of a subterm per path to it."""
    def length(s, kids):
        if isinstance(s, Gen):
            return len(str(s))
        if isinstance(s, One):
            return 3
        if isinstance(s, Scale):
            return len(str(s.coeff)) + 3 + kids[0]
        return kids[0] + kids[1] + (5 if isinstance(s, Add) else 6)
    return _fold(t, length)


def gen(i: int) -> Gen:
    return Gen(i)


def one() -> One:
    return One()


def zero() -> VLTerm:
    return Scale(Fraction(0), One())


def const(q) -> VLTerm:
    return Scale(q, One())


def max_generator(t: VLTerm) -> int:
    """Largest generator index used, or -1 if none."""
    if not isinstance(t, VLTerm):
        raise InputError(f"not a term: {t!r}")
    return t._top


def evaluate(t: VLTerm, point: Sequence) -> Fraction:
    """Value of the term at a rational point; joins are maxima, meets
    are minima, the unit evaluates to 1.  A coordinate that is not a
    finite rational is an input error."""
    pt = tuple(_rational(p) for p in point)
    if max_generator(t) >= len(pt):
        raise InputError("point dimension too small for the term")

    def value(s: VLTerm, kids: list) -> Fraction:
        if isinstance(s, Gen):
            return pt[s.index]
        if isinstance(s, One):
            return Fraction(1)
        if isinstance(s, Scale):
            return s.coeff * kids[0]
        if isinstance(s, Add):
            return kids[0] + kids[1]
        return max(kids) if isinstance(s, Join) else min(kids)

    return _fold(t, value)


# ---------------------------------------------------------------------------
# Piecewise-linear normal form
# ---------------------------------------------------------------------------

class PiecewiseForm(NamedTuple):
    """Covering pieces (cell, form): on each cell the term equals the
    affine form.  Cells are pairwise disjoint and their union is ℚⁿ."""
    dimension: int
    pieces: Tuple[Tuple[Cell, LinearForm], ...]


def linearize(t: VLTerm, n: int,
              ceiling: Optional[int] = None) -> PiecewiseForm:
    """Case-split a term into a covering piecewise form.

    Joins and meets split on the sign of the difference of the two
    branch forms; the kept branch of a join takes the closed side
    (difference >= 0), the other the open side.
    """
    limit = _check_inputs(n, None, ceiling, t)
    return PiecewiseForm(n, _node_pieces(t, n, limit)[0])


def _check_inputs(n: int, region: Optional[SemilinearSet],
                  ceiling: Optional[int], *terms) -> int:
    """Check that every term, and the region if given, lives in
    dimension n (InputError otherwise; ResourceLimitError past
    ``semilinear.MAX_DIMENSION``), and return the piece ceiling
    resolved by ``semilinear._ceiling``: ``semilinear.DEFAULT_CELL_CEILING``
    for None, and an input error below 1, where every join, meet or sum
    would pass it."""
    if n < 0:
        raise InputError("dimension must be non-negative")
    if n > MAX_DIMENSION:
        raise ResourceLimitError(
            f"dimension {n} exceeds ceiling {MAX_DIMENSION}")
    if region is not None and region.dimension != n:
        raise InputError("region dimension mismatch")
    if any(max_generator(t) >= n for t in terms):
        raise InputError("term uses a generator outside the declared dimension")
    return _ceiling(ceiling)


_WHOLE = Cell(())
_NO_ROWS = ((), ())


def _clash_rows(cell: Cell) -> tuple:
    """``(vectors, probes)`` of a piece's cell, for the library's only
    syntactic emptiness test: a row ``f > 0`` contradicts a row on ``-f``
    (any relation) and ``f = 0``.  ``vectors`` holds the integer
    vector of every row and the negated vector of every equality row,
    ``probes`` the negated vector of every strict row; two cells clash
    when the probes of one meet the vectors of the other."""
    vectors, probes = [], []
    for rel, vec in (a.row for a in cell.atoms):
        vectors.append(vec)
        if rel != GE:
            neg = tuple(-v for v in vec)
            (probes if rel == GT else vectors).append(neg)
    return tuple(vectors), tuple(probes)


@lru_cache(maxsize=1 << 14)
def _node_pieces(t: VLTerm, n: int, limit: int) -> tuple:
    """``(pieces, clash rows)``: the pieces (cell, ``LinearForm``) of
    one term node, and ``_clash_rows`` of each piece's cell.  The cache
    is keyed on the node, so the subterms that several terms share, or
    one term holds twice, are split once.  A pair of pieces whose cells
    clash is skipped before any cell is built: every cell built from it
    is empty.  That test is the library's only syntactic emptiness check;
    it stays because it saves building the difference form, the atom and
    two cells per clashing pair when a term is linearized cold."""
    if isinstance(t, Gen):
        return ((_WHOLE, unit_form(n, t.index)),), (_NO_ROWS,)
    if isinstance(t, One):
        return ((_WHOLE, LinearForm((0,) * n, 1)),), (_NO_ROWS,)
    if isinstance(t, Scale):
        pieces, clash = _node_pieces(t.arg, n, limit)
        return tuple((c, f.scale(t.coeff)) for c, f in pieces), clash
    if not isinstance(t, _Binary):
        raise InputError(f"not a term: {t!r}")
    left = _node_pieces(t.left, n, limit)
    right = _node_pieces(t.right, n, limit)
    is_add, is_join = isinstance(t, Add), isinstance(t, Join)
    acc = []
    for (c1, f1), (vectors1, probes1) in zip(*left):
        for (c2, f2), (vectors2, probes2) in zip(*right):
            if any(p in vectors2 for p in probes1) or \
                    any(p in vectors1 for p in probes2):
                continue
            base = c1.atoms + c2.atoms
            if is_add:
                cell = Cell.of(base)
                if not is_empty(cell):
                    acc.append((cell, f1 + f2))
                continue
            # join keeps the larger branch on the closed side, meet the
            # smaller
            closed = Constraint(f1 - f2 if is_join else f2 - f1, GE)
            first = Cell.of(base + (closed,))
            second = Cell.of(base + closed.negations())    # -diff > 0
            if not is_empty(first):
                acc.append((first, f1))
            if not is_empty(second):
                acc.append((second, f2))
    if len(acc) > limit:
        raise ResourceLimitError(
            f"piece count {len(acc)} exceeds ceiling {limit}")
    return tuple(acc), tuple(_clash_rows(c) for c, _ in acc)


@lru_cache(maxsize=1 << 12)
def cozero_set(t: VLTerm, n: int,
               ceiling: Optional[int] = None) -> SemilinearSet:
    """Points where the term is nonzero (cached per term node, dimension
    and ceiling, like the pieces)."""
    return _piece_set(t, n, ceiling, lambda f: [            # f > 0, -f > 0
        (atom,) for atom in Constraint(f, EQ).negations()])


@lru_cache(maxsize=1 << 12)
def zero_set(t: VLTerm, n: int,
             ceiling: Optional[int] = None) -> SemilinearSet:
    """Points where the term vanishes: the complement of the cozero set,
    assembled directly from the (disjoint, covering) pieces (cached like
    ``cozero_set``).  A constant piece is kept whole when it is 0."""
    return _piece_set(t, n, ceiling, lambda f: (
        [(Constraint(f, EQ),)] if not f.is_constant()
        else [()] if not f.const else []))


def _piece_set(t: VLTerm, n: int, ceiling: Optional[int],
               extras) -> SemilinearSet:
    """The nonempty cells ``cell ∧ atoms`` over the pieces (cell, f) of
    t and the atom tuples in ``extras(f)``, in piece order; empty atoms
    keep the piece cell itself."""
    limit = _check_inputs(n, None, ceiling, t)
    cells = []
    for cell, f in _node_pieces(t, n, limit)[0]:
        for atoms in extras(f):
            c = Cell.of(cell.atoms + atoms) if atoms else cell
            if not is_empty(c):
                cells.append(c)
    return SemilinearSet._built(n, tuple(cells))


# ---------------------------------------------------------------------------
# Zero and cozero sets built by parts
# ---------------------------------------------------------------------------

def _abs_arg(t: VLTerm) -> Optional[VLTerm]:
    """u when t is |u| = u ∨ (-1)·u, else None."""
    if isinstance(t, Join) and isinstance(t.right, Scale) and \
            t.right.coeff == -1 and t.right.arg == t.left:
        return t.left
    return None


def _pos_arg(t: VLTerm) -> Optional[VLTerm]:
    """u when t is u⁺ = u ∨ 0·one, else None."""
    if isinstance(t, Join) and isinstance(t.right, Scale) and \
            t.right.coeff == 0 and isinstance(t.right.arg, One):
        return t.left
    return None


@lru_cache(maxsize=1 << 12)
def _nonnegative(t: VLTerm) -> bool:
    """Whether the term is syntactically nonnegative: ``one``, c·a with
    c = 0 or c > 0 and a nonnegative, |u|, a ∨ b with one side
    nonnegative (so u⁺), and a ∧ b or a + b with both sides nonnegative."""
    if isinstance(t, One):
        return True
    if isinstance(t, Scale):
        return t.coeff == 0 or (t.coeff > 0 and _nonnegative(t.arg))
    if isinstance(t, Join):
        return _abs_arg(t) is not None or _nonnegative(t.left) or \
            _nonnegative(t.right)
    if isinstance(t, (Meet, Add)):
        return _nonnegative(t.left) and _nonnegative(t.right)
    return False


def _sign_set(u: VLTerm, n: int, ceiling: Optional[int],
              positive: bool) -> SemilinearSet:
    """{u > 0} when ``positive``, else {u <= 0}, read off the pieces of u:
    the cozero and zero set of u⁺ (cached as such by ``_parts``)."""
    return _piece_set(u, n, ceiling, lambda f: [
        (Constraint(f, GT),) if positive else Constraint(f, GT).negations()])


@lru_cache(maxsize=1 << 12)
def _parts(t: VLTerm, n: int, ceiling: Optional[int],
           cozero: bool) -> SemilinearSet:
    """The cozero set of t when ``cozero``, else its zero set, built from
    the parts of the term by the identities in the module docstring; any
    other node takes ``zero_set`` / ``cozero_set`` of the whole node.
    Cached per node, so a shared subterm is built once."""
    if isinstance(t, Scale):
        if t.coeff == 0:
            return SemilinearSet.empty(n) if cozero else SemilinearSet.whole(n)
        return _parts(t.arg, n, ceiling, cozero)
    u = _abs_arg(t)
    if u is not None:
        return _parts(u, n, ceiling, cozero)
    if isinstance(t, _Binary) and _nonnegative(t.left) and \
            _nonnegative(t.right):
        a = _parts(t.left, n, ceiling, cozero)
        b = _parts(t.right, n, ceiling, cozero)
        # the zero set of a meet, and the cozero set of a join or sum, is
        # the union; the other three are the intersection
        if isinstance(t, Meet) != cozero:
            return union(a, b)
        return intersect(a, b, ceiling)
    u = _pos_arg(t)
    if u is not None:
        return _sign_set(u, n, ceiling, cozero)
    return (cozero_set if cozero else zero_set)(t, n, ceiling)


# ---------------------------------------------------------------------------
# The bounded region and partial-point completion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4, typed=True)
def omega_region(n: int) -> SemilinearSet:
    """The region of interest in dimension 1 <= n <=
    ``MAX_REGION_DIMENSION`` (ResourceLimitError above it): the one cell
    0 <= u_i <= 1 (all i), u_j <= 2*u_k for 0 < j < k.  Built once per n
    (cached; an error is not)."""
    if n < 1:
        raise InputError("region dimension must be >= 1")
    if n > MAX_REGION_DIMENSION:
        raise ResourceLimitError(f"region dimension {n} exceeds ceiling "
                                 f"{MAX_REGION_DIMENSION}")
    atoms = []
    for i in range(n):
        atoms.append(Constraint(unit_form(n, i, 1), GE))              # u_i >= 0
        atoms.append(Constraint(unit_form(n, i, -1, const=1), GE))    # u_i <= 1
    for j in range(1, n):
        for k in range(j + 1, n):
            atoms.append(Constraint(unit_form(n, k, 2) - unit_form(n, j),
                                    GE))                          # u_j <= 2 u_k
    return SemilinearSet(n, (Cell.of(atoms),))


def omega_extend(u: Mapping[int, Fraction], n: int) -> tuple:
    """Complete a partial point on an index set M to a full point of the
    region: each missing coordinate copies the value at the next index
    of M above it, falling back to 1 when none exists.  An index that is
    not an int, or a value that is not a finite rational, is an input
    error."""
    for i in u:
        if type(i) is not int:
            raise InputError(f"index {i!r} is not an int")
    M = sorted(u)
    vals = {i: _rational(u[i]) for i in M}
    for i in M:
        if not 0 <= i < n:
            raise InputError(f"index {i} outside dimension {n}")
        if not 0 <= vals[i] <= 1:
            raise InputError(f"coordinate u_{i}={vals[i]} outside [0, 1]")
    for j in M:
        for k in M:
            if 0 < j < k and vals[j] > 2 * vals[k]:
                raise InputError(
                    f"partial point violates u_{j} <= 2*u_{k}")
    out = []
    for xi in range(n):
        above = [i for i in M if i >= xi]
        out.append(vals[min(above)] if above else Fraction(1))
    point = tuple(out)
    if not omega_region(n).contains(point):
        raise ContractError(f"extension {point} leaves the region")
    return point


# ---------------------------------------------------------------------------
# Principal-ideal calculus
# ---------------------------------------------------------------------------

def ideal_leq(g: VLTerm, h: VLTerm, n: int,
              region: Optional[SemilinearSet] = None,
              ceiling: Optional[int] = None) -> tuple:
    """Decide <g> <= <h> in the principal-ideal order.

    Absolute mode: true iff zero(h) ⊆ zero(g).  Relative mode: true iff
    zero(h) ∩ region ⊆ zero(g).  The verdict is decided on the zero set
    of h and the cozero set of g built by parts (``_parts``: Z(c·u) =
    Z(u), Z(|u|) = Z(u), Z(u⁺) = {u <= 0}, Z(a ∨ b) = Z(a + b) =
    Z(a) ∩ Z(b) and Z(a ∧ b) = Z(a) ∪ Z(b) for nonnegative a, b), so a
    composite representative such as |a| ∨ |b| is never linearized whole
    to answer true.  On false, the witness is that of the first meet
    (``semilinear._first_meet``) of the whole-term sets ``zero_set(h)``
    and ``cozero_set(g)`` (and the region): a verified point z with
    h(z) = 0 and g(z) != 0 (and z in the region)."""
    limit = _check_inputs(n, region, ceiling, g, h)
    extra = () if region is None else (region,)
    if _first_meet((_parts(h, n, limit, False),
                    _parts(g, n, limit, True)) + extra) is None:
        return (True, None)
    cell = _first_meet((zero_set(h, n, limit), cozero_set(g, n, limit))
                       + extra)
    w = None if cell is None else witness_point(cell, n)
    if w is None:
        raise ContractError("ideal order: the sets built by parts meet "
                            "but the whole-term sets do not")
    if evaluate(h, w) != 0 or evaluate(g, w) == 0 or \
            (region is not None and not region.contains(w)):
        raise ContractError(f"ideal order witness {w} fails")
    return (False, w)


def ideal_join(g: VLTerm, h: VLTerm) -> VLTerm:
    """Representative of <g> ∨ <h>: |g| ∨ |h| (cozero = union)."""
    return Join(abs(g), abs(h))


def ideal_meet(g: VLTerm, h: VLTerm) -> VLTerm:
    """Representative of <g> ∧ <h>: |g| ∧ |h| (cozero = intersection)."""
    return Meet(abs(g), abs(h))


def cevian_dev(g: VLTerm, h: VLTerm) -> VLTerm:
    """Representative of the ideal-level deviation: (g - h)^+."""
    return (g - h).pos()


def ideal_meet_is_zero(g: VLTerm, h: VLTerm, n: int,
                       region: Optional[SemilinearSet] = None,
                       ceiling: Optional[int] = None) -> bool:
    """Whether <|g|> ∧ <|h|> is the zero ideal (no common cozero point,
    within the region when given), decided on the cozero sets built by
    parts as in ``ideal_leq``."""
    limit = _check_inputs(n, region, ceiling, g, h)
    extra = () if region is None else (region,)
    return _first_meet((_parts(g, n, limit, True),
                        _parts(h, n, limit, True)) + extra) is None


def check_cevian_triple(g: VLTerm, h: VLTerm, k: VLTerm, n: int,
                        region: Optional[SemilinearSet] = None,
                        ceiling: Optional[int] = None) -> bool:
    """Whether <(g-k)^+> <= <(g-h)^+> ∨ <(h-k)^+>; true for all terms."""
    lhs = cevian_dev(g, k)
    rhs = ideal_join(cevian_dev(g, h), cevian_dev(h, k))
    return ideal_leq(lhs, rhs, n, region, ceiling)[0]


def substitute(t: VLTerm, sigma: Mapping) -> VLTerm:
    """Homomorphic substitution of generators.

    ``sigma`` maps generator indices to terms and must cover every
    generator appearing in ``t``; the unit maps to itself."""
    def image(s: VLTerm, kids: list) -> VLTerm:
        if isinstance(s, Gen):
            if s.index not in sigma:
                raise InputError(f"sigma missing generator {s.index}")
            return sigma[s.index]
        if isinstance(s, One):
            return s
        if isinstance(s, Scale):
            return Scale(s.coeff, kids[0])
        return type(s)(*kids)

    return _fold(t, image)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

class ImplicationRecord(NamedTuple):
    """One direction of the pseudocomplement probe: if the meet with
    `split` is zero then the probe lies below `other`.  ``holds`` is None
    when the hypothesis fails (non-binding)."""
    binding: bool
    holds: Optional[bool]
    witness: Optional[tuple]


class ProbeEntry(NamedTuple):
    term: VLTerm
    lower_implication: ImplicationRecord   # meet with (g0 - c*ga)^+ zero
    upper_implication: ImplicationRecord   # meet with (c*ga - g0)^+ zero

    @property
    def is_counterexample(self) -> bool:
        return any(r.binding and r.holds is False
                   for r in (self.lower_implication, self.upper_implication))


class PscomProbeReport(NamedTuple):
    n: int
    alpha: int
    c: Fraction
    entries: tuple

    @property
    def counterexamples(self) -> tuple:
        return tuple(e for e in self.entries if e.is_counterexample)


def pseudocomplement_probe(n: int, alpha: int, c,
                           probes: Iterable[VLTerm],
                           ceiling: Optional[int] = None) -> PscomProbeReport:
    """Probe whether <(g0 - c*g_alpha)^+> and <(c*g_alpha - g0)^+> behave
    as pseudocomplements of each other relative to the bounded region:
    for each probe t, a zero meet with one side must force <|t|> below
    the other side.  Counterexamples are reported, never suppressed."""
    if not 1 <= alpha < n:
        raise InputError("alpha must satisfy 1 <= alpha < n")
    c = Fraction(c)
    if c <= 0:
        raise InputError("c must be positive")
    region = omega_region(n)
    down = cevian_dev(Gen(0), Scale(c, Gen(alpha)))   # (g0 - c*ga)^+
    up = cevian_dev(Scale(c, Gen(alpha)), Gen(0))     # (c*ga - g0)^+
    entries = []
    for t in probes:
        tt = abs(t)
        recs = []
        for split, other in ((down, up), (up, down)):
            binding = ideal_meet_is_zero(tt, split, n, region, ceiling)
            if binding:
                ok, w = ideal_leq(tt, other, n, region, ceiling)
                recs.append(ImplicationRecord(True, ok, w))
            else:
                recs.append(ImplicationRecord(False, None, None))
        entries.append(ProbeEntry(t, recs[0], recs[1]))
    return PscomProbeReport(n, alpha, c, tuple(entries))


class LadderCheck(NamedTuple):
    lhs: VLTerm
    rhs: VLTerm
    inclusion_false: bool        # decision-procedure verdict
    witness: Optional[tuple]     # decision-procedure witness
    anchor_point: tuple          # hand-picked witness from the parameters
    anchor_valid: bool           # anchor re-evaluates correctly


class NoisoProbeReport(NamedTuple):
    k: int
    m: int
    n_coeff: int
    primary: LadderCheck
    dual: LadderCheck

    @property
    def reproduced(self) -> bool:
        return all(chk.inclusion_false and chk.anchor_valid
                   for chk in (self.primary, self.dual))


def _ladder(lhs: VLTerm, rhs: VLTerm, anchor: tuple,
            region: SemilinearSet, ceiling) -> LadderCheck:
    ok, w = ideal_leq(lhs, rhs, 2, region, ceiling)
    anchor_valid = (region.contains(anchor)
                    and evaluate(rhs, anchor) == 0
                    and evaluate(lhs, anchor) != 0)
    return LadderCheck(lhs, rhs, not ok, w, anchor, anchor_valid)


def noiso_probe(k: int, m: int, n_coeff: int,
                ceiling: Optional[int] = None) -> NoisoProbeReport:
    """Two-variable instance of the inclusion failures that block
    one-sided monotone deviations on the bounded region.

    Requires 2^(k-1) > m * n_coeff and k <= ``MAX_NOISO_K``.  Primary
    ladder: the inclusion
    <(2^(k-1)*g0 - m*g1)^+> <= <(n_coeff*g0 - g1)^+> must be FALSE, with
    anchor point (1/n_coeff, 1).  Dual ladder:
    <(g1 - m*g0)^+> <= <(n_coeff*g1 - 2^(k-1)*g0)^+> must be FALSE, with
    anchor point (2^(1-k), 1/n_coeff).
    """
    if k < 1 or m < 1 or n_coeff < 1:
        raise InputError("k, m, n_coeff must be positive integers")
    if k > MAX_NOISO_K:
        raise InputError(f"k must be at most {MAX_NOISO_K}")
    if 2 ** (k - 1) <= m * n_coeff:
        raise InputError("parameters must satisfy 2^(k-1) > m * n_coeff")
    region = omega_region(2)
    big = 2 ** (k - 1)
    primary = _ladder(
        (Fraction(big) * Gen(0) - Fraction(m) * Gen(1)).pos(),
        (Fraction(n_coeff) * Gen(0) - Gen(1)).pos(),
        (Fraction(1, n_coeff), Fraction(1)),
        region, ceiling)
    dual = _ladder(
        (Gen(1) - Fraction(m) * Gen(0)).pos(),
        (Fraction(n_coeff) * Gen(1) - Fraction(big) * Gen(0)).pos(),
        (Fraction(1, big), Fraction(1, n_coeff)),
        region, ceiling)
    return NoisoProbeReport(k, m, n_coeff, primary, dual)


# ---------------------------------------------------------------------------
# Random terms (seed-pinned corpora for probes and batch checks)
# ---------------------------------------------------------------------------

def random_term(rng: random.Random, n: int, depth: int) -> VLTerm:
    """A random term of the given maximal operator depth (leaf-biased)."""
    if depth <= 0:
        r = rng.random()
        if r < 0.7:
            return Gen(rng.randrange(n))
        if r < 0.9:
            return One()
        return const(Fraction(rng.randint(-2, 2)))
    op = rng.choice(["add", "join", "meet", "scale", "pos", "leaf", "leaf"])
    if op == "leaf":
        return random_term(rng, n, 0)
    if op == "scale":
        q = Fraction(rng.choice([-2, -1, 1, 2, 3]),
                     rng.choice([1, 1, 2]))
        return Scale(q, random_term(rng, n, depth - 1))
    if op == "pos":
        return random_term(rng, n, depth - 1).pos()
    a = random_term(rng, n, depth - 1)
    b = random_term(rng, n, depth - 1)
    return Add(a, b) if op == "add" else Join(a, b) if op == "join" \
        else Meet(a, b)


# ---------------------------------------------------------------------------
# Term grammar
# ---------------------------------------------------------------------------

# One token: a generator, ``one``, a rational p or p/q, or an operator;
# blanks before it are skipped.
_TOKEN = re.compile(
    r"\s*(g[0-9]+|one|[0-9]+(?:/[0-9]+)?|\\/|/\\|\^\+|[-+*|()])")

# The binary operators, loosest first: precedence and constructor.  All
# are left-associative.
_BINARY = {"\\/": (1, Join), "/\\": (2, Meet),
           "+": (3, Add), "-": (3, VLTerm.__sub__)}


def term_depth(t: VLTerm) -> int:
    """The number of operators on the longest path from the root of the
    term to a leaf (computed without recursion)."""
    return _fold(t, lambda s, kids: 1 + max(kids) if kids else 0)


def parse_term(text: str) -> VLTerm:
    """Parse the textual grammar: atoms g0.., one; operators +, -,
    rational scaling p/q*, \\/ (join), /\\ (meet), postfix ^+, and |...|
    for absolute value.  Example: ``(g0 - 2*g1)^+ \\/ one``.  Binding
    from tightest: postfix ^+, prefix - and p/q* (``-g0^+`` is -(g0^+)),
    + and - (one level), /\\, then \\/; the binary operators are
    left-associative (``_BINARY``): g0 - g1 - g2 is (g0 - g1) - g2.
    Terms deeper than ``MAX_TERM_DEPTH`` (in operators, or in nested
    parentheses, bars and prefix operators) are an input error."""
    toks, pos = [], 0
    while (m := _TOKEN.match(text, pos)) is not None:
        toks.append(m.group(1))
        pos = m.end()
    if text[pos:].strip():
        raise InputError(f"cannot tokenize term at: {text[pos:]!r}")
    toks.append(None)
    pos = nesting = 0

    def nested(parse):
        """Run a sub-parser one nesting level deeper."""
        nonlocal nesting
        nesting += 1
        if nesting > MAX_TERM_DEPTH:
            raise InputError(
                f"term nested deeper than {MAX_TERM_DEPTH} levels")
        t = parse()
        nesting -= 1
        return t

    def take(expected=None):
        nonlocal pos
        tok = toks[pos]
        if tok is None:
            raise InputError("unexpected end of term")
        if expected is not None and tok != expected:
            raise InputError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def binary(floor=1):
        """Operands joined by binary operators of precedence >= floor."""
        t = unary()
        while toks[pos] in _BINARY and _BINARY[toks[pos]][0] >= floor:
            level, make = _BINARY[take()]
            t = make(t, binary(level + 1))
        return t

    def unary():
        if toks[pos] == "-":
            take()
            return -nested(unary)
        if toks[pos] is not None and toks[pos][0].isdigit():
            q = parse_rational(take())
            if toks[pos] != "*":
                return const(q)
            take()
            return Scale(q, nested(unary))
        t = primary()
        while toks[pos] == "^+":
            take()
            t = t.pos()
        return t

    def primary():
        tok = take()
        if tok[0] == "g":
            try:
                return Gen(int(tok[1:]))
            except ValueError:      # past Python's int digit limit
                raise InputError(f"generator index of {len(tok) - 1} "
                                 "digits") from None
        if tok == "one":
            return One()
        if tok not in ("(", "|"):
            raise InputError(f"unexpected token {tok!r}")
        inner = nested(binary)
        take(")" if tok == "(" else "|")
        return inner if tok == "(" else abs(inner)

    term = binary()
    if toks[pos] is not None:
        raise InputError(f"trailing input after term: {toks[pos]!r}")
    if term_depth(term) > MAX_TERM_DEPTH:
        raise InputError(f"term deeper than {MAX_TERM_DEPTH} operators")
    return term
