"""Exact semilinear kernel: emptiness, witnesses, elimination,
complement, inclusion, shadows, interpolation."""

import inspect
import random
from fractions import Fraction
from functools import reduce

import pytest

from latdev import semilinear
from latdev.errors import ContractError, InputError, ResourceLimitError
from latdev.semilinear import (Cell, Constraint, GE, GT, EQ, LinearForm,
                               SemilinearSet, complement, eliminate, form,
                               includes, interpolant, intersect, is_empty,
                               lower_shadow_set, parse_cell,
                               parse_constraint, parse_set, same_set, union,
                               unit_form, upper_shadow_set, witness_point)

import oracle_fm
from oracle_vlterms import is_empty_set
from conftest import random_form, random_point, random_semilinear


def S(cells, n):
    return parse_set(cells, n)


WHOLE2 = SemilinearSet.whole(2)
EMPTY2 = SemilinearSet.empty(2)


class TestParsing:
    def test_atom_roundtrip(self):
        a = parse_constraint("2*x0 - 1/3*x1 + 1 > 0", 2)
        assert a.rel == GT
        assert a.form.coeffs == (Fraction(2), Fraction(-1, 3))
        assert a.form.const == 1
        assert parse_constraint(str(a), 2) == a

    def test_relations_normalized(self):
        assert parse_constraint("x0 < 1", 1) == \
            parse_constraint("1 - x0 > 0", 1)
        assert parse_constraint("x0 <= x1", 2).rel == GE

    def test_zero_denominator_is_input_error(self):
        with pytest.raises(InputError, match="zero denominator"):
            parse_constraint("x0 > 1/0", 1)
        with pytest.raises(InputError, match="zero denominator"):
            parse_constraint("3/0*x0 + 1 >= 0", 1)

    @pytest.mark.parametrize("text", [
        "x\u0661 + 1", "\u0661/2*x0", "x0 + \uff13", "x0 + 1/\u0662"])
    def test_only_ascii_digits_in_forms(self, text):
        # Arabic-Indic and fullwidth digits are digits to ``\d``
        with pytest.raises(InputError, match="cannot parse linear form"):
            semilinear.parse_linear_form(text, 2)

    @pytest.mark.parametrize("text", ["\u0661", "\u0661/2", "1/\u0662",
                                      "\uff13", "0.\u0665"])
    def test_only_ascii_digits_in_rationals(self, text):
        with pytest.raises(InputError, match="not a rational number"):
            semilinear.parse_rational(text)

    def test_ascii_rationals_still_read(self):
        assert [semilinear.parse_rational(t) for t in
                ("3", "-2/3", "0.5", " 7 ")] == \
            [3, Fraction(-2, 3), Fraction(1, 2), 7]

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_constraint("x0 ? 0", 1)
        with pytest.raises(InputError):
            parse_constraint("y3 > 0", 1)
        with pytest.raises(InputError):
            parse_constraint("x5 > 0", 2)


class TestEmptiness:
    def test_contradictory_strict_pair(self):
        assert is_empty(parse_cell(["x0 > 0", "-x0 > 0"], 2))

    def test_satisfiable(self):
        assert not is_empty(parse_cell(["x0 > 0", "x1 - x0 >= 0"], 2))

    def test_strict_against_closed_bounds(self):
        assert is_empty(parse_cell(["x0 - 1 >= 0", "1 - x0 >= 0",
                                    "x0 - 1 > 0"], 1))

    def test_equality_atoms(self):
        assert not is_empty(parse_cell(["x0 - x1 = 0", "x0 > 0"], 2))
        assert is_empty(parse_cell(["x0 = 0", "x0 - 1 = 0"], 1))

    def test_whole_cell_nonempty(self):
        assert not is_empty(Cell(()))

    def test_row_ceiling_counts_kept_rows_and_combinations(self,
                                                           monkeypatch):
        """Two lower and two upper bounds on x0 and one row without x0:
        eliminating x0 builds 1 + 2*2 = 5 rows, allowed up to
        MAX_FM_ROWS = 5 and refused, before any is built, below it."""
        cell = parse_cell(["x0 - x1 > 0", "x0 + x1 > 0", "1 - x0 > 0",
                           "2 - x0 + x1 >= 0", "x1 + 3 > 0"], 2)
        monkeypatch.setattr(semilinear, "MAX_FM_ROWS", 5)
        assert witness_point(cell) is not None
        monkeypatch.setattr(semilinear, "MAX_FM_ROWS", 4)
        with pytest.raises(ResourceLimitError,
                           match="eliminating x0 would build 5 rows"):
            witness_point(cell)


class TestWitness:
    def test_simple(self):
        w = witness_point(parse_cell(["x0 > 0"], 2))
        assert w is not None and w[0] > 0

    def test_empty_gives_none(self):
        assert witness_point(parse_cell(["x0 > 0", "-x0 > 0"], 2)) is None

    def test_through_chained_bounds(self):
        w = witness_point(parse_cell(["x0 > 0", "x1 - 2*x0 > 0"], 2))
        assert w is not None and w[0] > 0 and w[1] > 2 * w[0]

    def test_kernel_faults_raise_contract_error(self, monkeypatch):
        """A point that fails its cell, or an empty interval met in
        back-substitution, raises ContractError instead of returning."""
        cell = parse_cell(["x0 > 0"], 1)
        monkeypatch.setattr(semilinear, "_holds", lambda atoms, P, D: False)
        with pytest.raises(ContractError, match="bad point"):
            witness_point(cell)
        monkeypatch.undo()
        # x0 > 0 and -x0 >= 0, as if elimination had missed them
        stage = ("ineq", 0, [(GT, (1, 0)), (GE, (-1, 0))])
        monkeypatch.setattr(semilinear, "_project",
                            lambda rows, variables: ([stage], []))
        with pytest.raises(ContractError, match="empty interval at x0"):
            witness_point(cell)

    def test_random_cells_verify(self, rng):
        for _ in range(150):
            n = rng.randint(1, 3)
            for c in random_semilinear(rng, n).cells:
                w = witness_point(c, n)
                assert (w is None) == is_empty(c)


class TestEliminate:
    def test_projects_conjunct_away(self):
        got = eliminate(S([["x0 > 0", "x1 > 0"]], 2), [1])
        assert same_set(got, S([["x0 > 0"]], 2))

    def test_no_occurrence_unchanged(self):
        base = S([["x0 > 0"]], 2)
        assert same_set(eliminate(base, [1]), base)

    def test_empty_set(self):
        assert eliminate(EMPTY2, [0]).cells == ()

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            eliminate(WHOLE2, [5])

    def test_against_grid_oracle(self, rng):
        # one-sided correctness against a dense-grid existential check:
        # every grid point of the oracle projection lies in the computed
        # projection, and every computed cell witness genuinely extends.
        grid = [Fraction(k, 4) for k in range(-16, 17)]
        for trial in range(10):
            n = rng.choice([1, 2, 2, 3])
            U = random_semilinear(rng, n, max_cells=2, max_atoms=2)
            var = rng.randrange(n)
            proj = eliminate(U, [var])
            others = [i for i in range(n) if i != var]
            import itertools
            sample = itertools.product(*(grid for _ in others)) \
                if others else [()]
            for vals in sample:
                pt = [Fraction(0)] * n
                for i, v in zip(others, vals):
                    pt[i] = v
                exists = any(
                    U.contains(tuple(pt[i] if i != var else g
                                     for i in range(n)))
                    for g in grid)
                if exists:
                    assert proj.contains(tuple(pt))
            for c in proj.cells:
                w = witness_point(c, n)
                fixed = [Constraint(unit_form(n, i, 1, -w[i]), EQ)
                         for i in others]
                ext = intersect(U, SemilinearSet(n, (Cell.of(fixed),)))
                assert not is_empty_set(ext)


class TestComplement:
    def test_whole_and_empty(self):
        assert complement(WHOLE2).cells == ()
        assert same_set(complement(EMPTY2), WHOLE2)

    def test_halfspace(self):
        got = complement(S([["x0 > 0"]], 2))
        assert same_set(got, S([["-x0 >= 0"]], 2))

    def test_union_de_morgan(self):
        both = S([["x0 > 0"], ["x1 > 0"]], 2)
        assert same_set(union(S([["x0 > 0"]], 2), S([["x1 > 0"]], 2)), both)
        got = complement(both)
        assert same_set(got, S([["-x0 >= 0", "-x1 >= 0"]], 2))

    def test_involution_semantically(self, rng):
        for _ in range(40):
            U = random_semilinear(rng, rng.randint(1, 3))
            assert same_set(complement(complement(U)), U)

    def test_membership_flips(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            U = random_semilinear(rng, n)
            C = complement(U)
            for _ in range(25):
                p = random_point(rng, n)
                assert U.contains(p) != C.contains(p)

    def test_ceiling_enforced(self):
        # complement of the union of coordinate hyperplanes in dimension 5
        # runs through all 32 orthants
        cells = [[f"x{i} = 0"] for i in range(5)]
        with pytest.raises(ResourceLimitError):
            complement(S(cells, 5), ceiling=16)

    def test_cached_per_set_and_ceiling(self):
        """No ceiling means the default one: the three calls, and a call
        on an equal set parsed again, return one cached object."""
        text = [["x0 > 0", "x1 >= 1"], ["x0 = x1"]]
        got = complement(S(text, 2))
        assert complement(S(text, 2), None) is got
        assert complement(S(text, 2), semilinear.DEFAULT_CELL_CEILING) is got

    def test_cached_success_still_fails_a_lower_ceiling(self):
        U = S([[f"x{i} = 0"] for i in range(5)], 5)
        assert len(complement(U).cells) == 32
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                complement(U, ceiling=16)
        assert complement(U, 32).cells == complement(U).cells


class TestIntersect:
    def test_subsumed_candidate_skips_emptiness(self, monkeypatch):
        """A candidate that a kept cell subsumes is dropped before its
        emptiness test: the second pair holds every atom of the first.
        The result is the oracle's, which tests emptiness first."""
        A = S([["x0 > 0"], ["x0 > 0", "x1 > 0"]], 2)
        B = S([["x1 > -1"]], 2)
        tested = []
        real = semilinear.is_empty

        def recorder(cell):
            tested.append(cell)
            return real(cell)

        monkeypatch.setattr(semilinear, "is_empty", recorder)
        got = intersect(A, B)
        first = Cell.of(A.cells[0].atoms + B.cells[0].atoms)
        assert tested == [first]        # never the subsumed second pair
        want: list = []
        for a in A.cells:
            for b in B.cells:
                oracle_fm._accumulate(want, Cell.of(a.atoms + b.atoms), None)
        assert got.cells == tuple(want) == (first,)


class TestIncludes:
    def test_empty_always_included(self):
        assert includes(S([["x0 > 0"]], 2), EMPTY2) == (True, None)

    def test_atom_superset(self):
        assert includes(S([["x0 > 0"]], 2),
                        S([["x0 > 0", "x1 > 0"]], 2)) == (True, None)

    def test_witness_on_failure(self):
        ok, w = includes(S([["x0 > 0", "x1 > 0"]], 2), S([["x0 > 0"]], 2))
        assert not ok and w[0] > 0 and w[1] <= 0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            includes(WHOLE2, SemilinearSet.whole(3))

    def test_witness_of_first_nonempty_pair(self):
        """Pairs t ∧ c are tested with ``is_empty`` and only the first
        nonempty one is back-substituted: here three empty pairs come
        before it and two nonempty ones after it.  Verdict and witness
        are the oracle's, which back-substitutes every pair.
        ``witness_point`` stays uncached (a row ceiling set between two
        calls applies to the second)."""
        outer = S([["x0 > 0", "x1 > 0"]], 2)
        inner = S([["x0 > 1", "x1 > 1"], ["x1 > 1", "x0 < 3"],
                   ["x0 < -1"]], 2)
        comp = complement(outer)
        assert [is_empty(Cell.of(t.atoms + c.atoms)) for t in inner.cells
                for c in comp.cells] == [True, True, True, False, False,
                                         False]
        got = includes(outer, inner)
        assert not got[0] and got == oracle_fm.includes(outer, inner)
        assert not hasattr(witness_point, "cache_info")

    def test_never_contradicts_sampling(self, rng):
        for _ in range(30):
            n = rng.randint(1, 3)
            A = random_semilinear(rng, n)
            B = random_semilinear(rng, n)
            ok, w = includes(A, B)
            if ok:
                for _ in range(30):
                    p = random_point(rng, n)
                    assert not (B.contains(p) and not A.contains(p))
            else:
                assert B.contains(w) and not A.contains(w)


def _sign_cells(rng, n):
    """The cells {f > 0}, {f = 0}, {-f > 0} of two random forms, met
    pairwise: nine pairwise disjoint cells, some of them empty."""
    signs = []
    for _ in range(2):
        f = random_form(rng, n)
        signs.append([Constraint(f, GT), Constraint(f, EQ),
                      Constraint(-f, GT)])
    return [Cell.of((a, b)) for a in signs[0] for b in signs[1]]


def _disjoint(T):
    return all(is_empty(Cell.of(a.atoms + b.atoms))
               for i, a in enumerate(T.cells) for b in T.cells[i + 1:])


class TestFirstMeet:
    """``_first_meet`` against the materialized ``intersect`` chain."""

    def _sets(self, rng, n):
        """1-3 sets: random ones, with an empty cell or the whole cell put
        among their cells, the set with no cells, or a sample of
        ``_sign_cells`` in order (pairwise disjoint)."""
        sets = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["random", "empty cell", "whole cell",
                               "no cells", "disjoint", "disjoint"])
            if kind == "no cells":
                sets.append(SemilinearSet.empty(n))
                continue
            if kind == "disjoint":
                cells = [c for c in _sign_cells(rng, n)
                         if rng.random() < 0.5]
            else:
                cells = list(random_semilinear(rng, n).cells)
                extra = {"random": [], "whole cell": [Cell(())],
                         "empty cell": [parse_cell(["x0 > 0", "-x0 > 0"],
                                                   n)]}[kind]
                cells[rng.randint(0, len(cells)):0] = extra
            sets.append(SemilinearSet.of(n, cells))
        return sets

    def test_matches_intersect_chain(self, rng):
        seen = {"none": 0, "meet": 0, "first cell": 0}
        for _ in range(300):
            n = rng.randint(1, 3)
            sets = self._sets(rng, n)
            chain = reduce(intersect, sets)
            got = semilinear._first_meet(sets)
            assert (got is None) == is_empty_set(chain)
            if got is None:
                seen["none"] += 1
                continue
            seen["meet"] += 1
            assert not is_empty(got)
            w = witness_point(got, n)
            assert all(T.contains(w) for T in sets)
            if all(_disjoint(T) for T in sets):
                seen["first cell"] += 1
                first = next(c for c in chain.cells if not is_empty(c))
                assert got == first
        assert min(seen.values()) >= 40, seen

    def test_first_set_taken_as_given(self):
        """A lone set's first nonempty cell comes back as it is, atoms
        unsorted, not rebuilt by ``Cell.of``; an empty cell before it is
        skipped."""
        empty = parse_cell(["x0 > 0", "-x0 > 0"], 1)
        cell = Cell((Constraint(form([-1], 5), GE),
                     Constraint(form([1], 0), GT)))
        assert cell != Cell.of(cell.atoms)
        assert semilinear._first_meet(
            [SemilinearSet._built(1, (empty, cell))]) is cell


class TestShadows:
    def test_upper_shadow_projects(self):
        U = S([["x0 > 0", "x1 > 0"]], 2)
        assert same_set(upper_shadow_set(U, [0]), S([["x0 > 0"]], 2))

    def test_upper_shadow_fixed_on_support(self):
        U = S([["x0 > 0"]], 2)
        assert same_set(upper_shadow_set(U, [0]), U)

    def test_lower_shadow_drains(self):
        U = S([["x0 > 0", "x1 > 0"]], 2)
        assert is_empty_set(lower_shadow_set(U, [0]))

    def test_lower_shadow_fixed_on_support(self):
        U = S([["x0 > 0"]], 2)
        assert same_set(lower_shadow_set(U, [0]), U)

    def test_whole_space_self_shadow(self):
        assert same_set(lower_shadow_set(WHOLE2, [1]), WHOLE2)

    @pytest.mark.parametrize("X", [[2], [-1], [0, 9]])
    def test_support_out_of_range_rejected(self, X):
        """Kept variables outside 0..n-1 would project every variable
        away and answer the whole space."""
        U = S([["x0 > 0", "x1 > 0"]], 2)
        for shadow in (upper_shadow_set, lower_shadow_set):
            with pytest.raises(InputError, match="out of range"):
                shadow(U, X)

    def test_sandwich_idempotence_extremality(self, rng):
        # the full decision-procedure sweep runs in acceptance; this is a
        # smaller instance of the same laws
        for _ in range(25):
            n = rng.randint(1, 3)
            U = random_semilinear(rng, n)
            X = [i for i in range(n) if rng.random() < 0.6]
            up = upper_shadow_set(U, X)
            lo = lower_shadow_set(U, X)
            assert includes(up, U)[0]
            assert includes(U, lo)[0]
            assert same_set(upper_shadow_set(up, X), up)
            assert same_set(lower_shadow_set(lo, X), lo)
            Z = random_semilinear(rng, n)
            Z = upper_shadow_set(Z, X)        # make Z X-definable
            if includes(Z, U)[0]:
                assert includes(Z, up)[0]
            if includes(U, Z)[0]:
                assert includes(lo, Z)[0]

    def test_shadow_atoms_stay_on_support(self, rng):
        for _ in range(20):
            n = rng.randint(2, 3)
            U = random_semilinear(rng, n)
            X = {0}
            up = upper_shadow_set(U, X)
            for c in up.cells:
                for a in c.atoms:
                    assert all(a.form.coeffs[i] == 0
                               for i in range(n) if i not in X)


class TestInterpolant:
    def test_equal_sets(self):
        U = S([["x0 > 0"]], 2)
        W = interpolant(U, [0], U, [0])
        assert same_set(W, U)

    def test_empty_lhs(self):
        W = interpolant(EMPTY2, [0], S([["x0 > 0"]], 2), [0, 1])
        assert is_empty_set(W)

    def test_mixed_supports(self):
        U = S([["x0 > 0", "x1 - x0 > 0"]], 3)     # over {0, 1}
        V = S([["2*x0 > -1"]], 3)                 # over {0, 2} contexts
        W = interpolant(U, [0, 1], V, [0, 2])
        assert includes(W, U)[0] and includes(V, W)[0]
        assert same_set(W, S([["x0 > 0"]], 3))

    def test_precondition_violation_reported(self):
        U = S([["x0 > 0"]], 2)
        V = S([["x0 - 1 > 0"]], 2)
        with pytest.raises(ContractError):
            interpolant(U, [0], V, [0])

    def test_undeclared_support_rejected(self):
        U = S([["x0 > 0", "x1 > 0"]], 2)
        with pytest.raises(ContractError):
            interpolant(U, [0], WHOLE2, [0, 1])


class TestOpPredicates:
    def test_op_lattice_shadow_laws_on_strict_sets(self, rng):
        # generating sets of the open-cone flavor: strict homogeneous atoms
        for _ in range(15):
            n = rng.randint(2, 3)
            cells = []
            for _ in range(rng.randint(1, 2)):
                atoms = []
                for _ in range(rng.randint(1, 2)):
                    coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                    if all(c == 0 for c in coeffs):
                        coeffs[0] = Fraction(1)
                    atoms.append(Constraint(LinearForm(tuple(coeffs)), GT))
                cells.append(Cell.of(atoms))
            U = SemilinearSet.of(n, cells)
            X = [0]
            up = upper_shadow_set(U, X)
            assert includes(up, U)[0]
            assert same_set(upper_shadow_set(up, X), up)


class TestDimensionChecks:
    def test_form_sum_keeps_every_variable(self):
        with pytest.raises(InputError):
            form([1, 2], 3) + form([1], 0)
        with pytest.raises(InputError):
            form([1], 0) - form([1, 2], 3)
        assert form([1, 2], 3) - form([1, 0], 1) == form([0, 2], 2)

    def test_cell_of_two_dimensions_is_input_error(self):
        mixed = Cell.of([Constraint(form([1, 2], 3), GT),
                         Constraint(form([1]), GE)])
        for check in (is_empty, witness_point,
                      lambda c: c.satisfied_by((1, 1)),
                      lambda c: c.satisfied_by((1,))):
            with pytest.raises(InputError):
                check(mixed)
        with pytest.raises(InputError):
            SemilinearSet(2, (mixed,))

    @pytest.mark.parametrize("build", [
        lambda: SemilinearSet.whole(-1), lambda: SemilinearSet("2", ()),
        lambda: SemilinearSet(2.0, ()), lambda: SemilinearSet.empty(None),
        lambda: SemilinearSet(2, (5,)),
        lambda: SemilinearSet(1, (Constraint(form([1]), GT),))],
        ids=["negative", "str", "float", "none", "int-cell", "atom-cell"])
    def test_bad_dimension_or_cell(self, build):
        with pytest.raises(InputError, match="dimension must be a "
                                             "non-negative int|not a cell"):
            build()

    @pytest.mark.parametrize("op", [
        union, intersect, lambda U, V: interpolant(U, [0], V, [0])],
        ids=["union", "intersect", "interpolant"])
    def test_sets_of_two_dimensions(self, op):
        with pytest.raises(InputError, match="^dimension mismatch$"):
            op(WHOLE2, SemilinearSet.whole(3))

    def test_witness_point_dimension(self):
        with pytest.raises(InputError, match="dimension required for the "
                                             "unconstrained cell"):
            witness_point(Cell.of([]))
        with pytest.raises(InputError, match="^dimension mismatch$"):
            witness_point(parse_cell(["x0 > 0"], 2), 3)

    def test_relation_outside_the_three(self):
        with pytest.raises(InputError, match="relation must be one of .*"
                                             "got '<'"):
            Constraint(form([1]), "<")

    def test_form_at_point_of_other_dimension(self):
        with pytest.raises(InputError, match="point dimension mismatch"):
            form([1, 2]).evaluate((1,))

    @pytest.mark.parametrize("bad", ["abc", float("nan"), float("inf"),
                                     "1/0", None, 1j])
    def test_coordinate_not_a_finite_rational(self, bad):
        half = S([["x0 > 0"]], 1)
        with pytest.raises(InputError):
            half.contains((bad,))
        with pytest.raises(InputError):
            half.cells[0].satisfied_by((bad,))
        with pytest.raises(InputError):
            half.cells[0].atoms[0].satisfied_by((bad,))
        with pytest.raises(InputError):
            Cell(()).satisfied_by((bad,))
        with pytest.raises(InputError):
            SemilinearSet.whole(2).contains((bad, 1))

    @pytest.mark.parametrize("point,inside", [
        ((1,), True), ((Fraction(-1, 2),), False), (("1/2",), True),
        (("-0.25",), False), ((0.5,), True), ((True,), True), ((0,), False)])
    def test_rational_coordinates_of_any_type(self, point, inside):
        assert S([["x0 > 0"]], 1).contains(point) is inside


class TestOperands:
    @pytest.mark.parametrize("coeffs, const", [
        (("a",), 0), (5, 0), ((1, float("nan")), 0), ((None,), 0),
        ((1, 1j), 0), ((1,), "1/2"), ((1,), float("inf"))],
        ids=["str", "int", "nan", "none", "complex", "str-const", "inf"])
    def test_form_values_must_be_finite_rationals(self, coeffs, const):
        with pytest.raises(InputError, match="not a sequence of finite "
                                             "rationals|is not a finite "
                                             "rational number"):
            LinearForm(coeffs, const)

    def test_form_takes_any_rational_number(self):
        f = LinearForm([1, 2.5, Fraction(1, 3), True], -0.25)
        assert f.coeffs == (1, Fraction(5, 2), Fraction(1, 3), 1)
        assert f.const == Fraction(-1, 4)
        assert f == LinearForm((1, Fraction(5, 2), Fraction(1, 3), 1),
                               Fraction(-1, 4))
        assert Constraint(LinearForm((1, 2.5), 0), GE) == \
            parse_constraint("x0 + 5/2*x1 >= 0", 2)

    @pytest.mark.parametrize("value", [(1, 2), form([1]).coeffs, None, "x0"])
    def test_atom_form_must_be_a_linear_form(self, value):
        with pytest.raises(InputError, match="not a linear form"):
            Constraint(value, GE)

    @pytest.mark.parametrize("check", [
        is_empty, witness_point, lambda c: c.satisfied_by((1,)),
        lambda c: SemilinearSet(1, (c,))],
        ids=["is_empty", "witness_point", "satisfied_by", "set"])
    @pytest.mark.parametrize("atoms", [
        (5,), (Constraint(form([1]), GT), form([1])), ((GT, 1, 0),)],
        ids=["int", "form", "tuple"])
    def test_cell_atoms_must_be_atoms(self, check, atoms):
        with pytest.raises(InputError, match="not an atom"):
            check(Cell(atoms))

    @pytest.mark.parametrize("atoms, shown", [
        ([5], "5"), ([Constraint(form([1]), GT), "x0 > 0"], "'x0 > 0'"),
        ([[1]], "[1]"), ((Constraint(form([1]), GT), {"a": 1}), "{'a': 1}"),
        (iter([5]), "5"), (iter([[1]]), "unhashable type: 'list'")],
        ids=["int", "str", "list", "dict", "iter-int", "iter-list"])
    def test_cell_of_names_the_non_atom(self, atoms, shown):
        with pytest.raises(InputError) as info:
            Cell.of(atoms)
        assert str(info.value) == f"not an atom: {shown}"

    @pytest.mark.parametrize("cells", [
        lambda: [Cell(())], lambda: (c for c in [Cell(())])],
        ids=["list", "generator"])
    def test_set_stores_a_tuple_of_cells(self, cells):
        U = SemilinearSet(1, cells())
        assert U.cells == (Cell(()),)
        assert complement(U) == SemilinearSet.empty(1)
        assert includes(U, U) == (True, None)
        assert includes(U, S([["x0 > 0"]], 1)) == (True, None)


HALF = S([["x0 > 0"]], 1)
CEILING_CALLS = {
    "intersect": lambda c: intersect(HALF, HALF, c),
    "complement": lambda c: complement(HALF, c),
    "eliminate": lambda c: eliminate(HALF, [0], c),
    "includes": lambda c: includes(HALF, HALF, c),
    "same_set": lambda c: same_set(HALF, HALF, c),
    "upper_shadow_set": lambda c: upper_shadow_set(HALF, [0], c),
    "lower_shadow_set": lambda c: lower_shadow_set(HALF, [0], c),
    "interpolant": lambda c: interpolant(HALF, [0], HALF, [0], c),
}


def test_every_ceiling_function_is_checked():
    takes = {name for name, f in vars(semilinear).items()
             if inspect.isfunction(f) and not name.startswith("_")
             and f.__module__ == semilinear.__name__
             and "ceiling" in inspect.signature(f).parameters}
    assert takes == set(CEILING_CALLS)


@pytest.mark.parametrize("ceiling", [0, -3])
@pytest.mark.parametrize("name", sorted(CEILING_CALLS))
def test_ceiling_below_1_is_input_error(name, ceiling):
    with pytest.raises(InputError, match=f"ceiling must be at least 1, "
                                         f"got {ceiling}"):
        CEILING_CALLS[name](ceiling)
    CEILING_CALLS[name](1)
