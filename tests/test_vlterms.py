"""Vector-lattice terms, piecewise forms, the principal-ideal order and
the region probes."""

import random
import re
from fractions import Fraction

import pytest

import oracle_vlterms
from oracle_vlterms import is_empty_set
from latdev import semilinear, vlterms
from latdev.errors import ContractError, InputError, ResourceLimitError
from latdev.semilinear import Cell, SemilinearSet, complement, includes, \
    intersect, is_empty, same_set
from latdev.vlterms import (MAX_REGION_DIMENSION, MAX_TERM_DEPTH, Add, Gen,
                            Join, Meet, Scale, cevian_dev, check_cevian_triple,
                            const, cozero_set, evaluate, gen, ideal_join,
                            ideal_leq, ideal_meet, ideal_meet_is_zero,
                            linearize, max_generator, noiso_probe,
                            omega_extend, omega_region, one, parse_term,
                            pseudocomplement_probe, random_term, substitute,
                            term_depth, text_length, VLTerm, zero,
                            zero_set)

from conftest import random_point, time_limit, token_soup

F = Fraction
g0, g1, g2 = gen(0), gen(1), gen(2)


class TestEvaluate:
    def test_join_is_max(self):
        assert evaluate(g0 | g1, (2, 3)) == 3

    def test_positive_part(self):
        assert evaluate((g0 - g1).pos(), (1, 4)) == 0
        assert evaluate((g0 - g1).pos(), (4, 1)) == 3

    def test_meet_with_unit(self):
        assert evaluate((2 * g0) & one(), (F(1, 3), 0)) == F(2, 3)

    def test_abs(self):
        assert evaluate(abs(g0), (-5,)) == 5

    def test_dimension_checked(self):
        with pytest.raises(InputError):
            evaluate(g1, (1,))


# A coordinate given as a point or a partial point: one conversion for
# forms, terms and the region completion.
COORDINATE_ENTRIES = {
    "form": lambda p: semilinear.form([1]).evaluate((p,)),
    "term": lambda p: evaluate(g0, (p,)),
    "extend": lambda p: omega_extend({0: p}, 2)[0],
}


@pytest.mark.parametrize("bad", ["abc", float("nan"), float("inf"), "1/0",
                                 None, 1j])
@pytest.mark.parametrize("entry", COORDINATE_ENTRIES)
def test_coordinate_not_a_finite_rational(entry, bad):
    with pytest.raises(InputError, match="is not a finite rational"):
        COORDINATE_ENTRIES[entry](bad)


@pytest.mark.parametrize("value", ["1/2", 0.5, F(1, 2), " 1/2 "])
@pytest.mark.parametrize("entry", COORDINATE_ENTRIES)
def test_coordinate_converted_as_before(entry, value):
    got = COORDINATE_ENTRIES[entry](value)
    assert got == F(1, 2) and type(got) is Fraction


@pytest.mark.parametrize("index", [0.5, "0", None, F(1)])
def test_extend_index_not_an_int(index):
    with pytest.raises(InputError, match="is not an int"):
        omega_extend({index: F(1, 2)}, 2)


class TestParse:
    def test_spec_example(self):
        t = parse_term("(g0 - 2*g1)^+ \\/ one")
        assert evaluate(t, (5, 1)) == 3
        assert evaluate(t, (0, 1)) == 1

    def test_rational_scale_and_abs(self):
        t = parse_term("1/2*|g0| /\\ g1")
        assert evaluate(t, (-4, 7)) == 2

    def test_unary_minus_and_sum(self):
        t = parse_term("-g0 + 3*one - g1")
        assert evaluate(t, (1, 2)) == 0

    def test_bad_input(self):
        with pytest.raises(InputError):
            parse_term("g0 +")
        with pytest.raises(InputError):
            parse_term("q0")

    @pytest.mark.parametrize("text, message", [
        ("(g0 |", "expected "), (")", "unexpected token"),
        ("g0 g1", "trailing input"), ("g0 )", "trailing input")])
    def test_malformed_term_message(self, text, message):
        with pytest.raises(InputError, match=message):
            parse_term(text)

    @pytest.mark.parametrize("text, message", [
        ("(g0 |", "expected ')', got '|'"), ("|g0", "unexpected end of term"),
        (")", "unexpected token ')'"), ("g0 \\/", "unexpected end of term"),
        ("g0 g1", "trailing input after term: 'g1'"),
        ("2^+", "trailing input after term: '^+'")])
    def test_message_quotes_the_token(self, text, message):
        with pytest.raises(InputError, match=re.escape(message)):
            parse_term(text)

    def test_trailing_blanks_accepted(self):
        assert parse_term("g0  ") == g0

    @pytest.mark.parametrize("text, term", [
        ("g0 \\/ g1 /\\ g2", Join(g0, Meet(g1, g2))),
        ("g0 /\\ g1 \\/ g2", Join(Meet(g0, g1), g2)),
        ("g0 - g1 - g2", (g0 - g1) - g2),
        ("g0 + g1 \\/ g2", Join(Add(g0, g1), g2)),
        ("g0 /\\ g1 - g2", Meet(g0, g1 - g2)),
        ("-g0^+", -(g0.pos())),
        ("2*g0 + g1", Add(Scale(2, g0), g1)),
        ("|g0 - g1|^+ + one", Add(abs(g0 - g1).pos(), one()))])
    def test_precedence_and_associativity(self, text, term):
        """Tightest first: postfix ^+, prefix - and p/q*, then + and -,
        /\\, \\/; every binary operator is left-associative."""
        assert parse_term(text) == term

    def test_same_as_former_parser(self):
        """20,000 token-soup texts and 3,000 printed random terms parse
        to equal terms with ``oracle_vlterms.parse_term``, the former
        parser, or raise an InputError with it whose message starts with
        the same words (the former one wrote a token as a regex group
        pair, ``('op', ')')``)."""
        def outcome(parse, text):
            try:
                return parse(text)
            except InputError as e:
                return re.match(r"[a-z ]*", str(e)).group()

        rng = random.Random(29)
        soup = [token_soup(rng) for _ in range(20000)]
        printed = [str(random_term(rng, 3, rng.randint(0, 4)))
                   for _ in range(3000)]
        parsed = 0
        for text in soup + printed:
            got = outcome(parse_term, text)
            assert got == outcome(oracle_vlterms.parse_term, text), text
            parsed += isinstance(got, VLTerm)
        assert parsed > 3000 + 4000

    def test_generator_index_past_int_digit_limit(self):
        # int() refuses more than 4,300 digits with a ValueError
        with pytest.raises(InputError, match="generator index of 5000 "
                                             "digits"):
            parse_term("g" + "9" * 5000)

    def test_negative_generator_index(self):
        with pytest.raises(InputError, match="generator index must be "
                                             "non-negative"):
            gen(-1)

    @pytest.mark.parametrize("index", [-1, 1.5, True, "0", None, F(1)])
    def test_generator_index_is_a_non_negative_int(self, index):
        for build in (Gen, gen):
            with pytest.raises(InputError, match="generator index must be "
                                                 "non-negative and an int"):
                build(index)

    @pytest.mark.parametrize("build", [
        lambda: g0 + 5, lambda: Add(5, g0), lambda: Join(g0, None),
        lambda: Meet("g0", g1), lambda: g0 - 1, lambda: g0 | 2,
        lambda: Scale(1, 5)],
        ids=["add", "Add", "Join", "Meet", "sub", "or", "Scale"])
    def test_operands_are_terms(self, build):
        with pytest.raises(InputError, match="not a term"):
            build()

    @pytest.mark.parametrize("text", [
        "g\u0661", "\u0661/2*g0", "g0 + \uff13", "1/\u0662*g0"])
    def test_only_ascii_digits(self, text):
        # Arabic-Indic and fullwidth digits are digits to ``\d``
        with pytest.raises(InputError, match="cannot tokenize term"):
            parse_term(text)

    @pytest.mark.parametrize("text", ["1/0*g0", "g0 + 3/0", "2/0"])
    def test_zero_denominator_is_input_error(self, text):
        with pytest.raises(InputError, match="zero denominator"):
            parse_term(text)

    @pytest.mark.parametrize("text", [
        "(" * 2000 + "g0" + ")" * 2000,
        "-" * 2000 + "g0",
        "g0" + "^+" * 2000,
        " + ".join(["g0"] * 2000),
        "|" * 2000 + "g0" + "|" * 2000,
        "2*" * 2000 + "g0",
    ], ids=["parens", "minus", "postfix", "sum", "bars", "scaling"])
    def test_deep_terms_rejected(self, text):
        with pytest.raises(InputError, match=str(MAX_TERM_DEPTH)):
            parse_term(text)

    def test_depth_limit_is_inclusive(self):
        t = parse_term("(" * MAX_TERM_DEPTH + "g0" + ")" * MAX_TERM_DEPTH)
        assert t == g0
        t = parse_term(" + ".join(["g0"] * (MAX_TERM_DEPTH + 1)))
        assert term_depth(t) == MAX_TERM_DEPTH
        assert evaluate(t, (2,)) == 2 * (MAX_TERM_DEPTH + 1)
        assert len(linearize(t, 1).pieces) == 1
        assert ideal_leq(t, g0, 1) == (True, None)
        with pytest.raises(InputError):
            parse_term(" + ".join(["g0"] * (MAX_TERM_DEPTH + 2)))
        with pytest.raises(InputError):
            parse_term("-" * (MAX_TERM_DEPTH + 1) + "g0")

    def test_term_depth(self):
        assert term_depth(g0) == 0 and term_depth(one()) == 0
        assert term_depth(parse_term("(g0 - 2*g1)^+")) == 4
        assert term_depth(abs(abs(g0))) == 4

    def test_roundtrip_via_str(self, rng):
        for _ in range(40):
            t = random_term(rng, 3, 2)
            s = str(t)
            u = parse_term(s)
            p = random_point(rng, 3)
            assert evaluate(t, p) == evaluate(u, p)


class TestSharedNodes:
    """|t| holds t twice: k nested bars are 2k nodes but 2^k paths."""

    BARS = 48

    def test_equality_and_hash_of_separately_built_terms(self):
        text = "|" * self.BARS + "g0 - 1/2*g1" + "|" * self.BARS
        a, b = parse_term(text), parse_term(text)
        assert a is not b and a == b and hash(a) == hash(b)
        c = parse_term(text.replace("1/2", "1/3"))
        assert a != c
        assert parse_term("g0 \\/ g1") != parse_term("g0 /\\ g1")
        assert parse_term("g0 + g1") != parse_term("g1 + g0")
        assert Scale(F(2), g0) != Scale(F(3), g0) and g0 != g1

    def test_walks_visit_each_node_once(self):
        t = parse_term("|" * self.BARS + "g0 - g2" + "|" * self.BARS)
        assert max_generator(t) == 2
        assert term_depth(t) == 2 * self.BARS + 2
        assert evaluate(t, (F(-3), 7, F(1, 2))) == F(7, 2)
        s = substitute(t, {0: g1, 2: g0})
        assert evaluate(s, (F(1, 2), F(-3), 7)) == F(7, 2)
        assert max_generator(s) == 1

    def test_text_length(self, rng):
        for depth in range(5):
            for _ in range(50):
                t = random_term(rng, 3, depth)
                assert text_length(t) == len(str(t))
        for bars in range(8):
            t = parse_term("|" * bars + "1/3*g10 - one /\\ (g2)^+" +
                           "|" * bars)
            assert text_length(t) == len(str(t))
        t = parse_term("|" * self.BARS + "g0" + "|" * self.BARS)
        assert text_length(t) == 13 * 2 ** self.BARS - 11

    def test_fold_combines_each_shared_node_once(self):
        """The root reaches the one g1 object twice: the second visit
        finds it valued and pops it, so g0, g1, the inner sum and the
        root are combined once each."""
        shared = Gen(1)
        calls = []
        vlterms._fold(Add(Add(Gen(0), shared), shared),
                      lambda s, kids: calls.append(s) or 0)
        assert len(calls) == 4

    def test_linearize_nested_bars(self):
        t = parse_term("|" * self.BARS + "g0 - g1" + "|" * self.BARS)
        assert len(linearize(t, 2).pieces) == 2
        assert ideal_leq(t, g0 - g1, 2) == (True, None)


class TestScale:
    def test_float_coefficient_is_exact(self):
        t = Scale(0.1, g0)
        assert t.coeff == Fraction(0.1) and type(t.coeff) is Fraction
        # evaluate and linearize read the same exact binary value
        (_, f), = linearize(t, 1).pieces
        assert evaluate(t, (3,)) == f.evaluate((3,)) == 3 * Fraction(0.1)
        assert evaluate(t, (3,)) != Fraction(3, 10)

    def test_bool_coefficient_is_its_integer(self):
        t = Scale(True, g0)
        assert str(t) == "1*(g0)" and t == Scale(Fraction(1), g0)
        assert type(t.coeff) is Fraction

    @pytest.mark.parametrize("coeff", ["1/2", "3", None, 1j])
    def test_non_number_is_input_error(self, coeff):
        with pytest.raises(InputError, match="not a finite rational"):
            Scale(coeff, g0)
        with pytest.raises(InputError, match="not a finite rational"):
            coeff * g0

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_is_input_error(self, coeff):
        with pytest.raises(InputError, match="not a finite rational"):
            Scale(coeff, g0)

    def test_integers_and_fractions_keep_their_hash(self):
        assert Scale(2, g0) == Scale(Fraction(2), g0) == 2 * g0
        assert hash(Scale(2, g0)) == hash(Scale(Fraction(2), g0))
        assert const(-1) == Scale(Fraction(-1), one())


class TestLinearize:
    def test_generator_single_piece(self):
        pw = linearize(g0, 2)
        assert len(pw.pieces) == 1
        assert pw.pieces[0][0] == Cell(())

    def test_join_two_pieces(self):
        pw = linearize(g0 | g1, 2)
        assert len(pw.pieces) == 2

    def test_negative_dimension_rejected(self):
        with pytest.raises(InputError, match="must be non-negative"):
            linearize(one, -1)

    def test_bounded_pieces_and_sample_agreement(self, rng):
        t = (g0 - g1).pos() & g2
        pw = linearize(t, 3)
        assert len(pw.pieces) <= 4
        for _ in range(100):
            p = random_point(rng, 3)
            active = [f for c, f in pw.pieces if c.satisfied_by(p)]
            assert len(active) == 1
            assert active[0].evaluate(p) == evaluate(t, p)

    def test_cover_and_disjoint(self, rng):
        for _ in range(25):
            n = rng.randint(1, 3)
            t = random_term(rng, n, 2)
            pw = linearize(t, n)
            cover = SemilinearSet(n, tuple(c for c, _ in pw.pieces))
            assert includes(cover, SemilinearSet.whole(n))[0]
            for i, (c1, _) in enumerate(pw.pieces):
                for c2, _ in pw.pieces[i + 1:]:
                    assert is_empty(Cell.of(c1.atoms + c2.atoms))

    def test_piece_ceiling(self):
        # sum of |g_i| over six independent coordinates splits into all
        # 64 orthants
        t = abs(gen(0))
        for i in range(1, 6):
            t = t + abs(gen(i))
        with pytest.raises(ResourceLimitError):
            linearize(t, 6, ceiling=50)

    def test_generator_outside_dimension(self):
        with pytest.raises(InputError):
            linearize(g2, 2)

    @pytest.mark.parametrize("ceiling", [0, -1])
    def test_ceiling_below_1_is_input_error(self, ceiling):
        # a generator alone has one piece, but a ceiling below 1 is
        # refused before any split, as the CLI refuses --cell-ceiling 0
        calls = [lambda: linearize(g0, 1, ceiling),
                 lambda: zero_set(g0, 1, ceiling),
                 lambda: cozero_set(g0 | g0, 1, ceiling),
                 lambda: ideal_leq(g0, g0, 1, ceiling=ceiling),
                 lambda: ideal_leq(zero(), zero(), 1, ceiling=ceiling),
                 lambda: ideal_meet_is_zero(g0, zero(), 1,
                                            ceiling=ceiling)]
        for call in calls:
            with pytest.raises(InputError, match="ceiling must be at "
                                                 "least 1"):
                call()
        assert len(linearize(g0, 1, 1).pieces) == 1
        assert ideal_leq(g0, g0, 1, ceiling=1) == (True, None)


class TestZeroCozero:
    def test_cozero_of_generator(self):
        assert same_set(cozero_set(g0, 1),
                        SemilinearSet.of(1, _cells1(["x0 > 0"], ["-x0 > 0"])))

    def test_zero_of_positive_part(self):
        got = zero_set(g0.pos(), 1)
        assert same_set(got, SemilinearSet.of(1, _cells1(["-x0 >= 0"])))

    def test_zero_of_join_matches_direct_construction(self):
        from latdev.semilinear import parse_set
        # max(x0, x1) = 0 forces both below zero and one exactly zero
        got = zero_set(g0 | g1, 2)
        direct = parse_set([["x0 = 0", "-x1 >= 0"],
                            ["x1 = 0", "-x0 >= 0"]], 2)
        assert same_set(got, direct)
        # the positive part widens the zero set to the whole lower quadrant
        got_pos = zero_set((g0 | g1).pos(), 2)
        quadrant = parse_set([["-x0 >= 0", "-x1 >= 0"]], 2)
        assert same_set(got_pos, quadrant)

    def test_zero_is_complement_of_cozero(self, rng):
        for _ in range(20):
            n = rng.randint(1, 2)
            t = random_term(rng, n, 2)
            z = zero_set(t, n)
            cz = cozero_set(t, n)
            assert same_set(z, complement(cz))

    def test_sample_agreement(self, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            t = random_term(rng, n, 2)
            z = zero_set(t, n)
            cz = cozero_set(t, n)
            for _ in range(20):
                p = random_point(rng, n)
                v = evaluate(t, p)
                assert z.contains(p) == (v == 0)
                assert cz.contains(p) == (v != 0)


def _cells1(*atom_lists):
    from latdev.semilinear import parse_cell
    return tuple(parse_cell(al, 1) for al in atom_lists)


class TestIdealOrder:
    def test_up_to_join(self):
        assert ideal_leq(abs(g0), ideal_join(g0, g1), 2) == (True, None)

    def test_join_not_below_component(self):
        ok, w = ideal_leq(ideal_join(g0, g1), abs(g0), 2)
        assert not ok and w[0] == 0 and w[1] != 0

    def test_difference_not_below_positive_part(self):
        ok, w = ideal_leq(cevian_dev(g0, g1), g0.pos(), 2)
        assert not ok
        assert evaluate(g0.pos(), w) == 0 and evaluate(cevian_dev(g0, g1), w) != 0

    def test_reflexive_transitive_on_corpus(self, rng):
        terms = [abs(random_term(rng, 2, 2)) for _ in range(8)]
        rels = {}
        for i, s in enumerate(terms):
            assert ideal_leq(s, s, 2)[0]
            for j, t in enumerate(terms):
                rels[(i, j)] = ideal_leq(s, t, 2)[0]
        for i in range(len(terms)):
            for j in range(len(terms)):
                for k in range(len(terms)):
                    if rels[(i, j)] and rels[(j, k)]:
                        assert rels[(i, k)]

    def test_false_verdicts_carry_valid_witnesses(self, rng):
        for _ in range(25):
            n = rng.randint(1, 3)
            s = random_term(rng, n, 2)
            t = random_term(rng, n, 2)
            ok, w = ideal_leq(s, t, n)
            if not ok:
                assert evaluate(t, w) == 0 and evaluate(s, w) != 0
            else:
                for _ in range(20):
                    p = random_point(rng, n)
                    assert not (evaluate(t, p) == 0 and evaluate(s, p) != 0)

    def test_relative_mode_witness_in_region(self):
        reg = omega_region(2)
        ok, w = ideal_leq(ideal_join(g0, g1), abs(g0), 2, reg)
        assert not ok and reg.contains(w)


class TestIdealAlgebra:
    def test_join_meet_contracts(self, rng):
        # resample terms whose cozero sets are too fragmented for the
        # complement-based equality decision to stay cheap
        done = 0
        while done < 15:
            n = rng.randint(1, 2)
            a = random_term(rng, n, 2)
            b = random_term(rng, n, 2)
            ca, cb = cozero_set(a, n), cozero_set(b, n)
            if len(ca.cells) > 6 or len(cb.cells) > 6:
                continue
            cj = cozero_set(ideal_join(a, b), n)
            cm = cozero_set(ideal_meet(a, b), n)
            from latdev.semilinear import union
            assert same_set(cj, union(ca, cb))
            assert same_set(cm, intersect(ca, cb))
            done += 1

    def test_cevian_dev_against_zero(self):
        assert cevian_dev(g0, zero()) == (g0 - zero()).pos()
        z = zero_set(cevian_dev(g0, zero()), 1)
        assert same_set(z, zero_set(g0.pos(), 1))

    def test_axiom2_disjoint_cozeros(self):
        got = intersect(cozero_set(cevian_dev(g0.pos(), g1.pos()), 2),
                        cozero_set(cevian_dev(g1.pos(), g0.pos()), 2))
        assert is_empty_set(got)

    def test_ideal_axioms_for_positive_pairs(self, rng):
        for _ in range(20):
            n = rng.randint(1, 2)
            a = abs(random_term(rng, n, 2))
            b = abs(random_term(rng, n, 2))
            assert ideal_leq(a, ideal_join(b, cevian_dev(a, b)), n)[0]
            assert is_empty_set(intersect(
                cozero_set(cevian_dev(a, b), n),
                cozero_set(cevian_dev(b, a), n)))


class TestCevianTriple:
    def test_degenerate(self):
        assert check_cevian_triple(g0, g0, g0, 1)

    def test_three_generators(self):
        assert check_cevian_triple(g0, g1, g2, 3)

    def test_small_random_batch(self, rng):
        for _ in range(20):
            n = rng.randint(1, 2)
            g, h, k = (random_term(rng, n, 2) for _ in range(3))
            assert check_cevian_triple(g, h, k, n)


class TestSubstitute:
    def test_identity(self, rng):
        t = parse_term("(g0 - 2*g1)^+ /\\ one")
        s = substitute(t, {0: g0, 1: g1})
        p = random_point(rng, 2)
        assert evaluate(s, p) == evaluate(t, p)

    def test_collapse_onto_representatives(self, rng):
        # send every generator to one of two chosen ones
        t = (g0 | (2 * g1)) - g2
        sigma = {0: g0, 1: g0, 2: g1}
        s = substitute(t, sigma)
        for _ in range(20):
            p = random_point(rng, 2)
            inner = tuple(evaluate(sigma[i], p) for i in range(3))
            assert evaluate(s, p) == evaluate(t, inner)

    def test_constant_collapse(self):
        t = (g0 | g1) + one()
        s = substitute(t, {0: zero(), 1: zero()})
        assert evaluate(s, (9, 9)) == evaluate(t, (0, 0))

    def test_unit_is_fixed(self):
        t = one() + g0
        s = substitute(t, {0: g0, "one": 2 * g0})
        assert evaluate(s, (3,)) == 4

    def test_missing_generator(self):
        with pytest.raises(InputError):
            substitute(g1, {0: g0})


class TestOmega:
    def test_region_nonempty_all_ones(self):
        for n in (1, 2, 4):
            assert omega_region(n).contains(tuple(F(1) for _ in range(n)))

    def test_region_dimension_ceiling(self):
        reg = omega_region(MAX_REGION_DIMENSION)
        assert reg.contains(tuple(F(1) for _ in range(reg.dimension)))
        with pytest.raises(ResourceLimitError):
            omega_region(MAX_REGION_DIMENSION + 1)

    def test_region_built_once_per_dimension(self):
        """The region is cached per n; errors are raised on every call,
        and a bool is not taken for the int it equals."""
        assert omega_region(3) is omega_region(3)
        assert omega_region(True) is not omega_region(1)
        for n, error in ((0, InputError),
                         (MAX_REGION_DIMENSION + 1, ResourceLimitError)):
            for _ in range(2):
                with pytest.raises(error):
                    omega_region(n)

    def test_extend_copies_next_above(self):
        assert omega_extend({2: F(1, 2)}, 3) == (F(1, 2), F(1, 2), F(1, 2))

    def test_extend_total_point_unchanged(self):
        u = {0: F(1, 3), 1: F(1, 4), 2: F(1, 2)}
        assert omega_extend(u, 3) == (F(1, 3), F(1, 4), F(1, 2))

    def test_extend_empty_all_ones(self):
        assert omega_extend({}, 3) == (F(1), F(1), F(1))

    def test_extend_validates_partial_constraints(self):
        with pytest.raises(InputError):
            omega_extend({0: F(2)}, 2)
        with pytest.raises(InputError, match="index 3 outside dimension 3"):
            omega_extend({3: F(1)}, 3)
        with pytest.raises(InputError):
            omega_extend({1: F(1), 2: F(1, 4)}, 3)   # u1 > 2*u2

    def test_extend_random_partials_land_in_region(self, rng):
        reg = omega_region(4)
        for _ in range(40):
            M = sorted(rng.sample(range(4), rng.randint(0, 4)))
            u = {}
            prev = None
            for i in reversed([m for m in M if m > 0]):
                hi = F(1) if prev is None else min(F(1), 2 * prev)
                u[i] = hi * F(rng.randint(0, 4), 4)
                prev = u[i]
            if 0 in M:
                u[0] = F(rng.randint(0, 4), 4)
            v = omega_extend(u, 4)
            assert reg.contains(v)
            for i in M:
                assert v[i] == u[i]


class TestPscomProbe:
    def test_self_probe_binds_and_holds(self):
        c = F(1)
        t = cevian_dev(Scale(c, g1), g0)      # (c*g1 - g0)^+
        rep = pseudocomplement_probe(3, 1, c, [t])
        e = rep.entries[0]
        assert e.lower_implication.binding and e.lower_implication.holds
        assert not e.upper_implication.binding
        assert not e.is_counterexample

    def test_non_binding_reported(self):
        rep = pseudocomplement_probe(3, 1, 1, [g0.pos()])
        e = rep.entries[0]
        assert not e.lower_implication.binding
        assert not e.is_counterexample

    def test_small_batch_no_counterexamples(self, rng):
        terms = [random_term(rng, 3, 2) for _ in range(10)]
        for c in (F(1, 2), F(2)):
            rep = pseudocomplement_probe(3, 1, c, terms)
            assert rep.counterexamples == ()

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            pseudocomplement_probe(3, 0, 1, [])
        with pytest.raises(InputError):
            pseudocomplement_probe(3, 1, 0, [])


class TestNoisoProbe:
    def test_anchor_instance(self):
        rep = noiso_probe(3, 1, 2)
        assert rep.primary.inclusion_false
        assert rep.primary.anchor_point == (F(1, 2), F(1))
        assert rep.primary.anchor_valid
        assert rep.dual.inclusion_false and rep.dual.anchor_valid
        assert rep.reproduced

    def test_guard(self):
        with pytest.raises(InputError):
            noiso_probe(1, 1, 1)
        with pytest.raises(InputError):
            noiso_probe(3, 2, 2)
        with pytest.raises(InputError):
            noiso_probe(0, 1, 1)

    def test_another_admissible_point(self):
        rep = noiso_probe(5, 2, 3)
        assert rep.reproduced
        assert rep.primary.anchor_point == (F(1, 3), F(1))


def test_ideal_meet_is_zero_on_disjoint_supports():
    # (g0 - g1)^+ and (g1 - g0)^+ overlap nowhere
    assert ideal_meet_is_zero(cevian_dev(g0, g1), cevian_dev(g1, g0), 2)
    assert not ideal_meet_is_zero(g0.pos(), g0.pos(), 1)


def test_ideal_meet_is_zero_matches_absolute_value_formulation():
    """cozero(|g|) = cozero(g), so linearizing g and h as they are (and
    the probe's |t| without a second bar) decides what the cozero sets
    of |g| and |h| decide, with and without the region Ω.  Half of the
    pairs are (a - b)^+, (b - a)^+, whose meet is zero."""
    rng = random.Random(808)
    for _ in range(30):
        n = rng.randint(1, 3)
        g, h = random_term(rng, n, 2), random_term(rng, n, 2)
        if rng.random() < 0.5:
            g, h = cevian_dev(g, h), cevian_dev(h, g)
        for region in (None, omega_region(n)):
            common = intersect(cozero_set(abs(g), n), cozero_set(abs(h), n))
            if region is not None:
                common = intersect(common, region)
            expected = is_empty_set(common)
            assert ideal_meet_is_zero(g, h, n, region) == expected
            assert ideal_meet_is_zero(abs(g), h, n, region) == expected


def _term(rng, n, depth):
    """A random term of operator depth at most ``depth`` with |t|, t^+
    and 0*t among its operators (``random_term`` draws neither |t| nor
    0*t above a leaf)."""
    if depth <= 0:
        return random_term(rng, n, 0)
    op = rng.choice(["add", "join", "meet", "scale", "pos", "abs", "zero",
                     "leaf"])
    if op == "leaf":
        return random_term(rng, n, 0)
    if op in ("scale", "zero", "pos", "abs"):
        t = _term(rng, n, depth - 1)
        if op == "scale":
            return F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2])) * t
        return Scale(F(0), t) if op == "zero" else t.pos() if op == "pos" \
            else abs(t)
    a, b = _term(rng, n, depth - 1), _term(rng, n, depth - 1)
    return a + b if op == "add" else a | b if op == "join" else a & b


def _witness_text(w):
    return None if w is None else [str(x) for x in w]


class TestDecisionByParts:
    """``ideal_leq``, ``ideal_meet_is_zero`` and ``check_cevian_triple``
    decide on zero and cozero sets built by parts; the whole-term
    decisions they replaced are the oracle (``oracle_vlterms``)."""

    def test_matches_whole_term_oracle(self):
        rng = random.Random(4410)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            n, depth = rng.randint(1, 3), rng.randint(1, 3)
            g, h, k = (_term(rng, n, depth) for _ in range(3))
            region = omega_region(n) if rng.random() < 0.5 else None
            for lhs, rhs in ((g, h), (g, ideal_join(h, k)),
                             (ideal_meet(g, h), k),
                             (cevian_dev(g, h),
                              ideal_join(k, cevian_dev(h, g)))):
                ok, w = ideal_leq(lhs, rhs, n, region)
                want_ok, want_w = oracle_vlterms.ideal_leq(lhs, rhs, n,
                                                           region)
                assert ok == want_ok, (str(lhs), str(rhs), region)
                assert _witness_text(w) == _witness_text(want_w)
                verdicts[ok] += 1
            for a, b in ((g, h), (cevian_dev(g, h), cevian_dev(h, g)),
                         (ideal_join(g, h), k)):
                assert ideal_meet_is_zero(a, b, n, region) == \
                    oracle_vlterms.ideal_meet_is_zero(a, b, n, region)
            assert check_cevian_triple(g, h, k, n, region) == \
                oracle_vlterms.check_cevian_triple(g, h, k, n, region)
        assert min(verdicts.values()) > 100

    @pytest.mark.parametrize("shape", ["ideal-self-join", "g0-self-join"])
    def test_shared_nodes_answer_within_a_second(self, shape):
        """A term is a DAG; a walk that followed every path would take
        2^40 steps on these."""
        with time_limit(1, shape):
            if shape == "ideal-self-join":
                i0, i1 = abs(g0), abs(g1)
                j = i0
                for _ in range(40):
                    j = abs(ideal_join(j, j))
                assert ideal_leq(j, i0, 2)[0] and ideal_leq(i0, j, 2)[0]
                ji, i = abs(ideal_join(j, i1)), abs(ideal_join(i0, i1))
                assert ideal_leq(ji, i, 2)[0] and ideal_leq(i, ji, 2)[0]
                ok, w = ideal_leq(j, i1, 2)
                assert not ok and evaluate(g0, w) != 0
            else:
                t = g0
                for _ in range(40):
                    t = Join(t, t)
                assert ideal_leq(t, g0, 1) == (True, None)
                assert ideal_leq(g0, t, 1) == (True, None)
                assert check_cevian_triple(t, g1, t, 2)
                assert not ideal_meet_is_zero(t, g0, 1)

    def test_verdict_below_whole_term_ceiling(self):
        """The rhs |(g0-g1)^+| ∨ |(g1-g2)^+| has 6 pieces whole, but the
        decision builds only {g0-g2 > 0}, {g0-g1 <= 0} and
        {g1-g2 <= 0}, one piece each."""
        with pytest.raises(ResourceLimitError):
            oracle_vlterms.check_cevian_triple(g0, g1, g2, 3, ceiling=2)
        assert check_cevian_triple(g0, g1, g2, 3, ceiling=2)

    def test_disagreeing_whole_term_path_is_a_contract_error(
            self, monkeypatch):
        monkeypatch.setattr(vlterms, "witness_point", lambda *args: None)
        assert ideal_leq(g0, abs(g0), 1) == (True, None)
        with pytest.raises(ContractError):
            ideal_leq(g0, g1, 2)

    def test_false_verdict_builds_no_intersection(self, monkeypatch):
        """The witness of a false verdict is the first meet of the
        whole-term sets, found by a walk: ``intersect`` runs nowhere."""
        calls = []
        for module in (semilinear, vlterms):
            monkeypatch.setattr(module, "intersect",
                                lambda *args, real=module.intersect:
                                calls.append(args) or real(*args))
        ok, w = ideal_leq(abs(g0), (2 * g0 - g1).pos(), 2)
        assert not ok and _witness_text(w) == ["1/2", "1"]
        assert calls == []

    def test_dimension_checked_before_parts(self):
        """0*g5 is never linearized by parts; g5 still needs n >= 6."""
        g5 = gen(5)
        with pytest.raises(InputError, match="outside the declared"):
            ideal_leq(0 * g5, g0, 1)
        with pytest.raises(InputError, match="outside the declared"):
            ideal_meet_is_zero(g0, 0 * g5, 1)
        with pytest.raises(InputError, match="outside the declared"):
            check_cevian_triple(g0, g0, 0 * g5, 1)
        with pytest.raises(InputError, match="region"):
            ideal_meet_is_zero(g0, g0, 1, omega_region(2))

    def test_zero_and_cozero_sets_are_cached(self):
        t = cevian_dev(g0, g1)
        assert zero_set(t, 2) is zero_set(t, 2)
        assert cozero_set(t, 2, 50) is cozero_set(cevian_dev(g0, g1), 2, 50)


def multiplier_cross_check(g, h, points, m_max=64):
    """Falsification-only sanity check of the ideal order against the
    bounded-multiplier characterization: the least m <= m_max with
    |g|(z) <= m * |h|(z) at every sampled point, or None.  A false
    `ideal_leq` verdict makes every multiplier fail at its witness; a
    true verdict does not guarantee a bounded m, so absence of one is
    never evidence by itself."""
    ga, ha = abs(g), abs(h)
    vals = [(evaluate(ga, p), evaluate(ha, p)) for p in points]
    for m in range(1, m_max + 1):
        if all(gv <= m * hv for gv, hv in vals):
            return m
    return None


class TestMultiplierCrossCheck:
    def test_false_verdict_kills_all_multipliers(self, rng):
        ok, w = ideal_leq(ideal_join(g0, g1), abs(g0), 2)
        assert not ok
        pts = [random_point(rng, 2) for _ in range(10)] + [w]
        assert multiplier_cross_check(ideal_join(g0, g1), abs(g0),
                                      pts) is None

    def test_scaled_term_found_quickly(self, rng):
        pts = [random_point(rng, 1) for _ in range(20)]
        assert multiplier_cross_check(7 * g0, g0, pts) == 7

    def test_never_contradicts_decision(self, rng):
        for _ in range(15):
            n = rng.randint(1, 2)
            a = abs(random_term(rng, n, 2))
            b = abs(random_term(rng, n, 2))
            ok, w = ideal_leq(a, b, n)
            pts = [random_point(rng, n) for _ in range(12)]
            if not ok:
                assert multiplier_cross_check(a, b, pts + [w]) is None
