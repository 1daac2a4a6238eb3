"""Whole-term principal-ideal decisions (test oracle).

``latdev.vlterms`` decides the ideal order and the zero meet on zero and
cozero sets built by parts (Z(|a| ∨ |b|) = Z(a) ∩ Z(b) and the like).
These are the decisions it replaced, kept verbatim apart from their
docstrings and the region, now the ``SemilinearSet`` itself, so that
``test_vlterms.py`` can compare the two: each linearizes the composite
representative whole, and intersects its ``zero_set`` / ``cozero_set``.
``set_witness`` is the library's former witness of a set, kept here so
that the oracle does not run the first-meet walk it checks, and
``is_empty_set`` the library's former emptiness test of a set, which
only tests called.

``_tokenize`` and ``parse_term`` are the library's former term parser,
kept verbatim: one left-associative loop per precedence level (join,
meet, sum) over tokens that are regex matches.  ``test_vlterms.py``
parses token soup and printed random terms with both parsers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from latdev.errors import ContractError, InputError
from latdev.semilinear import (SemilinearSet, intersect, is_empty,
                               parse_rational, witness_point)
from latdev.vlterms import (MAX_TERM_DEPTH, Add, Gen, Join, Meet, One, Scale,
                            VLTerm, cevian_dev, const, cozero_set, evaluate,
                            ideal_join, term_depth, zero_set)


def is_empty_set(S: SemilinearSet) -> bool:
    return all(is_empty(c) for c in S.cells)


def set_witness(S: SemilinearSet) -> Optional[tuple]:
    """A point of S, or None if S is empty."""
    for c in S.cells:
        w = witness_point(c, S.dimension)
        if w is not None:
            return w
    return None


def ideal_leq(g: VLTerm, h: VLTerm, n: int,
              region: Optional[SemilinearSet] = None,
              ceiling: Optional[int] = None) -> tuple:
    """<g> <= <h>: (True, None), or (False, z) with h(z) = 0 != g(z)."""
    if region is not None and region.dimension != n:
        raise InputError("region dimension mismatch")
    bad = intersect(zero_set(h, n, ceiling), cozero_set(g, n, ceiling),
                    ceiling)
    if region is not None:
        bad = intersect(bad, region, ceiling)
    w = set_witness(bad)
    if w is None:
        return (True, None)
    if evaluate(h, w) != 0 or evaluate(g, w) == 0 or \
            (region is not None and not region.contains(w)):
        raise ContractError(f"ideal order witness {w} fails")
    return (False, w)


def ideal_meet_is_zero(g: VLTerm, h: VLTerm, n: int,
                       region: Optional[SemilinearSet] = None,
                       ceiling: Optional[int] = None) -> bool:
    """Whether the cozero sets of g and h (within the region) are
    disjoint."""
    common = intersect(cozero_set(g, n, ceiling),
                       cozero_set(h, n, ceiling), ceiling)
    if region is not None:
        common = intersect(common, region, ceiling)
    return is_empty_set(common)


def check_cevian_triple(g: VLTerm, h: VLTerm, k: VLTerm, n: int,
                        region: Optional[SemilinearSet] = None,
                        ceiling: Optional[int] = None) -> bool:
    """Whether <(g-k)^+> <= <(g-h)^+> ∨ <(h-k)^+>."""
    lhs = cevian_dev(g, k)
    rhs = ideal_join(cevian_dev(g, h), cevian_dev(h, k))
    return ideal_leq(lhs, rhs, n, region, ceiling)[0]


def _tokenize(text: str) -> list:
    import re
    tok = re.compile(r"""\s*(?:
        (?P<gen>g[0-9]+) | (?P<one>one) | (?P<num>[0-9]+(?:/[0-9]+)?)
      | (?P<join>\\/) | (?P<meet>/\\) | (?P<pos>\^\+)
      | (?P<op>[-+*|()])
    )""", re.VERBOSE)
    out = []
    pos = 0
    while pos < len(text):
        m = tok.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"cannot tokenize term at: {text[pos:]!r}")
            break
        out.append(m)
        pos = m.end()
    return out


def parse_term(text: str) -> VLTerm:
    """Parse the textual grammar: atoms g0.., one; operators +, -,
    rational scaling p/q*, \\/ (join), /\\ (meet), postfix ^+, and |...|
    for absolute value.  Example: ``(g0 - 2*g1)^+ \\/ one``.

    Terms deeper than ``MAX_TERM_DEPTH`` (in operators, or in nested
    parentheses, bars and prefix operators) are an input error."""
    toks = _tokenize(text)
    pos = 0
    nesting = 0

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

    def peek():
        if pos >= len(toks):
            return None
        m = toks[pos]
        for k in ("gen", "one", "num", "join", "meet", "pos"):
            if m.group(k):
                return (k, m.group(k))
        return ("op", m.group("op"))

    def take(expected=None):
        nonlocal pos
        t = peek()
        if t is None:
            raise InputError("unexpected end of term")
        if expected is not None and t != expected and t[0] != expected:
            raise InputError(f"expected {expected!r}, got {t!r}")
        pos += 1
        return t

    def parse_join():
        t = parse_meet()
        while peek() == ("join", "\\/"):
            take()
            t = Join(t, parse_meet())
        return t

    def parse_meet():
        t = parse_sum()
        while peek() == ("meet", "/\\"):
            take()
            t = Meet(t, parse_sum())
        return t

    def parse_sum():
        t = parse_unary()
        while peek() in (("op", "+"), ("op", "-")):
            k = take()
            u = parse_unary()
            t = Add(t, u) if k == ("op", "+") else Add(t, Scale(Fraction(-1), u))
        return t

    def parse_unary():
        if peek() == ("op", "-"):
            take()
            return Scale(Fraction(-1), nested(parse_unary))
        t = peek()
        if t is not None and t[0] == "num":
            take()
            q = parse_rational(t[1])
            if peek() == ("op", "*"):
                take()
                return Scale(q, nested(parse_unary))
            return const(q)
        return parse_postfix()

    def parse_postfix():
        t = parse_primary()
        while peek() == ("pos", "^+"):
            take()
            t = t.pos()
        return t

    def parse_primary():
        t = peek()
        if t is None:
            raise InputError("unexpected end of term")
        if t[0] == "gen":
            take()
            return Gen(int(t[1][1:]))
        if t[0] == "one":
            take()
            return One()
        if t == ("op", "("):
            take()
            inner = nested(parse_join)
            take(("op", ")"))
            return inner
        if t == ("op", "|"):
            take()
            inner = nested(parse_join)
            take(("op", "|"))
            return abs(inner)
        raise InputError(f"unexpected token {t!r}")

    term = parse_join()
    if pos != len(toks):
        raise InputError(f"trailing input after term: {toks[pos].group()!r}")
    if term_depth(term) > MAX_TERM_DEPTH:
        raise InputError(f"term deeper than {MAX_TERM_DEPTH} operators")
    return term
