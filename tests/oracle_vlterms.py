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
"""

from __future__ import annotations

from typing import Optional

from latdev.errors import ContractError, InputError
from latdev.semilinear import (SemilinearSet, intersect, is_empty,
                               witness_point)
from latdev.vlterms import (VLTerm, cevian_dev, cozero_set, evaluate,
                            ideal_join, zero_set)


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
