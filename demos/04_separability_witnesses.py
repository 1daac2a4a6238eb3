"""Separability witnesses, enumerations, and strong amalgams.

A witness assigns each element a finite set of upper bounds A(x) and
lower bounds B(x) so that x <= y meets A(x) ∩ B(y).  Witnesses travel
back and forth between enumerations of the carrier, restrict to
order-convex subsets, multiply, dualize, and glue along strong amalgams.
"""

from itertools import combinations

from latdev import (FinitePoset, StrongAmalgamSpec, check_strong_amalgam,
                    is_separability_witness, locally_finite_closure,
                    order_from_witness, shadow, witness_from_amalgam,
                    witness_from_order, witness_transform)

V = FinitePoset(["a", "b", "c"], [("a", "c"), ("b", "c")])

# Minimal shadows: the canonical finite stand-ins for up/down sets.
print("lower shadow of c on {a,b}:",
      sorted(shadow(V, {"a", "b"}, "c", "lower")))

# A witness built along the enumeration a, b, c.
W = witness_from_order(V, ("a", "b", "c"))
for x in V.elements:
    print(f"  A({x}) = {sorted(W.A[x])}   B({x}) = {sorted(W.B[x])}")
print("valid:", is_separability_witness(V, W))

# Back from the witness to an enumeration: elements are grouped into
# blocks closed under A ∪ B, and each element reports its minimal
# shadows on its own strict prefix.
res = order_from_witness(V, W)
print("blocks:", res.blocks, " enumeration:", res.enumeration)
print("closure of {c} under A ∪ B:",
      sorted(locally_finite_closure(
          V, {x: W.A[x] | W.B[x] for x in V.elements}, {"c"})))

# Transformers: dual, add a bound, product, convex restriction.
Q, W2 = witness_transform("add_top", V, W, "top")
print("after add_top, valid:", is_separability_witness(Q, W2))

# A strong amalgam: the subsets of {1,2,3} of size <= 2, each block the
# powerset of its index, glued over the same index poset.
ids = sorted({tuple(sorted(c)) for r in range(3)
              for c in combinations([1, 2, 3], r)},
             key=lambda s: (len(s), s))
rel = [(a, b) for a in ids for b in ids if set(a) <= set(b)]
M = FinitePoset(ids, rel)
fam = {X: frozenset(y for y in ids if set(y) <= set(X)) for X in ids}
spec = StrongAmalgamSpec(M, M, fam)
print("strong amalgam check:", check_strong_amalgam(spec))

blocks = {X: witness_from_order(M.restrict(fam[X]),
                                [y for y in ids if y in fam[X]])
          for X in ids}
W3 = witness_from_amalgam(spec, blocks, {x: x for x in ids})
print("glued witness valid:", is_separability_witness(M, W3))
