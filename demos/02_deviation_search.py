"""Search for deviations and inspect their properties.

A deviation on a distributive 0-lattice is a binary map with
x <= y ∨ d(x,y) and d(x,y) ∧ d(y,x) = 0.  One exists exactly on the
completely normal lattices.  Search returns the pointwise-least one,
d(x,y) = x∖y (the join of the join-irreducibles below x and not below
y), which is monotone and Cevian; enumeration backtracks over the rest.
"""

from latdev import (FinitePoset, check_deviation, deviation_properties,
                    enumerate_deviations, lattice_from_downsets,
                    search_deviation)
from latdev.lattices import chain_lattice

square = lattice_from_downsets(FinitePoset.antichain(["p", "q"]))
d = search_deviation(square)
print("deviation on the square (x, y) -> d:")
for (x, y), v in sorted(d.items()):
    if v != square.bottom:
        print(f"  d({x}, {y}) = {v}")
rep = deviation_properties(square, d)
print("monotone:", rep.monotone, " cevian:", rep.cevian)

# No deviation on the five-element non-example: x∖y and y∖x meet above
# 0 for some pair, and search returns None.
five = lattice_from_downsets(
    FinitePoset(["c", "a", "b"], [("c", "a"), ("c", "b")]))
print("five-element search:", search_deviation(five))

# Chains carry very few deviations; the 3-chain has exactly two, and
# only d(1,0) is free.
for n in (2, 3):
    ds = enumerate_deviations(chain_lattice(n), limit=10)
    print(f"{n}-chain deviation count:", len(ds))

# A deviation can fail monotonicity: on the 4-chain bump d(2,1) to the
# top.  Both axioms survive, right antitonicity does not.
D = chain_lattice(4)
d = {(x, y): (0 if x <= y else x) for x in D.elements for y in D.elements}
d[(2, 1)] = 3
assert check_deviation(D, d) is None
rep = deviation_properties(D, d)
print("bumped chain map: right antitone:", rep.right_antitone,
      "counterexample (x, y, y'):", rep.right_antitone_ce)
