"""latdev: a desk-scale lab for order-theoretic constructions.

Subpackages by topic:

* :mod:`latdev.posets` — finite posets, shadows, separability witnesses,
  strong amalgams;
* :mod:`latdev.lattices` — finite distributive lattices, complete
  normality, prime ideals, root systems;
* :mod:`latdev.deviations` — deviation tables, property sweeps, search;
* :mod:`latdev.adjustment` — the pair ordering and the monotone
  adjustment of a binary map;
* :mod:`latdev.semilinear` — exact rational semilinear sets,
  Fourier-Motzkin elimination, shadows on variable supports;
* :mod:`latdev.vlterms` — vector-lattice terms, principal-ideal order,
  the bounded-region probes;
* :mod:`latdev.cli` — the ``latdev`` command.
"""

from .errors import ContractError, InputError, ResourceLimitError
from .posets import (FinitePoset, SeparabilityWitness, StrongAmalgamSpec,
                     check_separability_witness, check_strong_amalgam,
                     is_separability_witness, locally_finite_closure,
                     order_from_witness, shadow, witness_from_amalgam,
                     witness_from_order, witness_transform)
from .lattices import (FiniteDistributiveLattice, chain_lattice,
                       is_completely_normal, is_root_system,
                       is_zero_distributive, lattice_from_downsets,
                       prime_ideal_poset)
from .deviations import (check_deviation, deviation_properties,
                         enumerate_deviations, search_deviation)
from .adjustment import PairOrderContext, monotone_adjustment, pair_leq
from .semilinear import (Cell, Constraint, LinearForm, SemilinearSet,
                         complement, eliminate, includes, interpolant,
                         is_empty, lower_shadow_set, upper_shadow_set,
                         witness_point)
from .vlterms import (Gen, One, VLTerm, cevian_dev, check_cevian_triple,
                      cozero_set, evaluate, gen, ideal_join, ideal_leq,
                      ideal_meet, linearize, noiso_probe, omega_extend,
                      omega_region, one, parse_term, pseudocomplement_probe,
                      substitute, zero_set)

__version__ = "0.1.0"
