"""Construction and verification of mutually unbiased maximally entangled
bases of C^d (x) C^kd for odd d."""

__version__ = "0.1.0"  # before the imports: families writes it into every header

from .bounds import BoundBreakdown, bound_dd, bound_dkd, nmols_lower
from .construct import (MEBFamily, b_block, b_tensor, expand_basis, family_cd,
                        family_ckd, family_ckd_mols, fourier_unitary,
                        permutation_unitary, v_unitary)
from .families import load_family, save_family
from .fields import (FiniteField, GaloisRing, ProductRing, field_trace,
                     galois_trace_z4, ring_for_dimension, unit_difference_set)
from .mols import (LatinSquare, Net, best_mols, fourier_hadamard, import_mols,
                   mols_macneish, mols_prime_power, mubs_from_net, net_from_mols)
from .verify import (bruteforce_unbiased, certify_family, criterion_check,
                     gauss_sum_check)
