"""Polynomial-ring algebra substrate for the BFV scheme.

The BFV scheme operates in the quotient ring ``R_q = Z_q[x]/(x^n + 1)``
(power-of-two cyclotomic). This subpackage provides everything the
scheme and the baselines need:

* :mod:`repro.poly.modring` — modular integer arithmetic: Miller–Rabin
  primality, NTT-friendly prime generation, primitive roots, Barrett
  reduction;
* :mod:`repro.poly.ntt` — the negacyclic Number Theoretic Transform,
  vectorized one stage at a time over residue rows, used by the
  SEAL-style baseline and by the exact big-integer convolution;
* :mod:`repro.poly.polynomial` — the ring element type with addition,
  negacyclic multiplication (schoolbook and RNS-NTT exact), and scalar
  operations;
* :mod:`repro.poly.rns` — the Residue Number System representation
  (SEAL's trick for mapping wide moduli onto native words) and the
  30-bit convolution basis of the exact convolution;
* :mod:`repro.poly.sampling` — the deterministic samplers (uniform,
  ternary, centered binomial) key generation and encryption draw from.
"""

from repro.poly.modring import (
    BarrettReducer,
    find_ntt_prime,
    inverse_mod,
    is_prime,
    minimal_primitive_root,
    root_of_unity,
)
from repro.poly.ntt import NTTContext
from repro.poly.polynomial import Polynomial, negacyclic_convolve
from repro.poly.rns import RNSBasis, RNSPolynomial
from repro.poly.sampling import (
    sample_centered_binomial,
    sample_ternary,
    sample_uniform,
)

__all__ = [
    "BarrettReducer",
    "NTTContext",
    "Polynomial",
    "RNSBasis",
    "RNSPolynomial",
    "find_ntt_prime",
    "inverse_mod",
    "is_prime",
    "minimal_primitive_root",
    "negacyclic_convolve",
    "root_of_unity",
    "sample_centered_binomial",
    "sample_ternary",
    "sample_uniform",
]
