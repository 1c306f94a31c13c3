"""Multi-precision integer arithmetic on 32-bit limbs.

This subpackage mirrors, in Python, the arithmetic the paper implements
on UPMEM DPU cores (Section 3): wide integers are represented as
little-endian vectors of 32-bit *limbs*; addition is built from the
native ``add``/``addc`` (add-with-carry) instructions; multiplication
wider than 16 bits has no hardware support on the first-generation
UPMEM chip and is performed by a software shift-and-add routine, with
64-/128-bit products assembled via the Karatsuba algorithm over 32-bit
chunks.

Every routine here does double duty:

* it computes the functionally correct result, and
* it *charges* the abstract operations it performed to an
  :class:`~repro.mpint.cost.OpTally`, from which the PIM device model
  (:mod:`repro.pim.isa`) derives cycle counts.

Counts are therefore **derived from the operand data**, never
asserted: the software multiply's tally comes from its multiplier's set
bits (:func:`~repro.mpint.cost.mul32_ops`), and the carry chains charge
each carry as it ripples. The closed-form expectation helpers are
tested against tallies of real executions.
"""

from repro.mpint.cost import OpTally, expected_ops_add, expected_ops_mul
from repro.mpint.limbs import (
    LIMB_BITS,
    LIMB_MASK,
    from_limbs,
    limbs_for_bits,
    to_limbs,
)
from repro.mpint.add import (
    add_with_carry,
    compare,
    conditional_subtract,
    sub_with_borrow,
)
from repro.mpint.mul import (
    KARATSUBA_THRESHOLD,
    karatsuba_multiply,
    mul32,
    multiply,
    schoolbook_multiply,
)

__all__ = [
    "LIMB_BITS",
    "LIMB_MASK",
    "KARATSUBA_THRESHOLD",
    "OpTally",
    "add_with_carry",
    "compare",
    "conditional_subtract",
    "expected_ops_add",
    "expected_ops_mul",
    "from_limbs",
    "karatsuba_multiply",
    "limbs_for_bits",
    "mul32",
    "multiply",
    "schoolbook_multiply",
    "sub_with_borrow",
    "to_limbs",
]
