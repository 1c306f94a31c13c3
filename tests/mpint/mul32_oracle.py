"""Frozen test oracle: the per-bit software 32x32 shift-and-add loop.

:func:`mul32` is :func:`repro.mpint.mul.mul32` as it was before its
tally was derived in closed form from the multiplier's set bits: it
walks all 32 multiplier bits and charges every instruction of the
compiled loop body as it goes. The differential tests check the closed
form against it: the product, the counts, and the order in which each
operation first reaches the tally. Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.mpint.limbs import LIMB_BITS, LIMB_MASK

#: Loop bookkeeping charged per shift-and-add iteration: the compiled
#: routine maintains an iteration counter (add), compares it (cmp) and
#: branches — on top of the data ops the loop body performs. Without
#: this the model would assume a fully unrolled routine, which the
#: 24 KB UPMEM IRAM does not admit for a 32-iteration body.
_MUL32_LOOP_OPS = (("move", 1), ("cmp", 1), ("branch", 1))

_MASK64 = (1 << 64) - 1


def mul32(a: int, b: int, tally: OpTally) -> tuple:
    """Software 32x32→64 multiply; returns ``(low_limb, high_limb)``.

    Models the compiler-generated shift-and-add routine: the loop walks
    the 32 multiplier bits, shifting a two-limb multiplicand left each
    iteration and accumulating it (two-limb ``add``+``addc``) whenever
    the current bit is set. Operation counts are data-dependent exactly
    as on hardware: multiplying by a dense bit pattern costs more adds
    than multiplying by a sparse one.
    """
    if not 0 <= a <= LIMB_MASK or not 0 <= b <= LIMB_MASK:
        raise ParameterError(f"mul32 operands must be 32-bit, got {a}, {b}")
    # The compiler emits this routine as an out-of-line call
    # (__mulsi3-style): charge the call/return branches and the
    # prologue/epilogue register traffic.
    tally.charge("branch", 2)
    tally.charge("move", 12)
    acc = 0
    shifted = a
    multiplier = b
    for _ in range(LIMB_BITS):
        tally.charge("and")  # mask the low multiplier bit
        tally.charge("branch")  # test it
        if multiplier & 1:
            # Two-limb accumulate; the operands live across registers,
            # so the compiled body also shuffles a pair of moves.
            tally.charge("add")
            tally.charge("addc")
            tally.charge("move", 2)
            acc = (acc + shifted) & _MASK64
        multiplier >>= 1
        tally.charge("lsr")  # shift the multiplier
        # Two-limb multiplicand shift: low-limb lsl, high-limb lsl,
        # plus lsr+or to carry the low limb's top bit across.
        tally.charge("lsl", 2)
        tally.charge("lsr")
        tally.charge("or")
        shifted = (shifted << 1) & _MASK64
        for op, count in _MUL32_LOOP_OPS:
            tally.charge(op, count)
    return acc & LIMB_MASK, acc >> LIMB_BITS
