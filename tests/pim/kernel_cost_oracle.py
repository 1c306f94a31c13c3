"""Frozen test oracle: per-instance kernel cost sampling.

:func:`sample_tally` is the sampling that ``Kernel.cycles_per_element``
ran on each kernel instance before the cost sample was memoised per
kernel shape: seed a generator, draw the sample's elements from the
kernel, and run each through ``run_element`` into one tally. It runs on
the kernel it is given, state and all, so give it a freshly built
kernel, as each instance was when its cache was first filled.
:func:`kernel_op_tally` is ``repro.pim.analysis.kernel_op_tally`` as it
was when it drew its own sample. The differential tests check the
memoised costs against both. Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np

from repro.mpint.cost import OpTally
from repro.pim.isa import cycles_for_tally

#: The cost sample's seed and size, as they were when frozen.
SEED = 0x5EED
SIZE = 96


def sample_tally(kernel, sample_size: int = SIZE) -> OpTally:
    """Total tally of ``sample_size`` seeded random elements."""
    rng = np.random.default_rng(SEED)
    elements = [kernel.random_element(rng) for _ in range(sample_size)]
    tally = OpTally()
    for element in elements:
        kernel.run_element(element, tally)
    return tally


def cycles_per_element(kernel, cycles_per_op=None) -> float:
    """Expected cycles per element under ``cycles_per_op`` (default table)."""
    return cycles_for_tally(sample_tally(kernel), cycles_per_op) / SIZE


def kernel_op_tally(kernel, sample_size: int = SIZE) -> dict:
    """Average per-element operation counts."""
    tally = sample_tally(kernel, sample_size)
    return {op: count / sample_size for op, count in tally.as_dict().items()}
