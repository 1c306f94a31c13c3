"""Differential tests: the closed-form ``mul32`` tally against the loop.

``tests/mpint/mul32_oracle.py`` holds the per-bit shift-and-add loop
that :func:`repro.mpint.mul.mul32` replaced with counts derived from
the multiplier's set bits. Both must give the same product, the same
counts, and the same key order: tallies are ``Counter`` objects, and
consumers such as ``analysis.kernel_cycle_breakdown`` sum their float
shares in insertion order.
"""

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from benchmarks.bench_kernel_cost import SHAPES
from repro.errors import ParameterError
from repro.mpint import mul as mul_module
from repro.mpint.cost import OpTally
from repro.mpint.mul import mul32
from repro.pim.kernels import nttkernel
from repro.pim.kernels.base import COST_SAMPLE_SIZE, measure_sample_tally
from tests.mpint import mul32_oracle as oracle

U32 = st.integers(min_value=0, max_value=2**32 - 1)

#: 0, 1, all ones, every single-bit value and both alternating patterns.
EDGE_VALUES = (
    [0, 1, 2**32 - 1, 0xAAAAAAAA, 0x55555555] + [1 << i for i in range(32)]
)


def assert_same(a, b, tally=None, reference=None):
    """``mul32`` and the oracle agree on (fresh or given) tallies."""
    tally = OpTally() if tally is None else tally
    reference = OpTally() if reference is None else reference
    assert mul32(a, b, tally) == oracle.mul32(a, b, reference)
    assert tally.as_dict() == reference.as_dict()
    assert list(tally.counts.items()) == list(reference.counts.items())


def _with_edge_examples(test):
    for value in EDGE_VALUES:
        test = example(a=value, b=value)(test)
        test = example(a=0xDEADBEEF, b=value)(test)
        test = example(a=value, b=0xDEADBEEF)(test)
    return test


@given(a=U32, b=U32)
@_with_edge_examples
def test_mul32_matches_oracle(a, b):
    assert_same(a, b)


def test_mul32_matches_oracle_on_every_edge_pair():
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            assert_same(a, b)


@given(st.lists(st.tuples(U32, U32), min_size=1, max_size=8))
def test_mul32_matches_oracle_into_one_tally(pairs):
    """Key order also matches when the tally already holds some keys."""
    tally, reference = OpTally(), OpTally()
    for a, b in pairs:
        assert_same(a, b, tally, reference)


@pytest.mark.parametrize("a, b", [(2**32, 1), (1, 2**32), (-1, 1), (1, -1)])
def test_mul32_still_rejects_wide_operands(a, b):
    with pytest.raises(ParameterError):
        mul32(a, b, OpTally())
    with pytest.raises(ParameterError):
        oracle.mul32(a, b, OpTally())


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_kernel_sample_tally_matches_oracle_loop(name):
    """Each priced shape's cost sample is the same with the loop in place.

    The kernel cost oracle calls ``src``'s ``mul32``, so this is the
    kernel-level comparison of the closed form against the loop.
    """
    kernel = SHAPES[name]
    closed = measure_sample_tally(kernel, COST_SAMPLE_SIZE)
    with mock.patch.object(mul_module, "mul32", oracle.mul32), \
            mock.patch.object(nttkernel, "mul32", oracle.mul32):
        looped = measure_sample_tally(kernel, COST_SAMPLE_SIZE)
    assert list(closed.counts.items()) == list(looped.counts.items())
