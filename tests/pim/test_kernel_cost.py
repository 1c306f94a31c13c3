"""Differential tests: the memoised kernel cost sample against the oracle.

``tests/pim/kernel_cost_oracle.py`` holds the per-instance sampling that
:func:`~repro.pim.kernels.base.sample_tally` replaced. Every cost read
here must equal the oracle's exactly: ``cycles_per_element``,
``kernel_op_tally`` (values and key order) and tallies priced with
another ISA table. Tests that must see a sample being taken swap in an
empty memo for their duration.
"""

from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.pim import modulus_for_width
from repro.pim.analysis import kernel_op_tally
from repro.pim.isa import (
    DEFAULT_CYCLES_PER_OP,
    cycles_for_tally,
    hypothetical_native_mul_table,
)
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.kernels import base
from repro.pim.kernels.base import sample_tally
from repro.pim.kernels.nttkernel import NTTButterflyKernel
from repro.poly.modring import find_ntt_prime
from tests.pim import kernel_cost_oracle as oracle

Q32, Q64, Q128 = (modulus_for_width(w) for w in (32, 64, 128))
P30 = find_ntt_prime(30, 4096)

#: The nine kernel shapes the experiments price, as constructor specs
#: ``(class, *args)``.
EXPERIMENT_SHAPES = [
    (VecAddKernel, 1, Q32),
    (VecAddKernel, 2, Q64),
    (VecAddKernel, 4, Q128),
    (VecMulKernel, 1, "auto"),
    (VecMulKernel, 2, "auto"),
    (VecMulKernel, 4, "auto"),
    (TensorMulKernel, 4),
    (ReduceSumKernel, 4, Q128),
    (NTTButterflyKernel, P30),
]

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build(spec):
    cls, *args = spec
    return cls(*args)


def fresh_memo():
    """An empty memo for the duration of a ``with`` block."""
    return mock.patch.object(base, "_SAMPLE_TALLIES", {})


@lru_cache(maxsize=None)
def oracle_costs(spec):
    """The oracle's cycles per element and op tally for a fresh kernel."""
    return (
        oracle.cycles_per_element(build(spec)),
        list(oracle.kernel_op_tally(build(spec)).items()),
    )


KINDS = ["add", "mul", "tensor", "reduce", "ntt"]


@st.composite
def kernel_specs(draw, kind=None):
    """Any kernel (of ``kind``, if given): limbs 1-4, every multiply
    algorithm, a modulus that fits the limbs or none where the kernel
    allows it."""
    limbs = draw(st.integers(1, 4))
    modulus = st.integers(2, 2 ** (32 * limbs) - 1)
    kind = kind or draw(st.sampled_from(KINDS))
    if kind == "add":
        return (VecAddKernel, limbs, draw(st.none() | modulus))
    if kind == "mul":
        algorithm = draw(st.sampled_from(["auto", "schoolbook", "karatsuba"]))
        return (VecMulKernel, limbs, algorithm)
    if kind == "tensor":
        return (TensorMulKernel, limbs)
    if kind == "reduce":
        return (ReduceSumKernel, limbs, draw(modulus))
    return (NTTButterflyKernel, draw(st.sampled_from([97, 7681, 12289, P30])))


@st.composite
def spec_pairs(draw):
    """Two kernels, half the time of one kind (so they differ in one or
    two constructor arguments, or not at all)."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(KINDS))
        return draw(kernel_specs(kind)), draw(kernel_specs(kind))
    return draw(kernel_specs()), draw(kernel_specs())


def assert_matches_oracle(spec):
    cycles, op_tally = oracle_costs(spec)
    kernel = build(spec)
    assert kernel.cycles_per_element() == cycles
    assert list(kernel_op_tally(kernel).items()) == op_tally


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "spec", EXPERIMENT_SHAPES, ids=lambda s: f"{s[0].__name__}{s[1:]}"
    )
    def test_experiment_shapes(self, spec):
        with fresh_memo():
            assert_matches_oracle(spec)  # sampled here
            assert_matches_oracle(spec)  # read from the memo

    @SLOW
    @given(spec=kernel_specs())
    def test_generated_kernels(self, spec):
        assert_matches_oracle(spec)

    @SLOW
    @given(pair=spec_pairs(), sample_size=st.integers(1, 8))
    def test_distinct_kernels_never_share_an_entry(self, pair, sample_size):
        a, b = pair
        with fresh_memo():
            tallies = [sample_tally(build(s), sample_size) for s in (a, b)]
            assert len(base._SAMPLE_TALLIES) == (1 if a == b else 2)
        assert (build(a).cost_key() == build(b).cost_key()) == (a == b)
        for spec, tally in zip((a, b), tallies):
            assert tally == oracle.sample_tally(build(spec), sample_size)

    def test_sample_size_is_part_of_the_key(self):
        kernel = VecMulKernel(2)
        with fresh_memo():
            small = sample_tally(kernel, 4)
            full = sample_tally(kernel)
            assert len(base._SAMPLE_TALLIES) == 2
        assert small == oracle.sample_tally(VecMulKernel(2), 4)
        assert full == oracle.sample_tally(VecMulKernel(2))

    def test_mutating_a_returned_tally_does_not_change_the_next_read(self):
        spec = (VecMulKernel, 2, "auto")
        kernel = build(spec)
        first = sample_tally(kernel)
        first.charge("add", 1000)
        first.counts.clear()
        kernel_op_tally(kernel)["add"] = -1.0
        assert sample_tally(kernel) == oracle.sample_tally(build(spec))
        assert_matches_oracle(spec)

    def test_other_isa_table_prices_exactly(self):
        tables = [hypothetical_native_mul_table(m) for m in (1, 3, 8)]
        for spec in EXPERIMENT_SHAPES:
            memoised = sample_tally(build(spec))
            frozen = oracle.sample_tally(build(spec))
            for table in tables:
                assert cycles_for_tally(memoised, table) == cycles_for_tally(
                    frozen, table
                )

    def test_changed_default_table_takes_effect_on_a_warm_memo(self, monkeypatch):
        spec = (VecMulKernel, 4, "auto")
        build(spec).cycles_per_element()  # warm the memo
        monkeypatch.setitem(DEFAULT_CYCLES_PER_OP, "lsl", 2.0)
        expected = oracle.cycles_per_element(
            build(spec), {**DEFAULT_CYCLES_PER_OP, "lsl": 2.0}
        )
        assert build(spec).cycles_per_element() == expected
        assert expected > oracle_costs(spec)[0]


class TestReduceSumSampling:
    """Sampling starts from a clear accumulator and leaves the caller's
    accumulator as it was."""

    @staticmethod
    def dirty_kernel():
        kernel = ReduceSumKernel(4, Q128)
        kernel.execute([Q128 - 1])  # accumulator q - 1
        return kernel

    def test_dirty_accumulator_changes_an_unreset_sample(self):
        # Guards the tests below: from this state the sample's carries
        # differ, so sampling without a reset would price it wrongly.
        assert oracle.cycles_per_element(self.dirty_kernel()) == 13.0
        assert oracle_costs((ReduceSumKernel, 4, Q128))[0] == 311 / 24

    def test_dirty_kernel_prices_as_fresh(self):
        with fresh_memo():
            cycles = self.dirty_kernel().cycles_per_element()
        assert cycles == oracle_costs((ReduceSumKernel, 4, Q128))[0]

    def test_pricing_leaves_the_accumulator_untouched(self):
        kernel = self.dirty_kernel()
        with fresh_memo():
            kernel.cycles_per_element()
            kernel_op_tally(kernel, 5)
        assert kernel.accumulator == Q128 - 1
