"""Per-layer microbenchmarks of kernel cost derivation (``repro.pim.kernels``).

Not a paper figure: these time how this library derives a kernel's
cycles per element from its limb arithmetic.

* :func:`~repro.pim.kernels.base.measure_sample_tally` — the uncached
  seeded cost sample the memo wraps — on each of the nine kernel shapes
  the experiments price, so each shape's cold cost stays visible;
* one warm :meth:`~repro.pim.kernels.base.Kernel.cycles_per_element`
  read of ``VecMulKernel(4)``, the shape the experiments price most;
* :func:`~repro.mpint.mul.mul32`, the software shift-and-add multiply
  under every multiplying kernel, on 1,000 fixed seeded operand pairs
  charged to one tally.

Each cold row checks its tally against the memoised one; the ``mul32``
row checks its tally against the frozen per-bit loop in
``tests/mpint/mul32_oracle.py``. With
benchmarking enabled, each row appends one ``metrics.jsonl`` record
whose gauges hold the median, IQR and round count in seconds. With
``--benchmark-disable`` every row runs once as a correctness smoke
test and records nothing.
"""

import random

import pytest

from repro.backends.pim import modulus_for_width
from repro.mpint.cost import OpTally
from repro.mpint.mul import mul32
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.kernels.base import (
    COST_SAMPLE_SIZE,
    measure_sample_tally,
    sample_tally,
)
from repro.pim.kernels.nttkernel import NTTButterflyKernel
from repro.poly.modring import find_ntt_prime
from tests.mpint import mul32_oracle

#: row name -> kernel: the nine shapes the experiments price.
SHAPES = {
    "vec_add.32": VecAddKernel(1, modulus_for_width(32)),
    "vec_add.64": VecAddKernel(2, modulus_for_width(64)),
    "vec_add.128": VecAddKernel(4, modulus_for_width(128)),
    "vec_mul.32": VecMulKernel(1),
    "vec_mul.64": VecMulKernel(2),
    "vec_mul.128": VecMulKernel(4),
    "tensor_mul.128": TensorMulKernel(4),
    "reduce_sum.128": ReduceSumKernel(4, modulus_for_width(128)),
    "ntt_butterfly.30": NTTButterflyKernel(find_ntt_prime(30, 4096)),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_bench_cold_sample(benchmark, record_row, name):
    kernel = SHAPES[name]
    tally = benchmark(measure_sample_tally, kernel, COST_SAMPLE_SIZE)
    assert tally == sample_tally(kernel)
    record_row(f"kernels.sample.{name}", benchmark)


def test_bench_warm_cycles_per_element(benchmark, record_row):
    kernel = SHAPES["vec_mul.128"]
    expected = kernel.cycles_per_element()  # warm the memo
    assert benchmark(kernel.cycles_per_element) == expected
    record_row("kernels.cycles_per_element.warm", benchmark)


def _mul32_all(pairs, multiply=mul32) -> OpTally:
    tally = OpTally()
    for a, b in pairs:
        multiply(a, b, tally)
    return tally


def test_bench_mul32(benchmark, record_row):
    rng = random.Random(32)
    pairs = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(1000)]
    tally = benchmark(_mul32_all, pairs)
    expected = _mul32_all(pairs, mul32_oracle.mul32)
    assert list(tally.counts.items()) == list(expected.counts.items())
    record_row("mpint.mul32", benchmark)
