"""Per-layer microbenchmarks of kernel cost derivation (``repro.pim.kernels``).

Not a paper figure: these time how this library derives a kernel's
cycles per element from its limb arithmetic.

* :func:`~repro.pim.kernels.base.measure_sample_tally` — the uncached
  seeded cost sample the memo wraps — on each of the nine kernel shapes
  the experiments price, so each shape's cold cost stays visible;
* one warm :meth:`~repro.pim.kernels.base.Kernel.cycles_per_element`
  read of ``VecMulKernel(4)``, the shape the experiments price most.

Each cold row checks its tally against the memoised one. With
benchmarking enabled, each row appends one ``metrics.jsonl`` record
whose gauges hold the median, IQR and round count in seconds. With
``--benchmark-disable`` every row runs once as a correctness smoke
test and records nothing.
"""

import pytest

from repro.backends.pim import modulus_for_width
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
