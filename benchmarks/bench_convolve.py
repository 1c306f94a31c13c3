"""Per-layer microbenchmarks of the polynomial core (``repro.poly``).

Not a paper figure: these time this library's exact big-integer
convolution, which every BFV multiply and relinearization runs, and the
single-prime NTT underneath it.

* :func:`~repro.poly.polynomial.negacyclic_convolve` at n = 1024, 2048
  and 4096 with 27-, 54- and 109-bit signed operands (the widths of a
  fresh 27-bit, a 54-bit and a 109-bit ciphertext coefficient);
* :meth:`~repro.poly.ntt.NTTContext.forward` at n = 4096 for a 17-,
  a 30- and a 60-bit prime (``uint64`` and object-dtype kernels).

With benchmarking enabled, each row appends one ``metrics.jsonl``
record whose gauges hold the median, IQR and round count in seconds.
With ``--benchmark-disable`` every row runs once as a correctness smoke
test and records nothing.
"""

import random

import pytest

from repro.poly.modring import find_ntt_prime
from repro.poly.ntt import ntt_context
from repro.poly.polynomial import negacyclic_convolve

#: An independent prime (40 bits, outside the 30-bit convolution basis)
#: that each convolution result is checked against, modulo it.
CHECK_PRIME_BITS = 40


def _operands(n: int, bits: int) -> tuple:
    rng = random.Random(n * 1000 + bits)
    top = (1 << bits) - 1
    return tuple(
        [rng.randint(-top, top) for _ in range(n)] for _ in range(2)
    )


@pytest.mark.parametrize("bits", [27, 54, 109])
@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_bench_negacyclic_convolve(benchmark, record_row, n, bits):
    a, b = _operands(n, bits)
    result = benchmark(negacyclic_convolve, a, b, n)
    check = ntt_context(n, find_ntt_prime(CHECK_PRIME_BITS, n))
    assert [c % check.p for c in result] == check.convolve(a, b)
    record_row(f"poly.convolve.n{n}.b{bits}", benchmark)


@pytest.mark.parametrize("prime_bits", [17, 30, 60])
def test_bench_ntt_forward(benchmark, record_row, prime_bits):
    n = 4096
    ctx = ntt_context(n, find_ntt_prime(prime_bits, n))
    rng = random.Random(prime_bits)
    coeffs = [rng.randrange(ctx.p) for _ in range(n)]
    values = benchmark(ctx.forward, coeffs)
    assert ctx.inverse(values) == coeffs
    record_row(f"poly.ntt_forward.n{n}.p{prime_bits}", benchmark)
