"""Per-layer microbenchmarks of the polynomial core (``repro.poly``).

Not a paper figure: these time this library's exact big-integer
convolution, which every BFV multiply and relinearization runs, and the
single-prime NTT underneath it.

* :func:`~repro.poly.polynomial.negacyclic_convolve` at n = 1024, 2048
  and 4096 with 27-, 54- and 109-bit signed operands (the widths of a
  fresh 27-bit, a 54-bit and a 109-bit ciphertext coefficient);
* :func:`~repro.poly.polynomial.negacyclic_sums` on one BFV
  multiply's tensor product (four operands, three sums, the cross term
  added in the NTT domain) and on one relinearization's two key sums
  over the base-``T`` digits, at the 54- and 109-bit presets;
* :meth:`~repro.poly.ntt.NTTContext.forward` at n = 4096 for a 17-,
  a 30- and a 60-bit prime (``uint64`` and object-dtype kernels).

With benchmarking enabled, each row appends one ``metrics.jsonl``
record whose gauges hold the median, IQR and round count in seconds.
With ``--benchmark-disable`` every row runs once as a correctness smoke
test and records nothing.
"""

import random

import pytest

from repro.core.params import BFVParameters
from repro.poly.modring import find_ntt_prime
from repro.poly.ntt import ntt_context
from repro.poly.polynomial import negacyclic_convolve, negacyclic_sums

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


def _check_sums(result: list, sums: list, n: int) -> None:
    """Each sum, modulo the independent check prime, pair by pair."""
    check = ntt_context(n, find_ntt_prime(CHECK_PRIME_BITS, n))
    for got, terms in zip(result, sums):
        expected = [0] * n
        for a, b in terms:
            product = check.convolve(a, b)
            expected = [(x + y) % check.p for x, y in zip(expected, product)]
        assert [c % check.p for c in got] == expected


@pytest.mark.parametrize("bits", [54, 109])
def test_bench_multiply_tensor(benchmark, record_row, bits):
    n = BFVParameters.security_level(bits).poly_degree
    a0, a1 = _operands(n, bits)
    b0, b1 = _operands(n, bits + 1)
    sums = [[(a0, b0)], [(a0, b1), (a1, b0)], [(a1, b1)]]
    result = benchmark(negacyclic_sums, sums, n)
    _check_sums(result, sums, n)
    record_row(f"poly.tensor.n{n}.b{bits}", benchmark)


@pytest.mark.parametrize("bits", [54, 109])
def test_bench_relin_product_sum(benchmark, record_row, bits):
    params = BFVParameters.security_level(bits)
    n, q = params.poly_degree, params.coeff_modulus
    rng = random.Random(bits)
    digits, keys0, keys1 = (
        [[rng.randrange(bound) for _ in range(n)] for _ in range(params.relin_components)]
        for bound in (1 << params.relin_base_bits, q, q)
    )
    sums = [list(zip(keys0, digits)), list(zip(keys1, digits))]
    result = benchmark(negacyclic_sums, sums, n)
    _check_sums(result, sums, n)
    record_row(f"poly.relin_sum.n{n}.b{bits}", benchmark)


@pytest.mark.parametrize("prime_bits", [17, 30, 60])
def test_bench_ntt_forward(benchmark, record_row, prime_bits):
    n = 4096
    ctx = ntt_context(n, find_ntt_prime(prime_bits, n))
    rng = random.Random(prime_bits)
    coeffs = [rng.randrange(ctx.p) for _ in range(n)]
    values = benchmark(ctx.forward, coeffs)
    assert ctx.inverse(values) == coeffs
    record_row(f"poly.ntt_forward.n{n}.p{prime_bits}", benchmark)
