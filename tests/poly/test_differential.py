"""Differential tests: the numpy NTT and RNS convolution against the oracle.

``tests/poly/ntt_oracle.py`` holds the pure-Python butterfly loops and
the 62-bit CRT convolution the vectorized kernel replaced. Every output
here must equal theirs exactly, and the exact convolution must also
equal schoolbook where that is cheap enough (n <= 256).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.poly.modring import find_ntt_prime
from repro.poly.ntt import NTTContext, dtype_for, ntt_context
from repro.poly.polynomial import _schoolbook_negacyclic, negacyclic_convolve
from repro.poly.rns import ConvolutionBasis
from tests.poly import ntt_oracle

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Operand shapes: uniform, all zero, all negative, all ±(2^b - 1).
KINDS = ("uniform", "zero", "negative", "extreme")


def _operand(rng: random.Random, kind: str, n: int, bits: int) -> list:
    top = (1 << bits) - 1
    if kind == "zero" or top == 0:
        return [0] * n
    if kind == "negative":
        return [-rng.randint(1, top) for _ in range(n)]
    if kind == "extreme":
        return [rng.choice((top, -top)) for _ in range(n)]
    return [rng.randint(-top, top) for _ in range(n)]


@st.composite
def convolution_cases(draw, min_log_n=7, max_log_n=12):
    n = 1 << draw(st.integers(min_log_n, max_log_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = _operand(rng, draw(st.sampled_from(KINDS)), n, draw(st.integers(0, 256)))
    b = _operand(rng, draw(st.sampled_from(KINDS)), n, draw(st.integers(0, 256)))
    return n, a, b


class TestExactConvolution:
    @given(convolution_cases())
    @SLOW
    def test_matches_crt_oracle(self, case):
        n, a, b = case
        assert negacyclic_convolve(a, b, n) == ntt_oracle._crt_negacyclic(a, b, n)

    @given(convolution_cases(max_log_n=8))
    @SLOW
    def test_matches_schoolbook(self, case):
        n, a, b = case
        assert negacyclic_convolve(a, b, n) == _schoolbook_negacyclic(a, b, n)

    @given(convolution_cases(max_log_n=9))
    @SLOW
    def test_square_of_same_list(self, case):
        n, a, _ = case
        assert negacyclic_convolve(a, a, n) == ntt_oracle._crt_negacyclic(a, a, n)

    @pytest.mark.parametrize("n", [128, 4096])
    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_bound_at_basis_product(self, n, count, sign, offset):
        """Offset 0: the bound lands exactly on the product Q of ``count``
        primes and |c| reaches (Q - 1) / 2; offset 1: one prime more."""
        product = ConvolutionBasis(n, count).product
        m = (product - 1) // (2 * n) + offset
        bound = 2 * n * m + 1
        assert (bound == product) == (offset == 0)
        assert len(ConvolutionBasis.covering(n, bound)) == count + offset
        a = [sign * m] * n
        b = [1] * n
        # c_j = m * (j + 1) - m * (n - j - 1); c_{n-1} = n * m = (Q - 1) / 2.
        expected = [sign * m * (2 * j + 2 - n) for j in range(n)]
        assert negacyclic_convolve(a, b, n) == expected
        assert ntt_oracle._crt_negacyclic(a, b, n) == expected

    @pytest.mark.parametrize("bits", [31, 62, 63, 64, 65])
    def test_int64_boundary_widths(self, bits):
        """Operands on both sides of the int64 residue path's limit."""
        n = 128
        rng = random.Random(bits)
        a = _operand(rng, "extreme", n, bits)
        b = _operand(rng, "uniform", n, bits)
        assert negacyclic_convolve(a, b, n) == _schoolbook_negacyclic(a, b, n)

    @given(st.integers(0, 2**32), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_garner_inverts_residues(self, seed, count):
        basis = ConvolutionBasis(128, count)
        half = (basis.product - 1) // 2
        rng = random.Random(seed)
        values = [rng.randint(-half, half) for _ in range(128)]
        values[:2] = [half, -half]
        bits = half.bit_length()
        rows = basis.residues(values, bits)
        assert rows.dtype == np.uint64
        assert basis.compose_centered_rows(rows) == values
        assert [
            basis.compose_centered([int(r) for r in rows[:, j]])
            for j in range(128)
        ] == values


#: Prime widths the transform must agree with the oracle on: 17 and 30
#: bits (uint64), the largest 32-bit NTT prime (the last uint64 one),
#: and the 60- and 62-bit primes (object dtype).
PRIME_BITS = (17, 30, 32, 60, 62)


@st.composite
def transform_cases(draw, reduced=True):
    n = 1 << draw(st.integers(0, 12))
    p = find_ntt_prime(draw(st.sampled_from(PRIME_BITS)), max(n, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if reduced:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(2)]
    else:
        wide = 1 << 70
        rows = [[rng.randint(-wide, wide) for _ in range(n)] for _ in range(2)]
    return n, p, rows


class TestTransformsAgainstOracle:
    @given(transform_cases())
    @SLOW
    def test_forward_inverse_pointwise_convolve(self, case):
        n, p, (a, b) = case
        fast, slow = NTTContext(n, p), ntt_oracle.NTTContext(n, p)
        assert fast.psi == slow.psi
        assert fast.forward(a) == slow.forward(a)
        assert fast.inverse(a) == slow.inverse(a)
        assert fast.pointwise(a, b) == slow.pointwise(a, b)
        assert fast.convolve(a, b) == slow.convolve(a, b)

    @given(transform_cases(reduced=False))
    @SLOW
    def test_unreduced_and_negative_inputs(self, case):
        """Inputs far outside [0, p), beyond 2^64 too, reduce; never wrap."""
        n, p, (a, b) = case
        fast, slow = NTTContext(n, p), ntt_oracle.NTTContext(n, p)
        assert fast.forward(a) == slow.forward(a)
        assert fast.inverse(a) == slow.inverse(a)
        assert fast.pointwise(a, b) == slow.pointwise(a, b)

    @pytest.mark.parametrize("bits", [30, 32])
    def test_uint64_edge_values(self, bits):
        n = 16
        ctx = NTTContext(n, find_ntt_prime(bits, n))
        assert ctx.dtype is np.uint64
        slow = ntt_oracle.NTTContext(n, ctx.p)
        edge = [2**64 + 1, -1, 2**64 - 1, -(2**64), ctx.p, -ctx.p, 2**63, 0] * 2
        assert ctx.inverse(edge) == slow.inverse(edge)
        assert ctx.pointwise(edge, edge) == slow.pointwise(edge, edge)
        assert ctx.pointwise([-1] * n, [-1] * n) == [1] * n

    def test_dtype_cutoff(self):
        largest = find_ntt_prime(32, 4096)
        assert dtype_for(largest) is np.uint64
        assert dtype_for(find_ntt_prime(33, 4096)) is object
        assert ntt_context(4096, largest).fwd_twiddles.dtype == np.uint64


class TestContextCache:
    def test_one_context_per_degree_and_prime(self):
        p = find_ntt_prime(30, 256)
        assert ntt_context(256, p) is ntt_context(256, p)

    def test_convolution_basis_shares_contexts(self):
        basis = ConvolutionBasis.covering(256, 1 << 100)
        for ctx, p in zip(basis.contexts, basis.moduli):
            assert ctx is ntt_context(256, p)
