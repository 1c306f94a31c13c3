"""Differential tests: the NTT-domain product-sum against per-product oracles.

``tests/core/bfv_oracle.py`` holds BFV's multiply, square,
relinearize, encrypt and decrypt as they ran with one exact convolution
per product; every ciphertext polynomial here must equal theirs bit for
bit. The product-sum itself is checked against
``tests/poly/ntt_oracle._crt_negacyclic``, the frozen CRT convolution,
summed pair by pair.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core import BFVParameters, Decryptor, Encryptor, Evaluator, KeyGenerator
from repro.core.ciphertext import Plaintext
from repro.core.params import SECURITY_LEVELS
from repro.poly.polynomial import SCHOOLBOOK_MAX_DEGREE, negacyclic_sums
from repro.poly.rns import ConvolutionBasis, exact_negacyclic_sums
from tests.core import bfv_oracle
from tests.poly import ntt_oracle
from tests.poly.test_differential import KINDS, _operand

#: Every drawn value is a seed, so shrinking finds no simpler case;
#: at 109 bits (~1.5 s an example) it would take minutes after a failure.
BUDGET = settings(
    max_examples=3,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)


@lru_cache(maxsize=None)
def _keys(bits: int, seed: int):
    params = BFVParameters.security_level(bits)
    return params, KeyGenerator(params, seed=seed).generate()


class TestBFVAgainstOracle:
    """Every polynomial of every op equals the per-product bodies'."""

    @pytest.mark.parametrize("bits", SECURITY_LEVELS)
    @given(
        key_seed=st.integers(0, 2),
        enc_seed=st.integers(0, 2**32),
        plain_seed=st.integers(0, 2**32),
    )
    @BUDGET
    def test_ops_match_per_product_oracle(self, bits, key_seed, enc_seed, plain_seed):
        params, keys = _keys(bits, key_seed)
        n, t = params.poly_degree, params.plain_modulus
        rng = random.Random(plain_seed)
        plains = [
            Plaintext.from_coefficients(params, [rng.randrange(t) for _ in range(n)])
            for _ in range(2)
        ]
        encryptor = Encryptor(params, keys.public_key, seed=enc_seed)
        oracle_rng = np.random.default_rng(enc_seed)
        x, y = [encryptor.encrypt(p) for p in plains]
        for ciphertext, plain in zip((x, y), plains):
            expected = bfv_oracle.encrypt(params, keys.public_key, plain, oracle_rng)
            assert ciphertext.polys == expected

        evaluator = Evaluator(params, relin_key=keys.relin_key)
        product = evaluator.multiply(x, y, relinearize=False)
        assert product.polys == bfv_oracle.multiply(params, x, y)
        relinearized = evaluator.relinearize(product)
        assert relinearized.polys == bfv_oracle.relinearize(
            params, keys.relin_key, product
        )
        squared = evaluator.square(x, relinearize=False)
        assert squared.polys == bfv_oracle.square(params, x)

        decryptor = Decryptor(params, keys.secret_key)
        for ciphertext in (x, relinearized, product, squared):
            assert decryptor.raw_decrypt_centered(ciphertext) == (
                bfv_oracle.raw_decrypt_centered(keys.secret_key, ciphertext)
            )


def _oracle_sum(terms, n: int) -> list:
    total = [0] * n
    for a, b in terms:
        product = ntt_oracle._crt_negacyclic(a, b, n)
        total = [x + y for x, y in zip(total, product)]
    return total


@st.composite
def product_sums(draw, min_log_n=6, max_log_n=9):
    """Sums over a small operand pool, so operands alias: ``a is b``
    and one list in several terms and sums."""
    n = 1 << draw(st.integers(min_log_n, max_log_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [
        _operand(rng, draw(st.sampled_from(KINDS)), n, draw(st.integers(0, 128)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    index = st.integers(0, len(pool) - 1)
    shape = st.lists(
        st.lists(st.tuples(index, index), max_size=4), min_size=1, max_size=3
    )
    return n, [[(pool[i], pool[j]) for i, j in terms] for terms in draw(shape)]


class TestProductSum:
    @given(product_sums())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_summed_crt_oracle(self, case):
        n, sums = case
        expected = [_oracle_sum(terms, n) for terms in sums]
        assert exact_negacyclic_sums(sums, n) == expected
        if n <= SCHOOLBOOK_MAX_DEGREE:
            assert negacyclic_sums(sums, n) == expected

    def test_shared_operand_across_terms_and_sums(self):
        n = 128
        rng = random.Random(5)
        a, b, c = (_operand(rng, kind, n, 90) for kind in ("extreme", "negative", "uniform"))
        sums = [[(a, a), (a, b), (c, a)], [(b, b)], [(c, c), (a, c), (b, a), (a, a)]]
        assert exact_negacyclic_sums(sums, n) == [_oracle_sum(terms, n) for terms in sums]

    def test_zero_operands_and_empty_sums(self):
        n = 256
        zeros = [0] * n
        a = _operand(random.Random(1), "extreme", n, 60)
        assert exact_negacyclic_sums([[(zeros, a)], [], [(zeros, zeros)]], n) == [zeros] * 3
        assert exact_negacyclic_sums([], n) == []

    def test_sum_needs_one_more_prime_than_any_term(self):
        n = 256
        single = ConvolutionBasis.covering(n, 2**89)
        big_a = (1 << 40) - 1
        big_b = (single.product - 1) // (2 * n * big_a)
        # One term fits the three-prime basis; the sum of two needs four.
        assert ConvolutionBasis.covering(n, 2 * n * big_a * big_b + 1) is single
        assert len(ConvolutionBasis.covering(n, 4 * n * big_a * big_b + 1)) == len(single) + 1
        a, b = [big_a] * n, [big_b] * n
        (result,) = exact_negacyclic_sums([[(a, b), (b, a)]], n)
        assert max(map(abs, result)) > (single.product - 1) // 2
        assert result == _oracle_sum([(a, b), (b, a)], n)
