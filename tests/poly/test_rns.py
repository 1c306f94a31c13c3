"""RNS representation: CRT correctness and algebraic agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime
from repro.poly.polynomial import Polynomial
from repro.poly.rns import RNSBasis, RNSPolynomial


@pytest.fixture(scope="module")
def basis64():
    return RNSBasis.for_bit_width(109, 64)


class TestRNSBasis:
    def test_for_bit_width_covers_target(self):
        basis = RNSBasis.for_bit_width(109, 4096)
        assert basis.product.bit_length() >= 109
        assert len(basis) == 2  # two 60-bit primes, as SEAL would use

    def test_single_prime_for_narrow_modulus(self):
        basis = RNSBasis.for_bit_width(54, 2048)
        assert len(basis) == 1

    @given(st.integers(min_value=0))
    @settings(max_examples=50)
    def test_compose_decompose_roundtrip(self, value):
        basis = RNSBasis((97, 193, 257))
        v = value % basis.product
        assert basis.compose(basis.decompose(v)) == v

    def test_compose_centered(self):
        basis = RNSBasis((97, 193))
        q = basis.product
        assert basis.compose_centered(basis.decompose(q - 1)) == -1
        assert basis.compose_centered(basis.decompose(1)) == 1

    def test_rejects_duplicate_moduli(self):
        with pytest.raises(ParameterError):
            RNSBasis((97, 97))

    def test_rejects_non_coprime(self):
        with pytest.raises(ParameterError):
            RNSBasis((6, 9))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            RNSBasis(())

    def test_rejects_wrong_residue_count(self):
        basis = RNSBasis((97, 193))
        with pytest.raises(ParameterError):
            basis.compose((1,))

    def test_equality_and_hash(self):
        assert RNSBasis((97, 193)) == RNSBasis((97, 193))
        assert hash(RNSBasis((97,))) != hash(RNSBasis((193,)))


class TestRNSPolynomial:
    def test_coefficient_roundtrip(self, basis64):
        coeffs = list(range(64))
        poly = RNSPolynomial.from_coefficients(basis64, coeffs)
        assert poly.to_coefficients() == coeffs

    def test_centered_roundtrip(self, basis64):
        coeffs = [basis64.product - 2, 1] + [0] * 62
        poly = RNSPolynomial.from_coefficients(basis64, coeffs)
        assert poly.to_centered()[:2] == [-2, 1]

    def test_rejects_residue_out_of_range(self, basis64):
        rows = [[m] * 64 for m in basis64.moduli]  # residue == modulus
        with pytest.raises(ParameterError):
            RNSPolynomial(basis64, rows)

    def test_rejects_row_count_mismatch(self, basis64):
        with pytest.raises(ParameterError):
            RNSPolynomial(basis64, [[0] * 64])

    def test_rejects_non_power_of_two_degree(self, basis64):
        with pytest.raises(ParameterError):
            RNSPolynomial(basis64, [[0] * 63 for _ in basis64.moduli])

    def test_zero(self, basis64):
        z = RNSPolynomial.zero(basis64, 64)
        assert z.to_coefficients() == [0] * 64


class TestAlgebraicAgreement:
    """RNS ops must match the bigint Polynomial ops modulo Q."""

    @given(st.data())
    @settings(max_examples=15)
    def test_add_matches_bigint(self, data):
        basis = RNSBasis.for_bit_width(80, 32)
        q = basis.product
        coeff = st.integers(min_value=0, max_value=q - 1)
        a = data.draw(st.lists(coeff, min_size=32, max_size=32))
        b = data.draw(st.lists(coeff, min_size=32, max_size=32))
        rns = (
            RNSPolynomial.from_coefficients(basis, a)
            + RNSPolynomial.from_coefficients(basis, b)
        )
        bigint = Polynomial(a, q) + Polynomial(b, q)
        assert tuple(rns.to_coefficients()) == bigint.coeffs

    @given(st.data())
    @settings(max_examples=10)
    def test_mul_matches_bigint(self, data):
        basis = RNSBasis.for_bit_width(80, 32)
        q = basis.product
        coeff = st.integers(min_value=0, max_value=q - 1)
        a = data.draw(st.lists(coeff, min_size=32, max_size=32))
        b = data.draw(st.lists(coeff, min_size=32, max_size=32))
        rns = RNSPolynomial.from_coefficients(
            basis, a
        ) * RNSPolynomial.from_coefficients(basis, b)
        bigint = Polynomial(a, q) * Polynomial(b, q)
        assert tuple(rns.to_coefficients()) == bigint.coeffs

    def test_neg_and_sub(self, basis64):
        a = RNSPolynomial.from_coefficients(basis64, list(range(64)))
        b = RNSPolynomial.from_coefficients(basis64, [5] * 64)
        assert (a - b).to_coefficients() == (a + (-b)).to_coefficients()

    def test_scalar_mul(self, basis64):
        a = RNSPolynomial.from_coefficients(basis64, list(range(64)))
        q = basis64.product
        assert (a * 7).to_coefficients() == [i * 7 % q for i in range(64)]
        assert a * np.int64(7) == a * 7

    def test_mul_mixed_width_basis(self):
        """uint64 rows and object rows in one basis multiply together."""
        basis = RNSBasis((find_ntt_prime(30, 32), find_ntt_prime(60, 32)))
        q = basis.product
        a = [(i * 7919) ** 3 % q for i in range(32)]
        b = [q - 1 - i for i in range(32)]
        rns = RNSPolynomial.from_coefficients(
            basis, a
        ) * RNSPolynomial.from_coefficients(basis, b)
        bigint = Polynomial(a, q) * Polynomial(b, q)
        assert tuple(rns.to_coefficients()) == bigint.coeffs

    def test_incompatible_bases_rejected(self, basis64):
        other = RNSBasis((97, 193))
        a = RNSPolynomial.zero(basis64, 64)
        b = RNSPolynomial.zero(other, 64)
        with pytest.raises(ParameterError):
            _ = a + b
