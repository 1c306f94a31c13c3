"""Frozen test oracle: BFV multiply, square, relinearize, encrypt and
decrypt with one exact convolution per product.

These are the bodies that ran before the evaluator, the encryptor and
the decryptor passed all their products to one NTT-domain product-sum
(:func:`repro.poly.polynomial.negacyclic_sums`): every ``a*b`` is its
own convolution, and sums of products are added afterwards, over
Python ints or in ``R_q``. They are kept verbatim, as free functions of
the objects they read, so the differential tests can check the
product-sum path against them bit for bit. Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

from repro.core.ciphertext import Ciphertext
from repro.errors import CiphertextError
from repro.poly.polynomial import Polynomial, negacyclic_convolve
from repro.poly.sampling import sample_centered_binomial, sample_ternary


def _round_scale_list(values, numerator: int, denominator: int) -> list:
    """Element-wise ``round(v * numerator / denominator)``, half away
    from zero, exact integer arithmetic."""
    out = []
    for v in values:
        num = v * numerator
        if num >= 0:
            out.append((2 * num + denominator) // (2 * denominator))
        else:
            out.append(-((-2 * num + denominator) // (2 * denominator)))
    return out


def multiply(params, a: Ciphertext, b: Ciphertext) -> tuple:
    """The size-3 tensor product of two size-2 ciphertexts, scaled by t/q."""
    n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus

    a0, a1 = (p.centered() for p in a.polys)
    b0, b1 = (p.centered() for p in b.polys)

    d0 = negacyclic_convolve(a0, b0, n)
    cross1 = negacyclic_convolve(a0, b1, n)
    cross2 = negacyclic_convolve(a1, b0, n)
    d1 = [x + y for x, y in zip(cross1, cross2)]
    d2 = negacyclic_convolve(a1, b1, n)

    polys = tuple(
        Polynomial(_round_scale_list(d, t, q), q) for d in (d0, d1, d2)
    )
    return polys


def square(params, a: Ciphertext) -> tuple:
    """The symmetric tensor of one size-2 ciphertext, scaled by t/q."""
    n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus
    a0, a1 = (p.centered() for p in a.polys)
    d0 = negacyclic_convolve(a0, a0, n)
    d1 = [2 * x for x in negacyclic_convolve(a0, a1, n)]
    d2 = negacyclic_convolve(a1, a1, n)
    polys = tuple(
        Polynomial(_round_scale_list(d, t, q), q) for d in (d0, d1, d2)
    )
    return polys


def relinearize(params, relin_key, a: Ciphertext) -> tuple:
    """Fold a size-3 ciphertext to size 2 with the base-T digit keys."""
    q = params.coeff_modulus
    base_bits = relin_key.base_bits
    mask = (1 << base_bits) - 1

    c0, c1, c2 = a.polys
    digits = []
    remaining = list(c2.coeffs)
    for _ in range(relin_key.component_count):
        digits.append(Polynomial([r & mask for r in remaining], q))
        remaining = [r >> base_bits for r in remaining]
    if any(remaining):
        raise CiphertextError(
            "relinearization digit count too small for modulus"
        )
    new_c0, new_c1 = c0, c1
    for digit, (rk0, rk1) in zip(digits, relin_key.pairs):
        new_c0 = new_c0 + rk0 * digit
        new_c1 = new_c1 + rk1 * digit
    return new_c0, new_c1


def encrypt(params, public_key, plaintext, rng) -> tuple:
    """``(pk0*u + e1 + delta*m, pk1*u + e2)``, drawing from ``rng``."""
    n, q = params.poly_degree, params.coeff_modulus

    u = Polynomial(sample_ternary(n, rng), q)
    e1 = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
    e2 = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)

    scaled_m = Polynomial(plaintext.poly.centered(), q).scalar_mul(
        params.delta
    )
    c0 = public_key.p0 * u + e1 + scaled_m
    c1 = public_key.p1 * u + e2
    return c0, c1


def raw_decrypt_centered(secret_key, ciphertext: Ciphertext) -> list:
    """Centered coefficients of ``sum(c_i * s^i) mod q``."""
    s = secret_key.poly
    acc = ciphertext.polys[0]
    s_power = None
    for c_i in ciphertext.polys[1:]:
        s_power = s if s_power is None else s_power * s
        acc = acc + c_i * s_power
    return acc.centered()
