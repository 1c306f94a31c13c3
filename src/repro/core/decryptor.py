"""BFV decryption (client-side, per the paper's deployment model)."""

from __future__ import annotations

from repro.core.ciphertext import Ciphertext, Plaintext
from repro.core.keys import SecretKey
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.poly.polynomial import Polynomial, negacyclic_sums


def _round_scale(value: int, numerator: int, denominator: int) -> int:
    """``round(value * numerator / denominator)`` with exact integers,
    rounding half away from zero (sign-symmetric, matching the scheme's
    analysis)."""
    num = value * numerator
    if num >= 0:
        return (2 * num + denominator) // (2 * denominator)
    return -((-2 * num + denominator) // (2 * denominator))


class Decryptor:
    """Decrypts ciphertexts of any size under the secret key.

    Decryption evaluates ``x = sum_i(c_i * s^i) mod q``, lifts the
    result to the centered range, and recovers each plaintext
    coefficient as ``round(t * x_k / q) mod t``. Size-3 (unrelinearized)
    ciphertexts decrypt too — the evaluator's relinearization step is an
    optimization, not a correctness requirement.
    """

    def __init__(self, params: BFVParameters, secret_key: SecretKey):
        if secret_key.params != params:
            raise ParameterError("secret key belongs to different parameters")
        self.params = params
        self.secret_key = secret_key

    def raw_decrypt_centered(self, ciphertext: Ciphertext) -> list:
        """Centered coefficients of ``sum(c_i * s^i) mod q``.

        Exposed separately because noise measurement
        (:func:`repro.core.noise.noise_budget`) needs the pre-rounding
        value.
        """
        if ciphertext.params != self.params:
            raise ParameterError("ciphertext belongs to different parameters")
        n, q = self.params.poly_degree, self.params.coeff_modulus
        s = self.secret_key.poly.centered()
        # Powers of the ternary ``s`` over Z stay small; the sum
        # ``c_1*s + c_2*s^2 + ...`` then pays one inverse transform.
        powers = [s]
        for _ in ciphertext.polys[2:]:
            powers.append(negacyclic_sums([[(powers[-1], s)]], n)[0])
        (masked,) = negacyclic_sums(
            [[(c_i.coeffs, s_i) for c_i, s_i in zip(ciphertext.polys[1:], powers)]], n
        )
        return (ciphertext.polys[0] + Polynomial(masked, q)).centered()

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Decrypt to a plaintext (correct while noise budget > 0)."""
        params = self.params
        q, t = params.coeff_modulus, params.plain_modulus
        centered = self.raw_decrypt_centered(ciphertext)
        coeffs = [_round_scale(x, t, q) % t for x in centered]
        return Plaintext(params, Polynomial(coeffs, t))
