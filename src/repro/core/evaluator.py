"""Homomorphic evaluation: the operations the paper accelerates.

The paper implements exactly two homomorphic primitives on the PIM
device — **addition** and **multiplication** (Section 3) — and builds
the statistical workloads from them. This evaluator provides those,
plus the standard supporting operations (subtraction, negation,
plaintext operands, relinearization, squaring).

Multiplication follows the textbook BFV construction: the ciphertexts'
centered lifts are tensored **exactly over the integers** (no modular
wrap — this is why :func:`repro.poly.polynomial.negacyclic_sums` works
over Z), each tensor component is scaled by ``t/q`` with rounding, and
the resulting size-3 ciphertext is folded back to size 2 with the
relinearization key's base-``T`` digits.

Each operation hands all its products to one ``negacyclic_sums`` call,
the way SEAL keeps operands in the NTT domain: the four tensor
operands are transformed once each and the cross term ``a0*b1 + a1*b0``
adds in the NTT domain; relinearization's ``Σ rk0_i*u_i`` and
``Σ rk1_i*u_i`` transform each digit once and invert once per sum.
"""

from __future__ import annotations

from repro.core.ciphertext import Ciphertext, Plaintext
from repro.core.keys import RelinKey
from repro.core.params import BFVParameters
from repro.errors import CiphertextError, ParameterError
from repro.obs.noise import get_noise_ledger
from repro.poly.polynomial import Polynomial, negacyclic_sums


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


class Evaluator:
    """Server-side homomorphic operations over one parameter set.

    The evaluator never sees secret material: it holds at most the
    relinearization key, which is public evaluation key material.

    Every operation reports itself to the process-global noise ledger
    (:mod:`repro.obs.noise`) — a no-op unless a recording ledger is
    installed. An optional ``guard``
    (:class:`repro.core.planner.HeadroomGuard`) is consulted *before*
    each budget-consuming operation with the ledger's predicted
    post-op budget; a strict guard raises
    :class:`~repro.errors.NoiseBudgetExhaustedError` instead of letting
    an operation silently push a ciphertext past decryption failure.
    """

    def __init__(
        self,
        params: BFVParameters,
        relin_key: RelinKey | None = None,
        guard=None,
    ):
        if relin_key is not None and relin_key.params != params:
            raise ParameterError("relin key belongs to different parameters")
        self.params = params
        self.relin_key = relin_key
        self.guard = guard

    def _guard_check(self, op: str, inputs, plain=None, params=None) -> None:
        """Consult the headroom guard with the pre-op prediction.

        Needs an active noise ledger to know the inputs' budgets; with
        the null ledger (or untracked inputs) the prediction is None
        and the guard stays silent.
        """
        if self.guard is None:
            return
        stamp = get_noise_ledger().predict(
            op, inputs, params=params or self.params, plain=plain
        )
        self.guard.check(op, stamp, self.params)

    # -- additive operations ------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic addition: slot-wise / coefficient-wise sum.

        Ciphertexts of different sizes are aligned by treating missing
        components as zero.
        """
        self._check(a)
        a.check_compatible(b)
        self._guard_check("add", (a, b))
        size = max(a.size, b.size)
        zero = Polynomial.zero(self.params.poly_degree, self.params.coeff_modulus)
        polys = []
        for i in range(size):
            pa = a.polys[i] if i < a.size else zero
            pb = b.polys[i] if i < b.size else zero
            polys.append(pa + pb)
        result = Ciphertext(self.params, polys)
        get_noise_ledger().record_op("add", result, (a, b))
        return result

    def add_many(self, ciphertexts) -> Ciphertext:
        """Sum an iterable of ciphertexts (balanced-tree order).

        The tree order matters for fairness of the platform comparison:
        it is also the reduction order the device kernels use.
        """
        items = list(ciphertexts)
        if not items:
            raise CiphertextError("add_many needs at least one ciphertext")
        while len(items) > 1:
            paired = []
            for i in range(0, len(items) - 1, 2):
                paired.append(self.add(items[i], items[i + 1]))
            if len(items) % 2:
                paired.append(items[-1])
            items = paired
        return items[0]

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction ``a - b``."""
        return self.add(a, self.negate(b))

    def negate(self, a: Ciphertext) -> Ciphertext:
        """Homomorphic negation."""
        self._check(a)
        result = Ciphertext(self.params, tuple(-p for p in a.polys))
        get_noise_ledger().record_op("negate", result, (a,))
        return result

    def add_plain(self, a: Ciphertext, plain: Plaintext) -> Ciphertext:
        """Add an unencrypted plaintext to a ciphertext (noise-free)."""
        self._check(a)
        if plain.params != self.params:
            raise ParameterError("plaintext belongs to different parameters")
        scaled = Polynomial(
            plain.poly.centered(), self.params.coeff_modulus
        ).scalar_mul(self.params.delta)
        polys = list(a.polys)
        polys[0] = polys[0] + scaled
        result = Ciphertext(self.params, polys)
        get_noise_ledger().record_op("add_plain", result, (a,))
        return result

    # -- multiplicative operations -------------------------------------------

    def multiply_plain(self, a: Ciphertext, plain: Plaintext) -> Ciphertext:
        """Multiply a ciphertext by an unencrypted plaintext.

        No rescaling is needed: each component is convolved with the
        centered plaintext directly, and the noise grows only by the
        plaintext's norm.
        """
        self._check(a)
        if plain.params != self.params:
            raise ParameterError("plaintext belongs to different parameters")
        lifted = Polynomial(plain.poly.centered(), self.params.coeff_modulus)
        if not any(plain.poly.coeffs):
            raise CiphertextError(
                "multiply_plain by zero produces a transparent ciphertext"
            )
        self._guard_check("multiply_plain", (a,), plain=plain)
        result = Ciphertext(
            self.params, tuple(p * lifted for p in a.polys)
        )
        get_noise_ledger().record_op(
            "multiply_plain", result, (a,), plain=plain
        )
        return result

    def multiply(
        self, a: Ciphertext, b: Ciphertext, relinearize: bool = True
    ) -> Ciphertext:
        """Homomorphic multiplication (paper Section 3).

        Computes the exact integer tensor product of the two size-2
        ciphertexts, scales by ``t/q`` with rounding, and (by default)
        relinearizes the size-3 result back to size 2.
        """
        self._check(a)
        a.check_compatible(b)
        if a.size != 2 or b.size != 2:
            raise CiphertextError(
                "multiply expects size-2 operands; relinearize first "
                f"(got sizes {a.size} and {b.size})"
            )
        self._guard_check("multiply", (a, b))
        params = self.params
        n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus

        a0, a1 = (p.centered() for p in a.polys)
        b0, b1 = (p.centered() for p in b.polys)

        tensor = negacyclic_sums(
            [[(a0, b0)], [(a0, b1), (a1, b0)], [(a1, b1)]], n
        )

        polys = tuple(Polynomial(_round_scale_list(d, t, q), q) for d in tensor)
        product = Ciphertext(params, polys)
        get_noise_ledger().record_op("multiply", product, (a, b))
        if relinearize and self.relin_key is not None:
            return self.relinearize(product)
        return product

    def square(self, a: Ciphertext, relinearize: bool = True) -> Ciphertext:
        """Homomorphic squaring — the variance workload's inner step.

        Same construction as :meth:`multiply` with the symmetric tensor:
        two operands to transform instead of four.
        """
        self._check(a)
        if a.size != 2:
            raise CiphertextError("square expects a size-2 ciphertext")
        self._guard_check("square", (a,))
        params = self.params
        n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus
        a0, a1 = (p.centered() for p in a.polys)
        tensor = negacyclic_sums(
            [[(a0, a0)], [(a0, a1), (a1, a0)], [(a1, a1)]], n
        )
        polys = tuple(Polynomial(_round_scale_list(d, t, q), q) for d in tensor)
        product = Ciphertext(params, polys)
        get_noise_ledger().record_op("square", product, (a,))
        if relinearize and self.relin_key is not None:
            return self.relinearize(product)
        return product

    def multiply_many(self, ciphertexts) -> Ciphertext:
        """Product of several ciphertexts, balanced-tree order.

        The tree shape minimizes multiplicative depth
        (``ceil(log2(count))`` levels instead of ``count - 1``), which
        directly minimizes noise-budget consumption. Requires a
        relinearization key (intermediate products must return to size
        2 before the next level).
        """
        items = list(ciphertexts)
        if not items:
            raise CiphertextError("multiply_many needs at least one ciphertext")
        if len(items) > 1 and self.relin_key is None:
            raise CiphertextError(
                "multiply_many requires a relinearization key"
            )
        while len(items) > 1:
            paired = []
            for i in range(0, len(items) - 1, 2):
                paired.append(self.multiply(items[i], items[i + 1]))
            if len(items) % 2:
                paired.append(items[-1])
            items = paired
        return items[0]

    def exponentiate(self, a: Ciphertext, exponent: int) -> Ciphertext:
        """``a`` raised to a positive integer power, square-and-multiply.

        Consumes one multiplicative level per bit of the exponent, so
        check :mod:`repro.core.planner` before using large exponents.
        """
        if exponent <= 0:
            raise CiphertextError(
                f"exponent must be a positive integer, got {exponent} "
                "(inverses do not exist homomorphically)"
            )
        self._check(a)
        if exponent > 1 and self.relin_key is None:
            raise CiphertextError("exponentiate requires a relinearization key")
        result = None
        base = a
        remaining = exponent
        while remaining:
            if remaining & 1:
                result = base if result is None else self.multiply(result, base)
            remaining >>= 1
            if remaining:
                base = self.square(base)
        return result

    def relinearize(self, a: Ciphertext) -> Ciphertext:
        """Fold a size-3 ciphertext back to size 2 using the relin key.

        The cubic component ``c2`` is split into base-``T`` digits
        ``c2 = sum_i T^i * u_i``; each digit is multiplied by the key
        pair encrypting ``T^i * s^2``, keeping the digit norms (and so
        the added noise) bounded by ``T``. The result is
        ``(c0 + sum_i rk0_i * u_i, c1 + sum_i rk1_i * u_i)``, both sums
        from one product-sum.
        """
        self._check(a)
        if self.relin_key is None:
            raise CiphertextError("no relinearization key configured")
        if a.size == 2:
            return a
        if a.size != 3:
            raise CiphertextError(
                f"relinearize supports size-3 ciphertexts, got size {a.size}"
            )
        self._guard_check("relinearize", (a,))
        params = self.params
        n, q = params.poly_degree, params.coeff_modulus
        base_bits = self.relin_key.base_bits
        mask = (1 << base_bits) - 1

        c0, c1, c2 = a.polys
        digits = []
        remaining = list(c2.coeffs)
        for _ in range(self.relin_key.component_count):
            digits.append([r & mask for r in remaining])
            remaining = [r >> base_bits for r in remaining]
        if any(remaining):
            raise CiphertextError(
                "relinearization digit count too small for modulus"
            )
        pairs = self.relin_key.pairs
        key0, key1 = negacyclic_sums(
            [
                [(rk0.coeffs, digit) for (rk0, _), digit in zip(pairs, digits)],
                [(rk1.coeffs, digit) for (_, rk1), digit in zip(pairs, digits)],
            ],
            n,
        )
        new_c0 = c0 + Polynomial(key0, q)
        new_c1 = c1 + Polynomial(key1, q)
        result = Ciphertext(params, (new_c0, new_c1))
        get_noise_ledger().record_op("relinearize", result, (a,))
        return result

    # -- helpers ---------------------------------------------------------------

    def _check(self, a: Ciphertext) -> None:
        if a.params != self.params:
            raise CiphertextError("ciphertext belongs to different parameters")
