"""Frozen test oracle: the pure-Python NTT and 62-bit CRT convolution.

These are the butterfly loops and the CRT bundle that computed every
transform and every exact convolution before the numpy kernel replaced
them, kept verbatim so the differential tests can check the fast path
against them. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime, inverse_mod, is_prime, root_of_unity


def _bit_reverse(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


class NTTContext:
    """Precomputed negacyclic NTT for ring degree ``n`` and prime ``p``.

    The context owns the bit-reversed twiddle tables; transforms are
    pure functions over coefficient lists.

    >>> ctx = NTTContext(8, 17)  # 17 == 1 (mod 16)
    >>> a = [1, 2, 3, 4, 0, 0, 0, 0]
    >>> ctx.inverse(ctx.forward(a)) == a
    True
    """

    def __init__(self, n: int, p: int):
        if n <= 0 or n & (n - 1):
            raise ParameterError(f"ring degree must be a power of two: {n}")
        if not is_prime(p):
            raise ParameterError(f"NTT modulus must be prime, got {p}")
        if (p - 1) % (2 * n):
            raise ParameterError(
                f"NTT requires p == 1 (mod 2n); got p={p}, n={n}"
            )
        self.n = n
        self.p = p
        self.log_n = n.bit_length() - 1
        psi = root_of_unity(p, 2 * n)
        psi_inv = inverse_mod(psi, p)
        self.psi = psi
        # Twiddle tables in bit-reversed order, psi powers merged
        # (Longa–Naehrig layout).
        self._fwd = [
            pow(psi, _bit_reverse(i, self.log_n), p) for i in range(n)
        ]
        self._inv = [
            pow(psi_inv, _bit_reverse(i, self.log_n), p) for i in range(n)
        ]
        self.n_inv = inverse_mod(n, p)

    def forward(self, coeffs: list) -> list:
        """Forward negacyclic NTT (coefficient → evaluation domain)."""
        if len(coeffs) != self.n:
            raise ParameterError(
                f"expected {self.n} coefficients, got {len(coeffs)}"
            )
        p = self.p
        a = [c % p for c in coeffs]
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            for i in range(m):
                w = self._fwd[m + i]
                j1 = 2 * i * t
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = a[j + t] * w % p
                    a[j] = (u + v) % p
                    a[j + t] = (u - v) % p
            m *= 2
        return a

    def inverse(self, values: list) -> list:
        """Inverse negacyclic NTT (evaluation → coefficient domain)."""
        if len(values) != self.n:
            raise ParameterError(
                f"expected {self.n} values, got {len(values)}"
            )
        p = self.p
        a = list(values)
        t = 1
        m = self.n
        while m > 1:
            j1 = 0
            h = m // 2
            for i in range(h):
                w = self._inv[h + i]
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = a[j + t]
                    a[j] = (u + v) % p
                    a[j + t] = (u - v) * w % p
                j1 += 2 * t
            t *= 2
            m = h
        n_inv = self.n_inv
        return [x * n_inv % p for x in a]

    def pointwise(self, a: list, b: list) -> list:
        """Element-wise product in the evaluation domain."""
        if len(a) != self.n or len(b) != self.n:
            raise ParameterError("operand length mismatch with ring degree")
        p = self.p
        return [x * y % p for x, y in zip(a, b)]

    def convolve(self, a: list, b: list) -> list:
        """Negacyclic convolution ``a * b mod (x^n + 1, p)``.

        The textbook NTT → pointwise → INTT pipeline; cost
        ``O(n log n)`` modular multiplications, versus ``O(n^2)`` for
        the schoolbook convolution the PIM device performs.
        """
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))

    #: Modular multiplications performed by one forward or inverse
    #: transform — (n/2) * log2(n) butterflies, one mulmod each. Used by
    #: the CPU-SEAL cost model; kept next to the algorithm it describes.
    def butterflies_per_transform(self) -> int:
        return (self.n // 2) * self.log_n


#: Bit width of the auxiliary CRT primes used for exact convolution.
#: 62 bits keeps psi-power precomputation in native-int-friendly range
#: while minimizing the number of primes needed.
_CRT_PRIME_BITS = 62


@lru_cache(maxsize=32)
def _crt_ntt_contexts(n: int, count: int) -> tuple:
    """``count`` NTT contexts over distinct 62-bit primes == 1 mod 2n."""
    return tuple(
        NTTContext(n, find_ntt_prime(_CRT_PRIME_BITS, n, index=i))
        for i in range(count)
    )


@lru_cache(maxsize=64)
def _crt_recombination(moduli: tuple) -> tuple:
    """Precompute (Q, [Q_i, Q_i^{-1} mod p_i]) for CRT composition."""
    product = 1
    for p in moduli:
        product *= p
    partials = []
    for p in moduli:
        q_i = product // p
        partials.append((q_i, inverse_mod(q_i % p, p)))
    return product, tuple(partials)


def _crt_negacyclic(a: list, b: list, n: int) -> list:
    """Exact negacyclic convolution over Z via CRT-bundled NTTs."""
    max_a = max((abs(x) for x in a), default=0)
    max_b = max((abs(x) for x in b), default=0)
    # |result coefficient| <= n * max|a| * max|b|; need the CRT modulus
    # to cover the signed range, i.e. Q > 2 * bound.
    bound = 2 * n * max_a * max_b + 1
    count = max(1, -(-bound.bit_length() // (_CRT_PRIME_BITS - 1)))
    while True:
        contexts = _crt_ntt_contexts(n, count)
        product = 1
        for ctx in contexts:
            product *= ctx.p
        if product >= bound:
            break
        count += 1
    residue_vectors = [
        ctx.convolve([x % ctx.p for x in a], [x % ctx.p for x in b])
        for ctx in contexts
    ]
    moduli = tuple(ctx.p for ctx in contexts)
    q_total, partials = _crt_recombination(moduli)
    half = q_total // 2
    out = []
    for k in range(n):
        acc = 0
        for idx, (q_i, q_i_inv) in enumerate(partials):
            acc += (residue_vectors[idx][k] * q_i_inv % moduli[idx]) * q_i
        acc %= q_total
        if acc > half:
            acc -= q_total
        out.append(acc)
    return out
