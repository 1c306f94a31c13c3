"""Negacyclic Number Theoretic Transform over prime moduli.

The NTT is the algorithmic heart of the **CPU-SEAL baseline** the paper
compares against (Section 4.1: SEAL "leverages the Residue Number
System (RNS) and the Number Theoretic Transform (NTT) implementations
for faster operations"), and is deliberately *not* used on the PIM
device ("We do not incorporate Number Theoretic Transform techniques to
optimize multiplication. We leave them for future work.", Section 3).

This implementation is the standard iterative pair used by production
HE libraries:

* forward: Cooley–Tukey butterflies in bit-reversed order, with the
  powers of the primitive ``2n``-th root ``psi`` *merged into the
  twiddles*, so the transform natively computes the negacyclic
  (x^n + 1) convolution without explicit pre-weighting;
* inverse: Gentleman–Sande butterflies, with ``n^{-1}`` and the inverse
  psi powers merged.

Each butterfly stage is one numpy operation over a ``k x n`` matrix of
residue rows, row ``i`` reduced modulo its own prime ``p_i ≡ 1
(mod 2n)``: the stage reshapes the rows to ``(k, m, 2, t)`` blocks and
combines the two halves of every block at once. Primes below ``2^32``
run on ``uint64``, where every product of two residues fits; wider
primes (the 60-bit SEAL basis) run the same code on ``dtype=object``
arrays of Python ints.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.poly.modring import inverse_mod, is_prime, root_of_unity

#: Primes below this bound have residue products that fit in ``uint64``.
UINT64_PRIME_LIMIT = 1 << 32


def dtype_for(p: int):
    """Array dtype that holds products of two residues modulo ``p``."""
    return np.uint64 if p < UINT64_PRIME_LIMIT else object


def _bit_reversed_powers(root: int, n: int, p: int) -> list:
    """``root^bitrev(i) mod p`` for ``i < n`` (``n`` a power of two)."""
    powers = [1] * n
    for i in range(1, n):
        powers[i] = powers[i - 1] * root % p
    order = [0]
    while len(order) < n:
        order = [2 * i for i in order] + [2 * i + 1 for i in order]
    return [powers[i] for i in order]


def _column(values, dtype, ndim: int) -> np.ndarray:
    """Per-row constants shaped to broadcast against ``ndim`` axes."""
    return np.array(values, dtype=dtype).reshape((-1,) + (1,) * (ndim - 1))


def forward_rows(rows: np.ndarray, contexts) -> np.ndarray:
    """Forward NTT of each row of ``rows`` modulo its context's prime.

    ``rows`` is ``k x n`` with entries reduced into ``[0, p_i)`` and the
    dtype of :func:`dtype_for`; the result has the same shape.
    """
    k, n = rows.shape
    dtype = rows.dtype
    p = _column([c.p for c in contexts], dtype, 3)
    twiddles = np.stack([c.fwd_twiddles for c in contexts])
    a = rows
    m, t = 1, n
    while m < n:
        t //= 2
        blocks = a.reshape(k, m, 2, t)
        u = blocks[:, :, 0, :]
        v = blocks[:, :, 1, :] * twiddles[:, m:2 * m, None] % p
        a = np.stack(((u + v) % p, (u + p - v) % p), axis=2).reshape(k, n)
        m *= 2
    return a


def inverse_rows(rows: np.ndarray, contexts) -> np.ndarray:
    """Inverse NTT of each row of ``rows``, entries reduced as above."""
    k, n = rows.shape
    dtype = rows.dtype
    p = _column([c.p for c in contexts], dtype, 3)
    twiddles = np.stack([c.inv_twiddles for c in contexts])
    a = rows
    t, h = 1, n // 2
    while h >= 1:
        blocks = a.reshape(k, h, 2, t)
        u = blocks[:, :, 0, :]
        v = blocks[:, :, 1, :]
        diff = (u + p - v) % p * twiddles[:, h:2 * h, None] % p
        a = np.stack(((u + v) % p, diff), axis=2).reshape(k, n)
        t *= 2
        h //= 2
    n_inv = _column([c.n_inv for c in contexts], dtype, 2)
    return a * n_inv % p.reshape(k, 1)


class NTTContext:
    """Precomputed negacyclic NTT for ring degree ``n`` and prime ``p``.

    The context owns the bit-reversed twiddle tables; transforms are
    pure functions over coefficient lists. Obtain shared instances
    through :func:`ntt_context`.

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
        self.dtype = dtype_for(p)
        psi = root_of_unity(p, 2 * n)
        self.psi = psi
        # Twiddle tables in bit-reversed order, psi powers merged
        # (Longa–Naehrig layout).
        self.fwd_twiddles = np.array(
            _bit_reversed_powers(psi, n, p), dtype=self.dtype
        )
        self.inv_twiddles = np.array(
            _bit_reversed_powers(inverse_mod(psi, p), n, p), dtype=self.dtype
        )
        self.n_inv = inverse_mod(n, p)

    def _row(self, values: list, what: str) -> np.ndarray:
        """One residue row from any ints (unreduced and negative too)."""
        if len(values) != self.n:
            raise ParameterError(
                f"expected {self.n} {what}, got {len(values)}"
            )
        row = np.array(values, dtype=object) % self.p
        return row.astype(self.dtype).reshape(1, self.n)

    def forward(self, coeffs: list) -> list:
        """Forward negacyclic NTT (coefficient → evaluation domain)."""
        row = self._row(coeffs, "coefficients")
        return forward_rows(row, (self,))[0].tolist()

    def inverse(self, values: list) -> list:
        """Inverse negacyclic NTT (evaluation → coefficient domain)."""
        row = self._row(values, "values")
        return inverse_rows(row, (self,))[0].tolist()

    def pointwise(self, a: list, b: list) -> list:
        """Element-wise product in the evaluation domain."""
        if len(a) != self.n or len(b) != self.n:
            raise ParameterError("operand length mismatch with ring degree")
        product = self._row(a, "values") * self._row(b, "values") % self.p
        return product[0].tolist()

    def convolve(self, a: list, b: list) -> list:
        """Negacyclic convolution ``a * b mod (x^n + 1, p)``.

        The textbook NTT → pointwise → INTT pipeline; cost
        ``O(n log n)`` modular multiplications, versus ``O(n^2)`` for
        the schoolbook convolution the PIM device performs.
        """
        fa = forward_rows(self._row(a, "coefficients"), (self,))
        fb = forward_rows(self._row(b, "coefficients"), (self,))
        return inverse_rows(fa * fb % self.p, (self,))[0].tolist()

    #: Modular multiplications performed by one forward or inverse
    #: transform — (n/2) * log2(n) butterflies, one mulmod each. Used by
    #: the CPU-SEAL cost model; kept next to the algorithm it describes.
    def butterflies_per_transform(self) -> int:
        return (self.n // 2) * self.log_n


@lru_cache(maxsize=256)
def ntt_context(n: int, p: int) -> NTTContext:
    """The shared :class:`NTTContext` for ``(n, p)``.

    Every user (slot encoding, RNS rows, exact convolution) goes through
    this one cache, so each twiddle table is built and held once.
    """
    return NTTContext(n, p)
