"""Residue Number System (RNS) representation of wide-modulus rings.

The paper's strongest CPU baseline — Microsoft SEAL — avoids
multi-precision arithmetic entirely by choosing the ciphertext modulus
``Q`` as a product of word-sized NTT primes and keeping every
polynomial as a matrix of residues, one row per prime (Section 4.1;
RNS per [97], NTT per [98]). Addition and multiplication then decompose
into independent native-word operations per prime, and multiplication
additionally runs in the NTT evaluation domain at O(n log n).

This module implements that representation for real:

* :class:`RNSBasis` — a set of distinct NTT-friendly primes with CRT
  composition/decomposition;
* :class:`RNSPolynomial` — a ring element stored as per-prime residue
  rows, with add/sub/negate/scalar ops and NTT-domain multiplication;
* :class:`ConvolutionBasis` — the basis of 30-bit NTT primes behind
  :func:`exact_negacyclic_sums`, the exact big-integer product-sum
  that :func:`repro.poly.polynomial.negacyclic_sums` runs for every
  paper-sized ring. All ``k`` residue rows of an operand are
  transformed at once on ``uint64``, each distinct operand once per
  call; each sum of products accumulates in the NTT domain and is
  inverted and recombined with Garner's algorithm once.
  :func:`exact_negacyclic` is its one-pair case.

It is used three ways: as the functional engine of the CPU-SEAL
backend, inside the exact big-integer convolution of the BFV scheme,
and directly in tests that check the two polynomial representations
implement the same algebra.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime, inverse_mod
from repro.poly.ntt import forward_rows, inverse_rows, ntt_context

#: SEAL-style word-sized prime width. SEAL uses primes up to 60 bits so
#: that lazy Barrett accumulation fits 128-bit products; we follow suit.
SEAL_PRIME_BITS = 60

#: Width of the primes in the exact-convolution basis. Products of two
#: residues stay below 2^60, so the transforms and Garner's
#: recombination run on ``uint64`` without overflow.
CONVOLUTION_PRIME_BITS = 30


class RNSBasis:
    """An ordered set of distinct coprime moduli with CRT helpers.

    >>> basis = RNSBasis((97, 193))
    >>> basis.compose(basis.decompose(12345))
    12345
    """

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ParameterError("RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ParameterError(f"RNS moduli must be distinct: {moduli}")
        for m in moduli:
            if m < 2:
                raise ParameterError(f"RNS modulus must be >= 2, got {m}")
        self.moduli = moduli
        self.product = 1
        for m in moduli:
            self.product *= m
        self._partials = []
        for m in moduli:
            q_i = self.product // m
            try:
                q_i_inv = inverse_mod(q_i % m, m)
            except ParameterError as exc:
                raise ParameterError(
                    f"RNS moduli must be pairwise coprime: {moduli}"
                ) from exc
            self._partials.append((q_i, q_i_inv))

    @classmethod
    def for_bit_width(
        cls, total_bits: int, ring_degree: int, prime_bits: int = SEAL_PRIME_BITS
    ) -> "RNSBasis":
        """Smallest basis of NTT primes whose product has >= total_bits.

        This mirrors how SEAL assembles a coefficient modulus for a
        requested security level out of word-sized primes.
        """
        if total_bits <= 0:
            raise ParameterError(f"total bits must be positive: {total_bits}")
        count = -(-total_bits // (prime_bits - 1))
        while True:
            primes = tuple(
                find_ntt_prime(prime_bits, ring_degree, index=i)
                for i in range(count)
            )
            product = 1
            for p in primes:
                product *= p
            if product.bit_length() >= total_bits:
                return cls(primes)
            count += 1

    def __len__(self) -> int:
        return len(self.moduli)

    def __eq__(self, other) -> bool:
        return isinstance(other, RNSBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return (
            f"RNSBasis({len(self.moduli)} primes, "
            f"Q~2^{self.product.bit_length()})"
        )

    def decompose(self, value: int) -> tuple:
        """Residues of ``value`` modulo each basis prime."""
        return tuple(value % m for m in self.moduli)

    def compose(self, residues) -> int:
        """CRT reconstruction into ``[0, product)``."""
        residues = tuple(residues)
        if len(residues) != len(self.moduli):
            raise ParameterError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        acc = 0
        for r, m, (q_i, q_i_inv) in zip(residues, self.moduli, self._partials):
            acc += (r % m) * q_i_inv % m * q_i
        return acc % self.product

    def compose_centered(self, residues) -> int:
        """CRT reconstruction into the centered range ``(-Q/2, Q/2]``."""
        value = self.compose(residues)
        if value > self.product // 2:
            value -= self.product
        return value


class RNSPolynomial:
    """A ring element of ``Z_Q[x]/(x^n+1)`` stored as residue rows.

    ``rows[i][j]`` is coefficient ``j`` reduced modulo basis prime
    ``i``. Operations act row-wise — each row only ever touches
    word-sized values, which is exactly the property the SEAL baseline's
    speed (and our cost model for it) rests on.
    """

    __slots__ = ("basis", "n", "rows")

    def __init__(self, basis: RNSBasis, rows):
        rows = tuple(tuple(int(c) for c in row) for row in rows)
        if len(rows) != len(basis):
            raise ParameterError(
                f"expected {len(basis)} residue rows, got {len(rows)}"
            )
        n = len(rows[0]) if rows else 0
        if n == 0 or n & (n - 1):
            raise ParameterError(
                f"ring degree must be a nonzero power of two, got {n}"
            )
        for row, m in zip(rows, basis.moduli):
            if len(row) != n:
                raise ParameterError("residue rows have inconsistent lengths")
            if any(not 0 <= c < m for c in row):
                raise ParameterError("residue out of range for its modulus")
        self.basis = basis
        self.n = n
        self.rows = rows

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_coefficients(cls, basis: RNSBasis, coeffs) -> "RNSPolynomial":
        """Decompose integer coefficients into residue rows."""
        coeffs = [int(c) for c in coeffs]
        rows = [[c % m for c in coeffs] for m in basis.moduli]
        return cls(basis, rows)

    @classmethod
    def zero(cls, basis: RNSBasis, n: int) -> "RNSPolynomial":
        return cls(basis, [[0] * n for _ in basis.moduli])

    # -- conversions ------------------------------------------------------

    def to_coefficients(self) -> list:
        """CRT-compose back to integer coefficients in ``[0, Q)``."""
        return [
            self.basis.compose([row[j] for row in self.rows])
            for j in range(self.n)
        ]

    def to_centered(self) -> list:
        """CRT-compose to signed coefficients in ``(-Q/2, Q/2]``."""
        return [
            self.basis.compose_centered([row[j] for row in self.rows])
            for j in range(self.n)
        ]

    # -- protocol ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RNSPolynomial)
            and self.basis == other.basis
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.rows))

    def __repr__(self) -> str:
        return f"RNSPolynomial(n={self.n}, basis={self.basis!r})"

    def _check_compatible(self, other: "RNSPolynomial") -> None:
        if not isinstance(other, RNSPolynomial):
            raise ParameterError(f"expected RNSPolynomial, got {type(other)}")
        if self.basis != other.basis:
            raise ParameterError("RNS bases differ")
        if self.n != other.n:
            raise ParameterError("ring degrees differ")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RNSPolynomial") -> "RNSPolynomial":
        self._check_compatible(other)
        rows = [
            [(a + b) % m for a, b in zip(ra, rb)]
            for ra, rb, m in zip(self.rows, other.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def __sub__(self, other: "RNSPolynomial") -> "RNSPolynomial":
        self._check_compatible(other)
        rows = [
            [(a - b) % m for a, b in zip(ra, rb)]
            for ra, rb, m in zip(self.rows, other.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def __neg__(self) -> "RNSPolynomial":
        rows = [
            [(-a) % m for a in row]
            for row, m in zip(self.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def scalar_mul(self, scalar: int) -> "RNSPolynomial":
        rows = [
            [a * (scalar % m) % m for a in row]
            for row, m in zip(self.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def __mul__(self, other) -> "RNSPolynomial":
        if isinstance(other, numbers.Integral):
            return self.scalar_mul(int(other))
        self._check_compatible(other)
        contexts = tuple(ntt_context(self.n, m) for m in self.basis.moduli)
        dtype = np.result_type(*(ctx.dtype for ctx in contexts))
        p = np.array(self.basis.moduli, dtype=dtype)[:, None]
        fa = forward_rows(np.array(self.rows, dtype=dtype), contexts)
        fb = forward_rows(np.array(other.rows, dtype=dtype), contexts)
        return RNSPolynomial(
            self.basis, inverse_rows(fa * fb % p, contexts).tolist()
        )

    __rmul__ = __mul__


class ConvolutionBasis(RNSBasis):
    """The ``count`` largest 30-bit NTT primes ``≡ 1 (mod 2n)``.

    Obtain instances through :meth:`covering`, which picks the smallest
    basis whose product exceeds a bound and caches it per
    ``(n, count)``.
    """

    def __init__(self, n: int, count: int):
        super().__init__(
            find_ntt_prime(CONVOLUTION_PRIME_BITS, n, index=i)
            for i in range(count)
        )
        self.contexts = tuple(ntt_context(n, p) for p in self.moduli)
        self._p = np.array(self.moduli, dtype=np.uint64)[:, None]
        # Garner: p_j^{-1} modulo every later prime, one column per j.
        self._garner = [
            np.array(
                [inverse_mod(p_j % p_i, p_i) for p_i in self.moduli[j + 1:]],
                dtype=np.uint64,
            )[:, None]
            for j, p_j in enumerate(self.moduli[:-1])
        ]
        # Mixed radix of the uint64 words that each pack two digits.
        self._word_radices = [
            p_even * p_odd
            for p_even, p_odd in zip(self.moduli[0::2], self.moduli[1::2])
        ]
        # Garner yields c + half in [0, Q) for any |c| <= half.
        self._half = (self.product - 1) // 2
        self._half_residues = np.array(
            [self._half % p for p in self.moduli], dtype=np.uint64
        )[:, None]

    @classmethod
    def covering(cls, n: int, bound: int) -> "ConvolutionBasis":
        """Smallest basis for ring degree ``n`` with product >= ``bound``."""
        count = max(1, -(-(bound.bit_length() - 1) // CONVOLUTION_PRIME_BITS))
        while True:
            basis = _convolution_basis(n, count)
            if basis.product >= bound:
                return basis
            count += 1

    def residues(self, values: list, bits: int) -> np.ndarray:
        """``k x n`` matrix of signed ``values`` (``|v| < 2^bits``) mod each prime."""
        if bits < 63:
            rows = np.array(values, dtype=np.int64) % self._p.astype(np.int64)
        else:
            rows = np.array(values, dtype=object) % self._p.astype(object)
        return rows.astype(np.uint64)

    def compose_centered_rows(self, rows: np.ndarray) -> list:
        """Signed integers ``c`` with ``|c| <= (Q - 1) / 2`` from residue columns.

        Garner's algorithm turns each column into mixed-radix digits on
        ``uint64``; each pair of digits packs into one word below 2^60,
        and one Horner pass over the words builds the Python ints.
        """
        p = self._p
        digits = (rows + self._half_residues) % p
        for j, inverses in enumerate(self._garner):
            later = p[j + 1:]
            lifted = digits[j + 1:] + later - digits[j] % later
            digits[j + 1:] = lifted % later * inverses % later
        words = digits[0::2].copy()
        words[: len(self._word_radices)] += p[0:-1:2] * digits[1::2]
        value = words[-1].astype(object)
        for j in range(len(words) - 2, -1, -1):
            value = value * self._word_radices[j] + words[j].astype(object)
        return (value - self._half).tolist()


@lru_cache(maxsize=64)
def _convolution_basis(n: int, count: int) -> ConvolutionBasis:
    return ConvolutionBasis(n, count)


def exact_negacyclic_sums(sums: list, n: int) -> list:
    """Each sum of products ``Σ a·b`` exactly over Z, modulo ``x^n + 1``.

    ``sums`` is a list of sums, each a list of ``(a, b)`` pairs of
    signed coefficient lists of length ``n``; the result holds one
    signed coefficient list per sum (all zeros for an empty sum).

    ``|Σ a·b| <= Σ n * max|a| * max|b|``, so one basis whose product
    covers twice the largest sum's bound holds every result exactly.
    Each distinct operand (by identity) is reduced and transformed
    once. The terms run in term-major order — every sum's first term,
    then every sum's second — and an operand's transform is dropped
    after its last use, so a key or digit shared by several sums is
    held only while those sums need it. Each sum accumulates its
    pointwise products in the NTT domain (each below ``p < 2^30``, so
    ``uint64`` holds billions of them unreduced) and pays one inverse
    transform and one recombination.
    """
    norms = {}
    for terms in sums:
        for pair in terms:
            for x in pair:
                if id(x) not in norms:
                    norms[id(x)] = max(max(x), -min(x))
    bound = max(
        (sum(n * norms[id(a)] * norms[id(b)] for a, b in terms) for terms in sums),
        default=0,
    )
    basis = ConvolutionBasis.covering(n, 2 * bound + 1)
    order = [
        (s, terms[j])
        for j in range(max(map(len, sums), default=0))
        for s, terms in enumerate(sums)
        if j < len(terms)
    ]
    last_use = {id(x): step for step, (_, pair) in enumerate(order) for x in pair}
    transforms = {}

    def transform(x) -> np.ndarray:
        key = id(x)
        if key not in transforms:
            rows = basis.residues(x, norms[key].bit_length())
            transforms[key] = forward_rows(rows, basis.contexts)
        return transforms[key]

    acc = [None] * len(sums)
    for step, (s, (a, b)) in enumerate(order):
        product = transform(a) * transform(b) % basis._p
        if acc[s] is None:
            acc[s] = product
        else:
            acc[s] += product
        for x in (a, b):
            if last_use[id(x)] == step:
                transforms.pop(id(x), None)
    return [
        [0] * n
        if rows is None
        else basis.compose_centered_rows(
            inverse_rows(rows % basis._p, basis.contexts)
        )
        for rows in acc
    ]


def exact_negacyclic(a: list, b: list, n: int) -> list:
    """Exact negacyclic convolution ``a·b`` over Z: the one-pair product-sum."""
    return exact_negacyclic_sums([[(a, b)]], n)[0]
