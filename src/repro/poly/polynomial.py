"""Ring elements of ``R_q = Z_q[x] / (x^n + 1)``.

:class:`Polynomial` is the coefficient-domain representation used by
the functional BFV scheme. Coefficients are Python ints (the 109-bit
security level does not fit native words), stored reduced to
``[0, q)``: the public constructor reduces what it is given, while the
ring operations, which reduce their own results, store them as they
are.

Negacyclic multiplication needs the *exact* integer product before
modular reduction in two places: BFV ciphertext multiplication scales
the tensor product by ``t/q`` over the rationals, and noise analysis
reasons over ``Z``. :func:`negacyclic_sums` therefore computes sums
of products exactly over the integers — schoolbook for small degrees,
and for large ones the RNS product-sum of
:func:`repro.poly.rns.exact_negacyclic_sums`: negacyclic NTTs over a
basis of 30-bit primes, each operand transformed once and each sum
added in the NTT domain, recombined by CRT (the standard
multiprecision convolution technique; both paths are cross-checked in
the tests). :func:`negacyclic_convolve` is its one-pair case.
"""

from __future__ import annotations

import numbers

from repro.errors import ParameterError
from repro.poly.rns import exact_negacyclic_sums

#: Degrees at or below this use schoolbook convolution; above, RNS-NTT.
#: 64 keeps the crossover comfortably inside the regime where Python
#: schoolbook is still fast, while every paper-sized ring (1024–4096)
#: takes the O(n log n) path.
SCHOOLBOOK_MAX_DEGREE = 64


def _schoolbook_negacyclic(a: list, b: list, n: int) -> list:
    """Exact negacyclic convolution over Z, O(n^2)."""
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            k = i + j
            term = ai * bj
            if k < n:
                out[k] += term
            else:
                out[k - n] -= term  # x^n == -1
    return out


def negacyclic_sums(sums: list, n: int) -> list:
    """Exact sums of products ``Σ a·b`` mod ``x^n + 1``, over Z.

    ``sums`` is a list of sums, each a list of ``(a, b)`` pairs of
    integer coefficient lists of length ``n`` (signed ints allowed);
    the result holds each sum's exact signed coefficients. Above
    :data:`SCHOOLBOOK_MAX_DEGREE` this is
    :func:`repro.poly.rns.exact_negacyclic_sums`, which transforms each
    distinct operand once and adds every sum in the NTT domain.
    """
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"ring degree must be a power of two: {n}")
    for terms in sums:
        for a, b in terms:
            if len(a) != n or len(b) != n:
                raise ParameterError(
                    f"operands must have length {n}, got {len(a)} and {len(b)}"
                )
    if n > SCHOOLBOOK_MAX_DEGREE:
        return exact_negacyclic_sums(sums, n)
    out = []
    for terms in sums:
        total = [0] * n
        for a, b in terms:
            total = [x + y for x, y in zip(total, _schoolbook_negacyclic(a, b, n))]
        out.append(total)
    return out


def negacyclic_convolve(a: list, b: list, n: int) -> list:
    """Exact product of two integer polynomials mod ``x^n + 1``, over Z.

    Inputs are coefficient lists of length ``n`` (signed ints allowed);
    the result is the exact signed integer convolution — no modular
    reduction is applied, so the caller can scale or reduce as the
    scheme requires. It is the one-pair case of :func:`negacyclic_sums`.
    """
    return negacyclic_sums([[(a, b)]], n)[0]


class Polynomial:
    """An element of ``Z_q[x] / (x^n + 1)``, coefficients in ``[0, q)``.

    Immutable by convention: all operations return new instances.
    Equality and hashing follow the (coefficients, modulus) value.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: int):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        coeffs = tuple([int(c) % modulus for c in coeffs])
        n = len(coeffs)
        if n == 0 or n & (n - 1):
            raise ParameterError(
                f"ring degree must be a nonzero power of two, got {n}"
            )
        self.coeffs = coeffs
        self.modulus = modulus

    # -- constructors ---------------------------------------------------

    @classmethod
    def _reduced(cls, coeffs: tuple, modulus: int) -> "Polynomial":
        """Wrap a tuple already reduced into ``[0, modulus)``, unchecked.

        Only the ring operations below use it, each on values it has
        just reduced itself.
        """
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        poly.modulus = modulus
        return poly

    @classmethod
    def zero(cls, n: int, modulus: int) -> "Polynomial":
        """The additive identity of ``R_q`` with degree bound ``n``."""
        return cls([0] * n, modulus)

    @classmethod
    def from_signed(cls, coeffs, modulus: int) -> "Polynomial":
        """Build from signed coefficients (reduced into ``[0, q)``)."""
        return cls(coeffs, modulus)

    # -- basic protocol -------------------------------------------------

    @property
    def degree_bound(self) -> int:
        """The ring degree ``n`` (number of coefficient slots)."""
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.modulus))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if len(self.coeffs) > 4 else ""
        return (
            f"Polynomial(n={len(self.coeffs)}, "
            f"q~2^{self.modulus.bit_length()}, [{head}{tail}])"
        )

    def _check_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise ParameterError(f"expected Polynomial, got {type(other)}")
        if self.modulus != other.modulus:
            raise ParameterError("polynomial moduli differ")
        if len(self.coeffs) != len(other.coeffs):
            raise ParameterError("polynomial degrees differ")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.modulus
        return Polynomial._reduced(
            tuple([(x + y) % q for x, y in zip(self.coeffs, other.coeffs)]), q
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.modulus
        return Polynomial._reduced(
            tuple([(x - y) % q for x, y in zip(self.coeffs, other.coeffs)]), q
        )

    def __neg__(self) -> "Polynomial":
        q = self.modulus
        return Polynomial._reduced(tuple([(-x) % q for x in self.coeffs]), q)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, numbers.Integral):
            return self.scalar_mul(other)
        self._check_compatible(other)
        product = negacyclic_convolve(
            list(self.coeffs), list(other.coeffs), len(self.coeffs)
        )
        return Polynomial(product, self.modulus)

    __rmul__ = __mul__

    def scalar_mul(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by an integer scalar (mod q)."""
        q = self.modulus
        s = int(scalar) % q
        return Polynomial._reduced(tuple([c * s % q for c in self.coeffs]), q)

    # -- representation helpers ------------------------------------------

    def centered(self) -> list:
        """Coefficients lifted to the centered range ``(-q/2, q/2]``.

        The centered lift is what decryption rounds and what noise
        analysis measures.
        """
        q = self.modulus
        half = q // 2
        return [c - q if c > half else c for c in self.coeffs]

    def infinity_norm(self) -> int:
        """Max absolute value of the centered coefficients."""
        return max((abs(c) for c in self.centered()), default=0)

    def lift_centered_to(self, new_modulus: int) -> "Polynomial":
        """Re-reduce the centered representative modulo a new modulus."""
        return Polynomial(self.centered(), new_modulus)
