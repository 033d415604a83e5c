"""Exact single radicals q*sqrt(s): q rational, s a squarefree positive integer.

In the integer gauge every normalised matrix element is c*sqrt(t!/s!), one
radical.  The operator algebra computes in integers and uses this module
only at its float boundary: an element is built here as the product of the
radicals of the label factors by which t and s differ, and then rounded.
The form q*sqrt(s) is unique, so the float does not depend on how the
element was built.
"""

from __future__ import annotations

import math
from fractions import Fraction


def float_sqrt(q: Fraction) -> float:
    """Faithfully rounded float of sqrt(q) for q >= 0.

    Works through one integer square root, so it neither overflows nor
    underflows prematurely: sqrt of a sub-subnormal rational still comes
    out as its representable square root.  The floored root carries at
    least 60 correct bits, so the result is one of the two floats around
    the true root; it is not proven to be the nearer one.
    """
    if q < 0:
        raise ValueError(f"cannot take sqrt of negative value {q}")
    if q == 0:
        return 0.0
    a, b = q.numerator, q.denominator
    # sqrt(a/b) = sqrt(a*b)/b; the scaled floor keeps >= 60 correct bits
    s = math.isqrt((a * b) << 120)
    return float(Fraction(s, b << 60))


def squarefree_split(k: int) -> tuple[int, int]:
    """Write k = outer**2 * inner with inner squarefree (k > 0).

    Trial division stops once d**3 exceeds what is left of k: every prime
    factor of the cofactor is then at least d, so it is 1, a prime, a
    product of two distinct primes or the square of a prime, which
    ``isqrt`` tells apart.
    """
    if k <= 0:
        raise ValueError(f"radicand must be positive (got {k})")
    outer, inner = 1, 1
    d = 2
    while d * d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                inner *= d
        d += 1 if d == 2 else 2
    root = math.isqrt(k)
    if root * root == k:
        return outer * root, inner
    return outer, inner * k


class SqrtSum:
    """Immutable radical q*sqrt(s) with s squarefree; zero is 0*sqrt(1).

    ``SqrtSum(q)`` is the rational q.  The constructor trusts that s is
    squarefree; ``sqrt`` and ``*`` keep that form without trial division
    of a product.
    """

    __slots__ = ("_q", "_s")

    def __init__(self, q: int | Fraction = 0, s: int = 1):
        self._q = Fraction(q)
        self._s = s if q else 1

    @staticmethod
    def sqrt(k) -> "SqrtSum":
        """Exact square root of a non-negative rational: sqrt(a/b) = sqrt(a*b)/b."""
        k = Fraction(k)
        if k < 0:
            raise ValueError(f"cannot take sqrt of negative value {k}")
        if k == 0:
            return SqrtSum()
        outer, inner = squarefree_split(k.numerator * k.denominator)
        return SqrtSum(Fraction(outer, k.denominator), inner)

    def __mul__(self, other):
        if isinstance(other, SqrtSum):
            # s1*s2 = g**2 * (s1/g) * (s2/g); coprime squarefree cofactors
            # leave a squarefree product.
            g = math.gcd(self._s, other._s)
            return SqrtSum(self._q * other._q * g, (self._s // g) * (other._s // g))
        if isinstance(other, (int, Fraction)):
            return SqrtSum(self._q * other, self._s)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, SqrtSum):
            return (self._q, self._s) == (other._q, other._s)
        return NotImplemented

    def __float__(self) -> float:
        return float(self._q) * math.sqrt(self._s)

    def __repr__(self) -> str:
        return f"{self._q}" if self._s == 1 else f"{self._q}*sqrt({self._s})"
