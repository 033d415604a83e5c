"""Exact arithmetic on finite sums of rational multiples of square roots.

Values look like ``sum_s q_s * sqrt(s)`` with squarefree positive integer
radicands s and rational q_s.  Products reduce radicands exactly:
sqrt(6)*sqrt(6) is the integer 6.  The operator algebra computes in the
integer gauge and uses this ring only at its float boundary: a normalised
matrix element c*sqrt(t!/s!) takes its canonical form here and is rounded
once, so the float does not depend on how c was computed.
"""

from __future__ import annotations

import math
from fractions import Fraction


def float_sqrt(q: Fraction) -> float:
    """Correctly rounded-to-~1ulp float of sqrt(q) for q >= 0.

    Works through one integer square root, so it neither overflows nor
    underflows prematurely: sqrt of a sub-subnormal rational still comes
    out as its representable square root.
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
    """Write k = outer**2 * inner with inner squarefree (k > 0)."""
    if k <= 0:
        raise ValueError(f"radicand must be positive (got {k})")
    outer, inner = 1, 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                inner *= d
        d += 1 if d == 2 else 2
    return outer, inner * k


class SqrtSum:
    """Immutable element of the ring Q[sqrt(2), sqrt(3), sqrt(5), ...]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self._terms = {s: q for s, q in (terms or {}).items() if q}

    @staticmethod
    def of(q) -> "SqrtSum":
        q = Fraction(q)
        return SqrtSum({1: q} if q else {})

    @staticmethod
    def sqrt(k) -> "SqrtSum":
        """Exact square root of a non-negative rational: sqrt(a/b) = sqrt(a*b)/b."""
        k = Fraction(k)
        if k < 0:
            raise ValueError(f"cannot take sqrt of negative value {k}")
        if k == 0:
            return SqrtSum()
        outer, inner = squarefree_split(k.numerator * k.denominator)
        return SqrtSum({inner: Fraction(outer, k.denominator)})

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        if not isinstance(other, SqrtSum):
            return NotImplemented
        out = dict(self._terms)
        for s, q in other._terms.items():
            out[s] = out.get(s, Fraction(0)) + q
        return SqrtSum(out)

    def __sub__(self, other: "SqrtSum") -> "SqrtSum":
        if not isinstance(other, SqrtSum):
            return NotImplemented
        out = dict(self._terms)
        for s, q in other._terms.items():
            out[s] = out.get(s, Fraction(0)) - q
        return SqrtSum(out)

    def __neg__(self) -> "SqrtSum":
        return SqrtSum({s: -q for s, q in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, SqrtSum):
            out: dict[int, Fraction] = {}
            for s, q in self._terms.items():
                for t, r in other._terms.items():
                    outer, inner = squarefree_split(s * t)
                    out[inner] = out.get(inner, Fraction(0)) + q * r * outer
            return SqrtSum(out)
        if isinstance(other, (int, Fraction)):
            return SqrtSum({s: q * other for s, q in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    # -- inspection -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SqrtSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == SqrtSum.of(other)._terms
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return all(s == 1 for s in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"value is irrational: {self!r}")
        return self._terms[1]

    def __float__(self) -> float:
        return math.fsum(float(q) * math.sqrt(s) for s, q in sorted(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            f"{q}" if s == 1 else f"{q}*sqrt({s})" for s, q in sorted(self._terms.items())
        )
