"""Exact Laurent-polynomial arithmetic over the rationals.

A Laurent polynomial is a sparse map ``{exponent: Fraction}`` in which zero
coefficients are never stored, so structural equality is mathematical
equality and "is this residual the zero polynomial" is an exact question.
On top of the ring operations the module builds the associated Laguerre
polynomials with integer parameter, including the negative-parameter
extension, together with exact residuals for their defining second-order
differential equation and the parameter-shift ladder recurrences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Mapping

RationalLike = int | Fraction


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients.

    Exponents may be negative.  Instances are treated as immutable: every
    operation returns a new object and nothing mutates ``_coeffs`` after
    construction, which is what lets a polynomial hash by value and keep its
    integer Horner evaluator once built.
    """

    __slots__ = ("_coeffs", "_horner", "_hash")

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    clean[int(k)] = c
        self._coeffs = clean
        self._horner: _Horner | None = None
        self._hash: int | None = None

    # -- inspection --------------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        return self._coeffs.get(k, Fraction(0))

    def items(self) -> list[tuple[int, Fraction]]:
        """Terms in ascending exponent order."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else None

    def low_degree(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return min(self._coeffs) if self._coeffs else None

    def max_abs_coefficient(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return max(abs(c) for c in self._coeffs.values())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out[k] + c if k in out else c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out[k] - c if k in out else -c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict[int, Fraction] = {}
            for k1, c1 in self._coeffs.items():
                for k2, c2 in other._coeffs.items():
                    k = k1 + k2
                    out[k] = out[k] + c1 * c2 if k in out else c1 * c2
            return LaurentPoly(out)
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({k: c * other for k, c in self._coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x**k (k may be negative)."""
        if k == 0:
            return self
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        """Exact formal derivative, term by term."""
        return LaurentPoly({k - 1: k * c for k, c in self._coeffs.items() if k != 0})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, x: RationalLike) -> Fraction:
        """Horner evaluation in exact rational arithmetic."""
        x = Fraction(x)
        if not self._coeffs:
            return Fraction(0)
        lo = min(self._coeffs)
        hi = max(self._coeffs)
        if x == 0:
            if lo < 0:
                raise ZeroDivisionError("Laurent polynomial with negative powers at x = 0")
            return self._coeffs.get(0, Fraction(0))
        acc = Fraction(0)
        for k in range(hi, lo - 1, -1):
            acc = acc * x + self._coeffs.get(k, Fraction(0))
        return acc * x**lo

    def _ratio_at(self, x: float) -> tuple[int, int]:
        """Exact value at x as (numerator, positive denominator).

        Floats are dyadic rationals, so the integer Horner evaluator built
        once per polynomial gives the exact value; x = 0 (and any input that
        is not dyadic) goes through ``eval_exact``, the rational reference.
        NaN raises ValueError and infinities OverflowError, as ``Fraction``
        does.
        """
        num, den = (x if isinstance(x, float) else Fraction(x)).as_integer_ratio()
        if num == 0 or den & (den - 1):
            return self.eval_exact(Fraction(num, den)).as_integer_ratio()
        if not self._coeffs:
            return 0, 1
        if self._horner is None:
            self._horner = _Horner(self._coeffs)
        return self._horner.ratio_at(num, den.bit_length() - 1)

    def exact_at(self, x: float) -> Fraction:
        """Exact rational value at a float point."""
        return Fraction(*self._ratio_at(x))

    def eval_float(self, x: float) -> float:
        """Evaluate at a float point.

        The exact value is computed in integer arithmetic and rounded once
        (integer true division rounds correctly), so there is no
        cancellation error even for high-degree oscillatory cores and the
        result is ``float(self.eval_exact(Fraction(x)))`` to the last bit.
        """
        num, den = self._ratio_at(x)
        return num / den

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Debug rendering: ascending powers, "c*x^k" terms joined by " + "."""
        if not self._coeffs:
            return "0"
        return " + ".join(f"{c}*x^{k}" for k, c in self.items())

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


class _Horner:
    """Integer Horner evaluation of one nonzero Laurent polynomial.

    The coefficients are cleared to a common integer denominator once, so
    at x = m / 2**e the exact value is

        sum_j a_j m**j 2**(e (N - j)) * m**lo / (denom * 2**(e hi))

    with a_j the integer coefficient of x**(lo + j) and N = hi - lo: pure
    integer arithmetic, no rounding and no rational gcd on the way.
    """

    __slots__ = ("lo", "hi", "denom", "ints")

    def __init__(self, coeffs: dict[int, Fraction]):
        self.lo, self.hi = min(coeffs), max(coeffs)
        self.denom = lcm(*(c.denominator for c in coeffs.values()))
        zero = Fraction(0)
        # Descending powers, the order Horner consumes them in.
        self.ints = [
            (coeffs.get(k, zero) * self.denom).numerator
            for k in range(self.hi, self.lo - 1, -1)
        ]

    def ratio_at(self, m: int, e: int) -> tuple[int, int]:
        """Exact value at m / 2**e (m != 0) as (numerator, denominator > 0)."""
        acc = 0
        shift = 0
        for a in self.ints:
            acc = acc * m + (a << shift)
            shift += e
        num, den = acc, self.denom
        if self.lo > 0:
            num *= m**self.lo
        elif self.lo < 0:
            den *= m**-self.lo
        scale = e * self.hi
        if scale >= 0:
            den <<= scale
        else:
            num <<= -scale
        return (-num, -den) if den < 0 else (num, den)


def _validate_index(n: int, alpha: int) -> None:
    if not isinstance(n, int) or not isinstance(alpha, int):
        raise ValueError(f"indices must be integers (got n={n!r}, alpha={alpha!r})")
    if n < 0:
        raise ValueError(f"n must be non-negative (got n={n})")
    if n + alpha < 0:
        raise ValueError(f"n + alpha must be non-negative (got n={n}, alpha={alpha})")


@lru_cache(maxsize=None)
def laguerre(n: int, alpha: int) -> LaurentPoly:
    """Exact associated Laguerre polynomial with integer parameter.

    Closed form (Abramowitz & Stegun 22.3.9): the coefficient of x**k is
    (-1)**k * C(n+alpha, n-k) / k!.  The binomial vanishes for k < -alpha,
    so the same line gives the negative-parameter extension (valid for
    n + alpha >= 0), whose lowest-order term sits at degree -alpha.
    """
    _validate_index(n, alpha)
    return LaurentPoly(
        {k: Fraction((-1) ** k * comb(n + alpha, n - k), factorial(k)) for k in range(n + 1)}
    )


def de_residual(n: int, alpha: int) -> LaurentPoly:
    """Residual of [x d^2/dx^2 + (1+alpha-x) d/dx + n] applied exactly.

    Zero for every valid index, including the negative-parameter extension.
    """
    p = laguerre(n, alpha)
    d1 = p.derivative()
    d2 = d1.derivative()
    return d2.shift(1) + (1 + alpha) * d1 - d1.shift(1) + n * p


def alpha_ladder_check(n: int, alpha: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Residuals of the two parameter-shift ladder identities.

    Raising: [-d/dx + 1] L_n(alpha) - L_n(alpha+1).
    Lowering: [x d/dx + alpha] L_n(alpha) - (n+alpha) L_n(alpha-1); this
    side needs n + alpha - 1 >= 0 and raises a ValueError outside that
    range.  Both residuals are the zero polynomial on valid input.
    """
    _validate_index(n, alpha)
    if n + (alpha - 1) < 0:
        raise ValueError(
            f"lowering identity needs n + alpha - 1 >= 0 (got n={n}, alpha={alpha})"
        )
    p = laguerre(n, alpha)
    d1 = p.derivative()
    raise_res = (p - d1) - laguerre(n, alpha + 1)
    lower_res = d1.shift(1) + alpha * p - (n + alpha) * laguerre(n, alpha - 1)
    return raise_res, lower_res


def three_term_residual(n: int, alpha: int) -> LaurentPoly:
    """Residual of (n+1)L_{n+1} - (2n+1+alpha-x)L_n + (n+alpha)L_{n-1}."""
    if n < 1:
        raise ValueError("three-term residual needs n >= 1")
    _validate_index(n - 1, alpha)
    cur = laguerre(n, alpha)
    return (
        (n + 1) * laguerre(n + 1, alpha)
        - (2 * n + 1 + alpha) * cur
        + cur.shift(1)
        + (n + alpha) * laguerre(n - 1, alpha)
    )
