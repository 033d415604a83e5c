"""Exact Laurent-polynomial arithmetic over the rationals.

A Laurent polynomial is stored as integer numerators over one positive
denominator: a sparse map ``{exponent: int}`` with no zero stored, and an
int ``_den``, in lowest terms (the gcd of the denominator and every
numerator is 1).  The form is unique, so structural equality is
mathematical equality and "is this residual the zero polynomial" is an
exact question; the ring operations run on integers and no coefficient is
a ``Fraction`` until ``coefficient`` or ``items`` hands it out.  On top of
the ring operations the module builds the associated Laguerre polynomials
with integer parameter, including the negative-parameter extension,
together with exact residuals for their defining second-order differential
equation and the parameter-shift ladder recurrences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Iterable, Mapping

RationalLike = int | Fraction


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients.

    Exponents may be negative.  Instances are treated as immutable: every
    operation returns a new object and nothing mutates ``_coeffs`` or
    ``_den`` after construction, which is what lets a polynomial hash by
    value and keep its dense Horner list once built.
    """

    __slots__ = ("_coeffs", "_den", "_dense", "_hash")

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        terms = {
            int(k): c if isinstance(c, (int, Fraction)) else Fraction(c)
            for k, c in (coeffs or {}).items()
            if c
        }
        # Each Fraction is in lowest terms, so over the lcm of their
        # denominators the numerators have no common factor with it.
        den = lcm(*(c.denominator for c in terms.values()))
        self._coeffs = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
        self._den = den
        self._dense: tuple[int, list[int]] | None = None
        self._hash: int | None = None

    # -- inspection --------------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self._coeffs.get(k, 0), self._den)

    def items(self) -> list[tuple[int, Fraction]]:
        """Terms in ascending exponent order."""
        return [(k, Fraction(c, self._den)) for k, c in sorted(self._coeffs.items())]

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else None

    def low_degree(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return min(self._coeffs) if self._coeffs else None

    def max_abs_coefficient(self) -> Fraction:
        return Fraction(max(map(abs, self._coeffs.values()), default=0), self._den)

    # -- ring operations ----------------------------------------------------

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        den = lcm(self._den, other._den)
        mine, theirs = den // self._den, sign * (den // other._den)
        out = {k: c * mine for k, c in self._coeffs.items()}
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c * theirs
        return _reduced({k: c for k, c in out.items() if c}, den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _raw({k: -c for k, c in self._coeffs.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict[int, int] = {}
            for k1, c1 in self._coeffs.items():
                for k2, c2 in other._coeffs.items():
                    k = k1 + k2
                    out[k] = out.get(k, 0) + c1 * c2
            return _reduced({k: c for k, c in out.items() if c}, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly()
            num, den = other.numerator, other.denominator
            return _reduced({k: c * num for k, c in self._coeffs.items()}, self._den * den)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x**k (k may be negative)."""
        if k == 0:
            return self
        return _raw({e + k: c for e, c in self._coeffs.items()}, self._den)

    def derivative(self) -> "LaurentPoly":
        """Exact formal derivative, term by term."""
        return _reduced({k - 1: k * c for k, c in self._coeffs.items() if k}, self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._den == other._den and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._coeffs.items())))
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
            return self.coefficient(0)
        acc = Fraction(0)
        for k in range(hi, lo - 1, -1):
            acc = acc * x + self._coeffs.get(k, 0)
        return acc * x**lo / self._den

    def ratio_at(self, x: float) -> tuple[int, int]:
        """Exact value at x as (numerator, positive denominator).

        A float is a dyadic rational m / 2**e, so over the dense integer
        numerators a_j of x**(lo + j), kept once per polynomial, the value is

            sum_j a_j m**j 2**(e (N - j)) * m**lo / (_den * 2**(e hi))

        with N = hi - lo: pure integer arithmetic, no rounding and no
        rational gcd on the way.  x = 0 (and any input that is not dyadic)
        goes through ``eval_exact``, the rational reference.  NaN raises
        ValueError and infinities OverflowError, as ``Fraction`` does.
        """
        m, d = (x if isinstance(x, float) else Fraction(x)).as_integer_ratio()
        if m == 0 or d & (d - 1):
            return self.eval_exact(Fraction(m, d)).as_integer_ratio()
        if not self._coeffs:
            return 0, 1
        if self._dense is None:
            lo, hi = min(self._coeffs), max(self._coeffs)
            # Descending powers, the order Horner consumes them in.
            self._dense = lo, [self._coeffs.get(k, 0) for k in range(hi, lo - 1, -1)]
        lo, ints = self._dense
        e = d.bit_length() - 1
        acc = 0
        shift = 0
        for a in ints:
            acc = acc * m + (a << shift)
            shift += e
        num, den = acc, self._den
        if lo > 0:
            num *= m**lo
        elif lo < 0:
            den *= m**-lo
        scale = e * (lo + len(ints) - 1)
        if scale >= 0:
            den <<= scale
        else:
            num <<= -scale
        return (-num, -den) if den < 0 else (num, den)

    def eval_float(self, x: float) -> float:
        """Evaluate at a float point.

        The exact value is computed in integer arithmetic and rounded once
        (integer true division rounds correctly), so there is no
        cancellation error even for high-degree oscillatory cores and the
        result is ``float(self.eval_exact(Fraction(x)))`` to the last bit.
        """
        num, den = self.ratio_at(x)
        return num / den

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Debug rendering: ascending powers, "c*x^k" terms joined by " + "."""
        if not self._coeffs:
            return "0"
        return " + ".join(f"{c}*x^{k}" for k, c in self.items())

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


def _raw(nums: dict[int, int], den: int) -> LaurentPoly:
    """A polynomial from numerators already in lowest terms over den > 0."""
    p = object.__new__(LaurentPoly)
    p._coeffs, p._den, p._dense, p._hash = nums, den, None, None
    return p


def _reduced(nums: dict[int, int], den: int) -> LaurentPoly:
    """A polynomial from nonzero numerators over den > 0, in lowest terms."""
    if den == 1:
        return _raw(nums, 1)
    g = gcd(den, *nums.values()) if nums else den
    if g != 1:
        nums, den = {k: c // g for k, c in nums.items()}, den // g
    return _raw(nums, den)


def combination(terms: Iterable[tuple[RationalLike, LaurentPoly, int]]) -> LaurentPoly:
    """Sum of scale * poly * x**shift over (scale, poly, shift) terms.

    One pass over one common denominator, the lcm of every term's scale
    denominator times its polynomial's, and one reduction at the end (Knuth,
    TAOCP Vol. 2, 4.5.1), where a chain of ``+``, ``-`` and scalar ``*``
    builds and reduces a polynomial per operation.  Scales are int or
    Fraction; zero scales and zero polynomials drop out.
    """
    parts = [
        (scale.numerator, scale.denominator * poly._den, poly._coeffs, shift)
        for scale, poly, shift in terms
        if scale and poly._coeffs
    ]
    den = lcm(*(d for _, d, _, _ in parts))
    out: dict[int, int] = {}
    for num, d, coeffs, shift in parts:
        factor = num * (den // d)
        for k, c in coeffs.items():
            k += shift
            out[k] = out.get(k, 0) + factor * c
    return _reduced({k: c for k, c in out.items() if c}, den)


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
    # Over n!, the coefficient of x**k is (-1)**k C(n+alpha, n-k) n!/k!.
    # That of x**n is (-1)**n, so the form is in lowest terms as built.
    nums: dict[int, int] = {}
    tail = 1  # n!/k!
    for k in range(n, -1, -1):
        if c := comb(n + alpha, n - k):
            nums[k] = -c * tail if k % 2 else c * tail
        tail *= k or 1
    return _raw(nums, tail)


def de_residual(n: int, alpha: int) -> LaurentPoly:
    """Residual of [x d^2/dx^2 + (1+alpha-x) d/dx + n] applied exactly.

    Zero for every valid index, including the negative-parameter extension.
    """
    p = laguerre(n, alpha)
    d1 = p.derivative()
    d2 = d1.derivative()
    return combination([(1, d2, 1), (1 + alpha, d1, 0), (-1, d1, 1), (n, p, 0)])


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
    raise_res = combination([(1, p, 0), (-1, d1, 0), (-1, laguerre(n, alpha + 1), 0)])
    lower_res = combination(
        [(1, d1, 1), (alpha, p, 0), (-(n + alpha), laguerre(n, alpha - 1), 0)]
    )
    return raise_res, lower_res


def three_term_residual(n: int, alpha: int) -> LaurentPoly:
    """Residual of (n+1)L_{n+1} - (2n+1+alpha-x)L_n + (n+alpha)L_{n-1}."""
    if n < 1:
        raise ValueError("three-term residual needs n >= 1")
    _validate_index(n - 1, alpha)
    cur = laguerre(n, alpha)
    return combination([
        (n + 1, laguerre(n + 1, alpha), 0),
        (-(2 * n + 1 + alpha), cur, 0),
        (1, cur, 1),
        (n + alpha, laguerre(n - 1, alpha), 0),
    ])
