"""Normalized carrier functions on the half line.

A carrier is the exact symbolic form of a normalized basis function

    sign * sqrt(norm_squared) * x**(half_power/2) * exp(-x/2) * core(x)

with ``core`` an exact Laurent polynomial and ``norm_squared`` an exact
positive rational.  Square roots are taken only at evaluation time, so all
identity checking upstream stays in exact arithmetic.

Two index conventions are supported: the two-label family ``carrier_M(n, p)``
(the parameter of the underlying Laguerre polynomial is p - n) and the
single-spin relabelling ``carrier_L(j, m)`` with n = j + m, p = j - m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from typing import Iterable, NamedTuple

import numpy as np

from .exactpoly import LaurentPoly, combination, laguerre
from .radicals import float_sqrt


class BasisIndex(NamedTuple):
    """Label pair for the two-label basis; both entries are >= 0."""

    n: int
    p: int


@dataclass(frozen=True)
class Carrier:
    """Exact symbolic basis function.

    ``label`` records which (n, p) the carrier was built for and is not part
    of equality: two carriers are equal when they are the same function with
    the same sign.  Canonically constructed carriers have half_power >= 0;
    symbolic derivatives may go negative (they are only evaluated at x > 0).
    """

    sign: int
    norm_squared: Fraction
    half_power: int
    core: LaurentPoly
    label: BasisIndex | None = field(default=None, compare=False)

    # Both on first use: a carrier that is only compared exactly (as the
    # differential images of label-diff-consistency are) never pays for them.
    @cached_property
    def _norm(self) -> float:
        """One exact square root per carrier, not per evaluated point."""
        return self.sign * float_sqrt(self.norm_squared)

    @cached_property
    def _hash(self) -> int:
        """Hashed once: every node_values lookup hashes its carrier."""
        return hash((self.sign, self.norm_squared, self.half_power, self.core))

    def __hash__(self) -> int:
        return self._hash

    def norm_factor(self) -> float:
        return self._norm


@lru_cache(maxsize=256, typed=True)
def carrier_M(n: int, p: int) -> Carrier:
    """Normalized two-label basis function in canonical form.

    For p >= n this is sqrt(n!/p!) x**((p-n)/2) exp(-x/2) L_n(p-n).  For
    p < n the negative-parameter extension is folded in, which flips the
    overall sign by (-1)**(n-p) and swaps the roles of the labels, so the
    stored half power is always non-negative.
    """
    if not (isinstance(n, int) and isinstance(p, int)) or n < 0 or p < 0:
        raise ValueError(f"labels must be non-negative integers (got n={n!r}, p={p!r})")
    lo, hi = (n, p) if n <= p else (p, n)
    sign = 1 if (n - p) % 2 == 0 or n <= p else -1
    return Carrier(
        sign=sign,
        norm_squared=Fraction(factorial(lo), factorial(hi)),
        half_power=hi - lo,
        core=laguerre(lo, hi - lo),
        label=BasisIndex(n, p),
    )


def carrier_L(j, m) -> Carrier:
    """Spin-labelled carrier: requires j+m and j-m to be non-negative integers.

    Half-integer j, m are accepted as long as the two combinations are
    integral (plane modes later restrict to integer j, m).
    """
    j = Fraction(j)
    m = Fraction(m)
    n = j + m
    p = j - m
    if n.denominator != 1 or p.denominator != 1 or n < 0 or p < 0:
        raise ValueError(
            f"j+m and j-m must be non-negative integers (got j={j}, m={m})"
        )
    return carrier_M(int(n), int(p))


@lru_cache(maxsize=256)
def derived_core(half_power: int, core: LaurentPoly) -> LaurentPoly:
    """Core of d/dx [x**(half_power/2) exp(-x/2) core(x)], same outer factors.

    The product rule gives (half_power/2) x**-1 core - core/2 + core', kept
    as a Laurent polynomial so repeated differentiation stays exact.  Results
    are cached, so pointwise derivative evaluation reuses one derived core
    (and its integer evaluator) for every point; `verify --suite all` needs
    182 distinct keys.
    """
    return combination([
        (1, core.derivative(), 0),
        (Fraction(-1, 2), core, 0),
        (Fraction(half_power, 2), core, -1),
    ])


def _value(c: Carrier, core: LaurentPoly, x: float) -> float:
    """The carrier's outer factors times ``core``, at x > 0."""
    return c.norm_factor() * x ** (c.half_power / 2) * math.exp(-x / 2) * core.eval_float(x)


def evaluate(c: Carrier, x: float) -> float:
    """Pointwise value of the carrier.

    x = 0 is allowed for canonical carriers: the value is 0 when the half
    power is positive and core(0) times the normalization when it is zero.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative (got {x})")
    if x == 0:
        if c.half_power > 0:
            return 0.0
        if c.half_power < 0 or (c.core.low_degree() or 0) < 0:
            raise ValueError("carrier is singular at x = 0")
        return c.norm_factor() * float(c.core.coefficient(0))
    return _value(c, c.core, x)


def weightless_values(c: Carrier, xs: Iterable[float]) -> np.ndarray:
    """Values of the carrier on the nodes with the exp(-x/2) factor stripped.

    With the half weight removed, products of two of these against a
    Gauss-Laguerre rule's exp(-x) weight reproduce plain-measure inner
    products exactly.
    """
    scale = c.norm_factor()
    return np.array([scale * x ** (c.half_power / 2) * c.core.eval_float(x) for x in xs])


def evaluate_derivative(c: Carrier, x: float, order: int = 1) -> float:
    """Evaluate the first or second derivative of the carrier at x > 0.

    The derivative is taken symbolically (product rule over the power, the
    exponential and the core) and only then evaluated; no finite differences.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2 (got {order})")
    if x <= 0:
        raise ValueError(f"x must be positive (got {x})")
    core = derived_core(c.half_power, c.core)
    if order == 2:
        core = derived_core(c.half_power, core)
    return _value(c, core, x)
