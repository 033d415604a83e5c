"""Gauss-Laguerre quadrature and inner products on the half line.

Nodes are roots of the order-n Laguerre polynomial, seeded by the
Golub-Welsch eigenvalues of the recurrence's Jacobi matrix and refined by
Newton steps on the exact coefficients; weights come from the standard
formula.  Inner products of carriers reduce to weight exp(-x) times an
exact polynomial, which an order-n rule integrates exactly through degree
2n - 1, so orthonormality checks are limited only by rounding in the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import Carrier, carrier_M, weightless_values
from .exactpoly import LaurentPoly, laguerre
from .radicals import float_sqrt

_MAX_ORDER = 200
_MAX_SAMPLES = 1024  # cached (carrier, rule) samples; see node_values
_SMALLEST_POSITIVE = 5e-324  # weights below double range are clamped here


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals of exp(-x) * f(x) over (0, inf)."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.nodes)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise RuntimeError("quadrature nodes are not strictly increasing")
        if any(w <= 0 for w in self.weights):
            raise RuntimeError("quadrature weights are not positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-13:
            raise RuntimeError("quadrature weights do not sum to 1")
        # Hashed once: every node_values lookup hashes its rule.
        object.__setattr__(self, "_hash", hash((self.nodes, self.weights)))

    def __hash__(self) -> int:
        return self._hash

    def integrate(self, f) -> float:
        return math.fsum(w * f(x) for x, w in zip(self.nodes, self.weights))


@lru_cache(maxsize=_MAX_ORDER, typed=True)
def gauss_laguerre(order: int) -> QuadratureRule:
    """Rule with the given node count, exact through degree 2*order - 1.

    Rules are immutable and built once per order: repeated calls return the
    same object.
    """
    if not isinstance(order, int) or not (1 <= order <= _MAX_ORDER):
        raise ValueError(f"order must be an integer in [1, {_MAX_ORDER}] (got {order!r})")
    poly = laguerre(order, 0)
    slope = poly.derivative()

    # Seeds: eigenvalues of the Jacobi matrix of the Laguerre recurrence
    # (Golub and Welsch, Math. Comp. 23 (1969) 221), ascending.
    k = np.arange(order, dtype=float)
    jacobi = np.zeros((order, order))
    jacobi.flat[:: order + 1] = 2 * k + 1
    jacobi.flat[1 :: order + 1] = jacobi.flat[order :: order + 1] = -k[1:]
    nodes: list[float] = []
    for i, z in enumerate(np.linalg.eigvalsh(jacobi).tolist()):
        # Newton on the exact coefficients until |dz| <= 1e-15 * z, in
        # integers: with z = m/d, p(z) = a/b and p'(z) = c/e (b, e > 0),
        # z - dz = (m b c - d a e) / (d b c), rounded once by int true
        # division as float(Fraction) would.  Quadratic convergence makes
        # the rounded result the true root to the last bit.  d and the
        # powers of two in b and e enter as shifts, less their common part.
        for _ in range(4):
            m, d = z.as_integer_ratio()
            a, b = poly.ratio_at(z)
            c, e = slope.ratio_at(z)
            (b, kb), (e, ke) = _odd_part(b), _odd_part(e)
            kd = d.bit_length() - 1
            low = min(kb, kd + ke)
            bc = (b * c) << (kb - low)
            ae = (a * e) << (kd + ke - low)
            done = abs(ae) * 10**15 <= m * abs(bc)
            z = (m * bc - ae) / (bc << kd)
            if done:
                break
        else:
            raise RuntimeError(f"exact refinement failed to converge at node {i}")
        nodes.append(z)

    # Weights by the standard formula z / ((n+1) L_{n+1}(z))**2, evaluated
    # exactly at the rounded node and rounded once: the formula's value
    # there, not the true weight, which also moves with the node's rounding.
    # True weights at the far nodes of very large rules sit below the double
    # floor; those are clamped to the smallest positive float (error <= 5e-324).
    # With b = odd << kb, the factor b*b / d is a shift by 2 kb - kd >= 0:
    # b carries at least d**(order + 1) (``ratio_at``).
    weights: list[float] = []
    above = laguerre(order + 1, 0)
    for z in nodes:
        m, d = z.as_integer_ratio()
        a, b = above.ratio_at(z)
        b, kb = _odd_part(b)
        num = (m * b * b) << (2 * kb - (d.bit_length() - 1))
        weights.append(max(num / ((order + 1) * a) ** 2, _SMALLEST_POSITIVE))
    return QuadratureRule(nodes=tuple(nodes), weights=tuple(weights))


def _odd_part(v: int) -> tuple[int, int]:
    """(u, k) with v = u << k and u odd, for v > 0."""
    k = (v & -v).bit_length() - 1
    return v >> k, k


@lru_cache(maxsize=_MAX_SAMPLES)
def node_values(c: Carrier, rule: QuadratureRule) -> np.ndarray:
    """`weightless_values` of the carrier on the rule's nodes, computed once.

    Keyed by the carrier and the rule by value: a rule built by hand with
    other nodes gets its own samples even at the same order.  The arrays are
    shared by every caller, so they are read-only.
    """
    values = weightless_values(c, rule.nodes)
    values.flags.writeable = False
    return values


def _require_order(rule: QuadratureRule, degree: int, what: str) -> None:
    """Refuse a rule that does not integrate exp(-x) * x**degree exactly."""
    need = degree // 2 + 1
    if rule.order < need:
        raise ValueError(f"rule order {rule.order} insufficient for {what}; need at least {need}")


def _top_degree(carriers: list[Carrier]) -> int:
    """Largest degree of x**half_power * core**2, a carrier's square without exp(-x)."""
    return max(c.half_power + 2 * (c.core.degree() or 0) for c in carriers)


def _integral(a: LaurentPoly, b: LaurentPoly, shift: int, rule: QuadratureRule) -> float:
    """Integral of exp(-x) * a * b * x**shift over (0, inf), refused where the rule is inexact.

    The product is never built: at each node the two factors are evaluated
    exactly (a square's factor once), and their product times x**shift is
    rounded once, which is the product polynomial's value there to the last
    bit.
    """
    if a.is_zero() or b.is_zero():
        return 0.0
    if a.low_degree() + b.low_degree() + shift < 0:
        raise ValueError("integrand is not polynomial (negative powers remain)")
    degree = a.degree() + b.degree() + shift
    _require_order(rule, degree, f"degree {degree}")

    def value(x: float) -> float:
        na, da = a.ratio_at(x)
        nb, db = (na, da) if b is a else b.ratio_at(x)
        m, d = x.as_integer_ratio()
        if shift < 0:
            m, d = d, m
        return na * nb * m ** abs(shift) / (da * db * d ** abs(shift))

    return rule.integrate(value)


def inner_product(a: Carrier, b: Carrier, rule: QuadratureRule) -> float:
    """Plain-measure inner product of two carriers.

    The product must reduce to exp(-x) times a true polynomial: the half
    powers must have even sum (otherwise the integrand carries sqrt(x) and
    the rule would silently approximate, so it is refused) and the rule must
    cover the combined degree.
    """
    combined = a.half_power + b.half_power
    if combined % 2:
        raise ValueError(
            "integrand contains sqrt(x) (odd combined half power); refusing to approximate"
        )
    integral = _integral(a.core, b.core, combined // 2, rule)
    scale = a.sign * b.sign * float_sqrt(a.norm_squared * b.norm_squared)
    return scale * integral


def weighted_inner_product(
    a: LaurentPoly, b: LaurentPoly, alpha: int, rule: QuadratureRule
) -> float:
    """Unnormalized inner product with weight x**alpha exp(-x)."""
    if alpha < 0:
        raise ValueError(f"weight exponent must be non-negative (got {alpha})")
    return _integral(a, b, alpha, rule)


def gram_matrix(alpha: int, nmax: int, rule: QuadratureRule) -> np.ndarray:
    """Gram matrix of the normalized family at fixed parameter alpha.

    Entry (n, m) is the inner product of members n and m for n, m from the
    first valid index through nmax; it should be the identity matrix.
    """
    n0 = max(0, -alpha)
    if nmax < n0:
        raise ValueError(f"nmax={nmax} below first valid index {n0} for alpha={alpha}")
    carriers = [carrier_M(k, k + alpha) for k in range(n0, nmax + 1)]
    _require_order(rule, _top_degree(carriers), "the family")
    values = np.vstack([node_values(c, rule) for c in carriers])
    w = np.array(rule.weights)
    return (values * w) @ values.T


def projection_convergence(
    target: Carrier, family_alpha: int, max_n: int, rule: QuadratureRule
) -> list[float]:
    """Residual norms of the target after projecting onto the first N members.

    Returns the residual for N = 0..max_n.  The residual function itself is
    accumulated on the nodes and its norm taken directly (subtracting squared
    norms would halve the attainable precision), so a target inside the span
    drops to rounding level, not its square root.  The sequence is
    non-increasing by orthogonality.
    """
    if (target.half_power - abs(family_alpha)) % 2:
        raise ValueError(
            "target parity does not match the family (odd half-power difference)"
        )
    n0 = max(0, -family_alpha)
    members = [carrier_M(k, k + family_alpha) for k in range(n0, max_n + 1)]
    _require_order(rule, _top_degree([target, *members]), "the projection")
    w = np.array(rule.weights)
    residual = node_values(target, rule)
    member_values = [node_values(c, rule) for c in members]
    residuals: list[float] = []
    for k in range(0, max_n + 1):
        if k >= n0:
            y = member_values[k - n0]
            coeff = float(np.dot(w * residual, y))
            residual = residual - coeff * y
        residuals.append(math.sqrt(max(float(np.dot(w, residual * residual)), 0.0)))
    return residuals
