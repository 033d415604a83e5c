"""Orthonormal modes on the plane and their spin-ladder operators.

The mode with angular index m and total index j is exp(i m phi) times the
radial carrier evaluated at r**2.  A polar grid pairs half-line quadrature
nodes in x = r**2 (so radial integrals against 2 r dr collapse to the exact
half-line rule) with a uniform power-of-two angular grid (so the angular
average of exp(i d phi) is exactly delta for |d| below the node count).
Decomposition, synthesis and the phase-dressed ladder action on mode
amplitudes live here.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import opalgebra
from .basis import BasisIndex, Carrier, carrier_M, evaluate, evaluate_derivative
from .opalgebra import OperatorName
from .quadrature import QuadratureRule, gauss_laguerre, node_values


class ModeIndex(NamedTuple):
    """Mode label with integer j >= 0 and |m| <= j."""

    j: int
    m: int


def _check_mode(idx: ModeIndex) -> ModeIndex:
    j, m = idx
    if not (isinstance(j, int) and isinstance(m, int)) or j < 0 or abs(m) > j:
        raise ValueError(f"mode index needs integer j >= 0 and |m| <= j (got j={j!r}, m={m!r})")
    return ModeIndex(j, m)


def modes_up_to(jmax: int) -> list[ModeIndex]:
    return [ModeIndex(j, m) for j in range(jmax + 1) for m in range(-j, j + 1)]


@dataclass(frozen=True)
class PolarGrid:
    """Product grid: half-line rule in x = r**2 times uniform angles."""

    rule: QuadratureRule
    angular_count: int

    def __post_init__(self):
        q = self.angular_count
        if q < 1 or q & (q - 1):
            raise ValueError(f"angular count must be a power of two (got {q})")

    @staticmethod
    def build(radial_order: int, angular_count: int) -> "PolarGrid":
        return PolarGrid(rule=gauss_laguerre(radial_order), angular_count=angular_count)

    @property
    def radial_x(self) -> tuple[float, ...]:
        return self.rule.nodes

    @property
    def radial_nodes(self) -> tuple[float, ...]:
        return tuple(math.sqrt(x) for x in self.rule.nodes)

    @property
    def radial_weights(self) -> tuple[float, ...]:
        return self.rule.weights

    @property
    def angular_nodes(self) -> tuple[float, ...]:
        q = self.angular_count
        return tuple(-math.pi + 2 * math.pi * k / q for k in range(q))

    def require_support(self, jmax: int) -> None:
        """Modes through jmax integrate exactly only on a big enough grid."""
        if jmax < 0:
            raise ValueError(f"jmax must be non-negative (got {jmax})")
        radial_need = jmax + 1
        if self.rule.order < radial_need:
            raise ValueError(
                f"radial order {self.rule.order} insufficient for jmax={jmax}; "
                f"need at least {radial_need}"
            )
        if self.angular_count <= 2 * jmax:
            raise ValueError(
                f"{self.angular_count} angular nodes insufficient for jmax={jmax}; "
                f"need more than {2 * jmax}"
            )


@dataclass
class Field2D:
    """Complex samples on a polar grid, radial-major: values[k, q]."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.rule.order, self.grid.angular_count)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != expected:
            raise ValueError(
                f"sample array has shape {self.values.shape}, grid wants {expected}"
            )
        if not np.isfinite(self.values).all():
            k, q = np.argwhere(~np.isfinite(self.values))[0]
            r, phi = self.grid.radial_nodes[k], self.grid.angular_nodes[q]
            raise ValueError(f"the sample at the grid node r={r!r}, phi={phi!r} is not finite")


@dataclass
class ModeCoefficients:
    """Sparse complex amplitudes per mode, truncated at jmax."""

    coeffs: dict[ModeIndex, complex]
    jmax: int

    def __post_init__(self):
        clean: dict[ModeIndex, complex] = {}
        for idx, amp in self.coeffs.items():
            idx = _check_mode(ModeIndex(*idx))
            if idx.j > self.jmax:
                raise ValueError(f"mode {tuple(idx)} exceeds jmax={self.jmax}")
            if not cmath.isfinite(amp):
                raise ValueError(f"mode (j={idx.j}, m={idx.m}) has a non-finite amplitude {amp!r}")
            if amp:
                clean[idx] = complex(amp)
        self.coeffs = clean

    def get(self, j: int, m: int) -> complex:
        return self.coeffs.get(ModeIndex(j, m), 0j)

    def power(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.coeffs.values())

    def max_abs_diff(self, other: "ModeCoefficients") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max(
            (abs(self.coeffs.get(k, 0j) - other.coeffs.get(k, 0j)) for k in keys),
            default=0.0,
        )

    def sorted_items(self) -> list[tuple[ModeIndex, complex]]:
        return sorted(self.coeffs.items())


def radial_carrier(idx: ModeIndex) -> Carrier:
    j, m = _check_mode(idx)
    return carrier_M(j + m, j - m)


def eval_Z(idx: ModeIndex, r: float, phi: float) -> complex:
    """Mode value at polar point (r, phi)."""
    idx = _check_mode(ModeIndex(*idx))
    if r < 0:
        raise ValueError(f"r must be non-negative (got {r})")
    x = r * r
    if math.isinf(x):
        return 0j  # the exp(-r**2 / 2) factor has long underflowed
    return cmath.exp(1j * idx.m * phi) * evaluate(radial_carrier(idx), x)


def _radial_terms(idx: ModeIndex, r: float) -> tuple[float, ...]:
    """The five signed terms of the radial equation at r > 0, in summation order.

    d^2/dr^2, (1/r) d/dr, -4 m^2/r^2, -r^2 and 4(j + 1/2) applied to the
    radial profile through exact chain-rule derivatives of the carrier in
    x = r**2: d/dr = 2r d/dx, d^2/dr^2 = 2 d/dx + 4 r^2 d^2/dx^2.
    """
    idx = _check_mode(ModeIndex(*idx))
    if r <= 0:
        raise ValueError(f"r must be positive (got {r})")
    c = radial_carrier(idx)
    x = r * r
    g = evaluate(c, x)
    g1 = evaluate_derivative(c, x, 1)
    g2 = evaluate_derivative(c, x, 2)
    return (
        2 * g1 + 4 * x * g2,
        2 * g1,
        -((4 * idx.m**2 / x) * g),
        -(x * g),
        4 * (idx.j + 0.5) * g,
    )


def radial_de_relative(idx: ModeIndex, r: float) -> float:
    """Residual of the radial equation at r > 0, relative to its largest term.

    The residual is the sum of `_radial_terms`, so the result is
    rounding-level, not truncation-level.
    """
    terms = _radial_terms(idx, r)
    # Plain left-to-right addition: the builtin sum compensates on Python 3.12+.
    return abs(reduce(operator.add, terms)) / max(abs(term) for term in terms)


def radial_samples(modes: list[ModeIndex], grid: PolarGrid) -> list[np.ndarray]:
    """`node_values` of each mode's radial carrier on the radial rule.

    (j, m) and (j, -m) share one array: n - p = 2m is even, so the label
    swap carries sign +1, and carrier equality ignores the label.
    """
    return [node_values(radial_carrier(idx), grid.rule) for idx in modes]


def gram_2d(jmax: int, grid: PolarGrid) -> np.ndarray:
    """Gram matrix of all modes through jmax; should be the identity.

    Entry (a, b) is the discretized plane inner product of modes a and b,
    conjugate on the first: the radial rule's sum of their carriers (the
    exp(-x/2) factors pair into the rule's exp(-x) weight, so it is the
    exact polynomial integral) times the angular average of
    exp(i (m_b - m_a) phi), which is exactly 1 for equal m and 0 otherwise
    (|m_b - m_a| <= 2 jmax is below the angular node count).
    """
    grid.require_support(jmax)
    modes = modes_up_to(jmax)
    values = np.vstack(radial_samples(modes, grid))
    w = np.array(grid.radial_weights)
    radial = (values * w) @ values.T
    ms = np.array([idx.m for idx in modes])
    return np.where(ms[:, None] == ms, radial, 0.0).astype(complex)


def decompose(fld: Field2D, jmax: int) -> ModeCoefficients:
    """Mode amplitudes of a sampled field through jmax.

    Angular part by direct discrete Fourier summation over the uniform
    angle nodes, radial part by the half-line rule in x = r**2.
    """
    grid = fld.grid
    grid.require_support(jmax)
    q = grid.angular_count
    phis = np.array(grid.angular_nodes)
    x = np.array(grid.radial_x)
    # Half of the rule's exp(-x) weight cancels the mode's own exponential;
    # the other half belongs to the sampled field.
    w = np.array(grid.radial_weights) * np.exp(x / 2)
    # All 2 jmax + 1 angular sums as one product with the (angle x m) phases.
    ms = np.arange(-jmax, jmax + 1)
    fourier = fld.values @ np.exp(-1j * np.outer(phis, ms)) / q
    modes = modes_up_to(jmax)
    coeffs = {
        idx: complex(np.dot(w * radial, fourier[:, idx.m + jmax]))
        for idx, radial in zip(modes, radial_samples(modes, grid))
    }
    return ModeCoefficients(coeffs=coeffs, jmax=jmax)


def reconstruct(coeffs: ModeCoefficients, grid: PolarGrid) -> Field2D:
    """Sample the mode sum on the grid; inverse of decompose on its span."""
    values = np.zeros((grid.rule.order, grid.angular_count), dtype=complex)
    phis = np.array(grid.angular_nodes)
    damp = np.exp(-np.array(grid.radial_x) / 2)
    items = coeffs.sorted_items()
    # A sum beyond the float range is named by its grid node, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for (idx, amp), radial in zip(items, radial_samples([idx for idx, _ in items], grid)):
            values += amp * np.outer(radial * damp, np.exp(1j * idx.m * phis))
    return Field2D(grid=grid, values=values)


# The spin triple (J3, J+, J-).
_MODE_OPERATORS = opalgebra.SL2_TRIPLES["Csu2"][:3]


# Plane modes are the two-label states relabelled by (n, p) = (j+m, j-m), so
# the spin ladder acts on amplitudes through the label action of opalgebra.
def _labels(coeffs: ModeCoefficients) -> dict[BasisIndex, complex]:
    return {BasisIndex(j + m, j - m): amp for (j, m), amp in coeffs.coeffs.items()}


def _modes(terms: dict[BasisIndex, complex], jmax: int) -> ModeCoefficients:
    return ModeCoefficients(
        coeffs={ModeIndex((n + p) // 2, (n - p) // 2): amp for (n, p), amp in terms.items()},
        jmax=jmax,
    )


def apply_mode_operator(op: OperatorName, coeffs: ModeCoefficients) -> ModeCoefficients:
    """Phase-dressed ladder action on amplitudes.

    The diagonal operator scales by m; the shifts move m by one with the
    spin matrix element, annihilating at the band edges.
    """
    if op not in _MODE_OPERATORS:
        raise ValueError(f"operator {op.value} does not act on mode amplitudes")
    return _modes(opalgebra.apply_label(op, _labels(coeffs)), coeffs.jmax)


def mode_casimir(coeffs: ModeCoefficients) -> ModeCoefficients:
    """Diagonal squared plus half the ladder anticommutator, exactly.

    The spin Casimir of the label algebra is an exact rational on each
    state, so single modes scale by exactly j(j+1).
    """
    out = {
        label: amp * float(opalgebra.casimir_eigenvalue("Csu2", label))
        for label, amp in _labels(coeffs).items()
    }
    return _modes(out, coeffs.jmax)


def mode_commutator(
    opA: OperatorName, opB: OperatorName, coeffs: ModeCoefficients
) -> ModeCoefficients:
    """(opA opB - opB opA) on amplitudes with exact element products.

    Matrix elements multiply exactly before any float conversion, so the
    spin commutators hold bit-exactly on amplitudes.
    """
    if opA not in _MODE_OPERATORS or opB not in _MODE_OPERATORS:
        raise ValueError("mode commutators are defined for the spin ladder operators")
    return _modes(opalgebra.commutator_label(opA, opB, _labels(coeffs)), coeffs.jmax)
