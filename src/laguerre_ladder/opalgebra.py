"""Ladder-operator realizations on the two-label basis.

Sixteen named generators plus the auxiliary position, derivative, number
and second-order equation operators, in two realizations:

* exact shift actions on label vectors in the integer gauge: on the
  unnormalised states |n,p>_o = sqrt(n! p!) |n,p> of Schwinger's two-boson
  realisation every generator has integer matrix elements (half-integers
  on the diagonal), so commutators and Casimir eigenvalues, which do not
  depend on the basis, come out in int/Fraction arithmetic; the radical
  ring is used only to round a normalised matrix element to a float, and
* first-order differential forms acting pointwise on carriers.

The label action is ground truth; differential forms are checked against
it.  The quadratic composites (the double-raising and double-lowering
families) are never given independent matrix elements: they are always
composed from the single-step actions through their commutator
definitions.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Literal, Mapping, Sequence

import numpy as np

from .basis import BasisIndex, Carrier, carrier_M, derived_core, evaluate, evaluate_derivative
from .exactpoly import LaurentPoly
from .radicals import SqrtSum


class OperatorName(Enum):
    Aplus = "a+"
    Aminus = "a-"
    Bplus = "b+"
    Bminus = "b-"
    Jplus = "J+"
    Jminus = "J-"
    J3 = "J3"
    Kplus = "K+"
    Kminus = "K-"
    K3 = "K3"
    Rplus = "R+"
    Rminus = "R-"
    R3 = "R3"
    Splus = "S+"
    Sminus = "S-"
    S3 = "S3"
    X = "X"
    Dx = "Dx"
    N = "N"
    P = "P"
    E = "E"


# Coefficients over the unnormalised states |n,p>_o = sqrt(n! p!) |n,p>.
ExactVector = dict[BasisIndex, int | Fraction]

# Composite generators: (sign, first, second) meaning sign * [first, second].
_COMMUTATOR_COMPOSITES = {
    OperatorName.Rplus: (1, OperatorName.Jplus, OperatorName.Kplus),
    OperatorName.Rminus: (-1, OperatorName.Jminus, OperatorName.Kminus),
    OperatorName.Splus: (1, OperatorName.Jminus, OperatorName.Kplus),
    OperatorName.Sminus: (-1, OperatorName.Jplus, OperatorName.Kminus),
}

# Test fixture: a deliberately wrong matrix element, used to prove the
# verification suites actually detect broken algebra.  "jplus-sign" flips
# the sign of the single J+ element out of the state (1, 2).
_VALID_DEFECTS = ("jplus-sign",)
_injected_defect: str | None = None


def set_injected_defect(name: str | None) -> None:
    global _injected_defect
    if name is not None and name not in _VALID_DEFECTS:
        raise ValueError(f"unknown defect {name!r}; valid: {_VALID_DEFECTS}")
    _injected_defect = name


@contextmanager
def injected_defect(name: str | None):
    previous = _injected_defect
    set_injected_defect(name)
    try:
        yield
    finally:
        set_injected_defect(previous)


def _diagonal(op: OperatorName, n: int, p: int) -> int | Fraction | None:
    if op is OperatorName.N:
        return n
    if op is OperatorName.P:
        return p
    if op is OperatorName.J3:
        return Fraction(n - p, 2)
    if op is OperatorName.K3:
        return Fraction(n + p + 1, 2)
    if op is OperatorName.R3:
        return Fraction(2 * n + 1, 2)
    if op is OperatorName.S3:
        return Fraction(2 * p + 1, 2)
    return None


def _terms(op: OperatorName, n: int, p: int) -> Mapping[BasisIndex, int | Fraction]:
    """Image of the unnormalised state (n, p) under op, integer gauge.

    A read-only view of an image built once per injected defect.
    """
    return MappingProxyType(_image(op, n, p, _injected_defect))


# Sized from counted keys: one verify --suite all builds 3,303 distinct
# images, the three mode operators on every plane mode through j = 8 build 243.
@lru_cache(maxsize=4096, typed=True)
def _image(op: OperatorName, n: int, p: int, defect: str | None) -> ExactVector:
    diag = _diagonal(op, n, p)
    if diag is not None:
        return {BasisIndex(n, p): diag} if diag else {}
    if op is OperatorName.E:
        return {}
    if op is OperatorName.Aplus:
        return {BasisIndex(n + 1, p): 1}
    if op is OperatorName.Aminus:
        return {} if n == 0 else {BasisIndex(n - 1, p): n}
    if op is OperatorName.Bplus:
        return {BasisIndex(n, p + 1): 1}
    if op is OperatorName.Bminus:
        return {} if p == 0 else {BasisIndex(n, p - 1): p}
    if op is OperatorName.Jplus:
        if p == 0:
            return {}
        elem = -p if defect == "jplus-sign" and (n, p) == (1, 2) else p
        return {BasisIndex(n + 1, p - 1): elem}
    if op is OperatorName.Jminus:
        return {} if n == 0 else {BasisIndex(n - 1, p + 1): n}
    if op is OperatorName.Kplus:
        return {BasisIndex(n + 1, p + 1): 1}
    if op is OperatorName.Kminus:
        return {} if n == 0 or p == 0 else {BasisIndex(n - 1, p - 1): n * p}
    if op in _COMMUTATOR_COMPOSITES:
        sign, first, second = _COMMUTATOR_COMPOSITES[op]
        return commutator_exact(first, second, {BasisIndex(n, p): sign})
    if op is OperatorName.X:
        # X = (N + P + 1) - K+ - K- as an exact operator identity.
        ladder = _terms(OperatorName.Kplus, n, p) | _terms(OperatorName.Kminus, n, p)
        return {t: -elem for t, elem in ladder.items()} | {BasisIndex(n, p): n + p + 1}
    raise ValueError(f"operator {op.value} has no label-space action")


def apply_exact(op: OperatorName, vec: Mapping[BasisIndex, int | Fraction]) -> ExactVector:
    """Exact label action on a vector over the unnormalised states."""
    out: ExactVector = {}
    for (n, p), coeff in vec.items():
        for target, elem in _terms(op, n, p).items():
            out[target] = out.get(target, 0) + coeff * elem
    return {k: v for k, v in out.items() if v}


def commutator_exact(
    opA: OperatorName, opB: OperatorName, vec: Mapping[BasisIndex, int | Fraction]
) -> ExactVector:
    """(opA opB - opB opA) applied exactly."""
    out = apply_exact(opA, apply_exact(opB, vec))
    for key, val in apply_exact(opB, apply_exact(opA, vec)).items():
        out[key] = out.get(key, 0) - val
    return {k: v for k, v in out.items() if v}


def exact_state(n: int, p: int) -> ExactVector:
    """The unnormalised state |n,p>_o = sqrt(n! p!) |n,p>."""
    return {BasisIndex(n, p): 1}


def normalised(
    source: tuple[int, int], vec: Mapping[BasisIndex, int | Fraction]
) -> dict[BasisIndex, SqrtSum]:
    """Image of the normalised state ``source`` on normalised states.

    ``vec`` is the image of the unnormalised state |s>_o, s = source.
    Dividing by sqrt(s!) and renormalising each target turns a coefficient
    c on t into c * sqrt(t!/s!), where (n, p)! means n! p!.  The radical
    form is canonical, so the float it rounds to does not depend on how c
    was built.
    """
    n, p = source
    weight = factorial(n) * factorial(p)
    return {
        t: SqrtSum.sqrt(Fraction(factorial(t.n) * factorial(t.p), weight)) * c
        for t, c in vec.items()
    }


# ---------------------------------------------------------------------------
# Public floating-point label vectors
# ---------------------------------------------------------------------------


@dataclass
class LabelVector:
    """Finite linear combination of basis labels with real coefficients."""

    terms: dict[BasisIndex, float]

    def __post_init__(self):
        self.terms = {BasisIndex(*k): float(v) for k, v in self.terms.items() if v}

    @staticmethod
    def basis_state(n: int, p: int) -> "LabelVector":
        return LabelVector({BasisIndex(n, p): 1.0})

    def __add__(self, other: "LabelVector") -> "LabelVector":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return LabelVector(out)

    def __sub__(self, other: "LabelVector") -> "LabelVector":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) - v
        return LabelVector(out)

    def __mul__(self, s: float) -> "LabelVector":
        return LabelVector({k: v * s for k, v in self.terms.items()})

    __rmul__ = __mul__

    def get(self, n: int, p: int) -> float:
        return self.terms.get(BasisIndex(n, p), 0.0)

    def max_abs_diff(self, other: "LabelVector") -> float:
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys),
            default=0.0,
        )

    def is_zero(self) -> bool:
        return not self.terms


def _float_images(image, terms: Mapping, zero):
    """Sum of coeff * image(n, p) over the terms, each element rounded once.

    ``image(n, p)`` is the exact image of the unnormalised state; it is
    renormalised to the normalised state before rounding.  ``zero`` (0.0 or
    0j) starts each target's running sum.
    """
    out: dict = {}
    for (n, p), coeff in terms.items():
        for target, elem in normalised((n, p), image(n, p)).items():
            out[target] = out.get(target, zero) + coeff * float(elem)
    return out


def label_action(op: OperatorName, terms: Mapping, zero=0.0) -> dict[BasisIndex, complex]:
    """Float action of op on normalised coefficients, real or complex."""
    return _float_images(lambda n, p: _terms(op, n, p), terms, zero)


def commutator_action(
    opA: OperatorName, opB: OperatorName, terms: Mapping, zero=0.0
) -> dict[BasisIndex, complex]:
    """Float action of (opA opB - opB opA) with exact element products per state."""
    return _float_images(
        lambda n, p: commutator_exact(opA, opB, exact_state(n, p)), terms, zero
    )


def apply_label(op: OperatorName, v: LabelVector) -> LabelVector:
    """Matrix-element action of op; boundary labels annihilate cleanly."""
    return LabelVector(label_action(op, v.terms))


def commutator_label(opA: OperatorName, opB: OperatorName, v: LabelVector) -> LabelVector:
    """(opA opB - opB opA) applied to v.

    Computed through the exact channel (float coefficients are exact
    rationals, so the lift is faithful) and converted back at the end;
    rational-valued commutators therefore come out bit-exact.
    """
    acc: dict[BasisIndex, SqrtSum] = {}
    for (n, p), c in v.terms.items():
        image = commutator_exact(opA, opB, exact_state(n, p))
        lifted = Fraction(c)
        for target, value in normalised((n, p), image).items():
            term = value * lifted
            acc[target] = acc[target] + term if target in acc else term
    return LabelVector({k: float(val) for k, val in acc.items() if val})


def twisted_swap(v: LabelVector) -> LabelVector:
    """Label swap with the alternating sign of the basis symmetry.

    Sends the state (n, p) to (-1)**(p-n) times (p, n); it squares to the
    identity and realizes the n <-> p interchange at the function level.
    """
    out: dict[BasisIndex, float] = {}
    for (n, p), coeff in v.terms.items():
        sign = -1.0 if (p - n) % 2 else 1.0
        key = BasisIndex(p, n)
        out[key] = out.get(key, 0.0) + sign * coeff
    return LabelVector(out)


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------

CasimirName = Literal["Cp", "Csu2", "Csu11", "CR", "CS"]

_CASIMIR_PARTS: dict[str, tuple[OperatorName, OperatorName, OperatorName, int]] = {
    # name -> (diagonal generator, plus, minus, sign of the anticommutator half)
    "Csu2": (OperatorName.J3, OperatorName.Jplus, OperatorName.Jminus, +1),
    "Csu11": (OperatorName.K3, OperatorName.Kplus, OperatorName.Kminus, -1),
    "CR": (OperatorName.R3, OperatorName.Rplus, OperatorName.Rminus, -1),
    "CS": (OperatorName.S3, OperatorName.Splus, OperatorName.Sminus, -1),
}


def casimir_eigenvalue(which: CasimirName, idx: tuple[int, int]) -> Fraction:
    """Exact Casimir eigenvalue on a single basis state.

    Built from label actions only.  Raises if the state fails to be an exact
    eigenvector (which would indicate broken matrix elements).
    """
    n, p = idx
    key = BasisIndex(n, p)
    if which == "Cp":
        acc: ExactVector = {key: -(2 * p + 1)}
        parts = [
            (1, OperatorName.Bminus, OperatorName.Bplus),
            (1, OperatorName.Bplus, OperatorName.Bminus),
        ]
    elif which in _CASIMIR_PARTS:
        diag, plus, minus, sign = _CASIMIR_PARTS[which]
        half = Fraction(sign, 2)
        acc = {}
        parts = [(1, diag, diag), (half, plus, minus), (half, minus, plus)]
    else:
        raise ValueError(f"unknown Casimir {which!r}")
    state = exact_state(n, p)
    for scale, first, second in parts:
        for label, coeff in apply_exact(first, apply_exact(second, state)).items():
            acc[label] = acc.get(label, 0) + scale * coeff
    for label, coeff in acc.items():
        if coeff and label != key:
            raise RuntimeError(
                f"Casimir {which} is not diagonal on {idx}: leakage onto {tuple(label)}"
            )
    return Fraction(acc.get(key, 0))


# ---------------------------------------------------------------------------
# Second-order equation operator, exact symbolic annihilation
# ---------------------------------------------------------------------------


def e_residual_symbolic(n: int, p: int) -> LaurentPoly:
    """Apply the second-order equation operator to the carrier symbolically.

    Works on the unnormalized form x**(k/2) exp(-x/2) core; the common outer
    factor is dropped and the remaining Laurent polynomial returned.  It is
    exactly zero for every valid label pair.
    """
    c = carrier_M(n, p)
    q = c.core
    k = c.half_power
    q1 = derived_core(k, q)
    q2 = derived_core(k, q1)
    return (
        q2.shift(1)
        + q1
        + Fraction(n + p + 1, 2) * q
        - Fraction((p - n) ** 2, 4) * q.shift(-1)
        - Fraction(1, 4) * q.shift(1)
    )


# ---------------------------------------------------------------------------
# First-order differential realizations
# ---------------------------------------------------------------------------

_DIFF_SUPPORTED = {
    OperatorName.Bplus,
    OperatorName.Bminus,
    OperatorName.Jplus,
    OperatorName.Jminus,
    OperatorName.Kplus,
    OperatorName.Kminus,
    OperatorName.J3,
    OperatorName.K3,
    OperatorName.R3,
    OperatorName.S3,
    OperatorName.N,
    OperatorName.P,
    OperatorName.X,
    OperatorName.Dx,
    OperatorName.E,
}


FIRST_ORDER: tuple[OperatorName, ...] = (
    OperatorName.Bplus,
    OperatorName.Bminus,
    OperatorName.Jplus,
    OperatorName.Jminus,
    OperatorName.Kplus,
    OperatorName.Kminus,
)


def first_order_form(
    op: OperatorName, n: int, p: int, x: float, f: float, f1: float
) -> float:
    """A first-order ladder form at x > 0, given the carrier's value f and
    derivative f1 there; (n, p) is the carrier's label.

    Callers that apply several forms to one carrier evaluate it once.
    """
    root = math.sqrt(x)
    if op is OperatorName.Bplus:
        return -root * f1 + (root / 2 + (p - n) / (2 * root)) * f
    if op is OperatorName.Bminus:
        return root * f1 + (root / 2 + (p - n) / (2 * root)) * f
    if op is OperatorName.Jplus:
        d = n - p + 1
        return -d * f1 + (d * (n - p) / (2 * x)) * f - ((n + p + 1) / 2) * f
    if op is OperatorName.Jminus:
        d = n - p - 1
        return d * f1 + (d * (n - p) / (2 * x)) * f - ((n + p + 1) / 2) * f
    if op is OperatorName.Kplus:
        return x * f1 + ((n + p + 2 - x) / 2) * f
    if op is OperatorName.Kminus:
        return -x * f1 + ((n + p - x) / 2) * f
    raise ValueError(f"operator {op.value} has no first-order form")


def apply_diff(op: OperatorName, c: Carrier, x: float) -> float:
    """Evaluate the published differential form of op on a carrier at x > 0.

    The number operators are replaced by the eigenvalues of the carrier's
    label.  The pure raising/lowering bosons acting on the first label and
    the quadratic composites have no first-order form here and raise.
    """
    if op not in _DIFF_SUPPORTED:
        raise ValueError(
            f"operator {op.value} has no supported differential form; "
            "use the label-space action"
        )
    if x <= 0:
        raise ValueError(f"x must be positive (got {x})")
    if c.label is None:
        raise ValueError("carrier has no label; differential forms need eigenvalues")
    n, p = c.label

    diag = _diagonal(op, n, p)
    if diag is not None:
        return float(diag) * evaluate(c, x)

    f = evaluate(c, x)
    if op is OperatorName.X:
        return x * f
    f1 = evaluate_derivative(c, x, 1)
    if op is OperatorName.Dx:
        return f1
    if op in FIRST_ORDER:
        return first_order_form(op, n, p, x, f, f1)
    # Second-order equation operator.
    f2 = evaluate_derivative(c, x, 2)
    return x * f2 + f1 + ((n + p + 1) / 2) * f - ((p - n) ** 2 / (4 * x)) * f - (x / 4) * f


# ---------------------------------------------------------------------------
# Derived structure constants and the Killing-form Casimir
# ---------------------------------------------------------------------------

SO32_GENERATORS: tuple[OperatorName, ...] = (
    OperatorName.Jplus,
    OperatorName.Jminus,
    OperatorName.J3,
    OperatorName.Kplus,
    OperatorName.Kminus,
    OperatorName.K3,
    OperatorName.Rplus,
    OperatorName.Rminus,
    OperatorName.Splus,
    OperatorName.Sminus,
)


@dataclass
class StructureConstants:
    """Expansion of every commutator over the ten closing generators.

    ``table[a, b, c]`` is the coefficient of generator c in [X_a, X_b].
    ``residual_flag`` is set when some commutator failed to close within
    tolerance; ``worst_pair`` names the offender.
    """

    generators: tuple[OperatorName, ...]
    table: np.ndarray
    max_fit_residual: float
    worst_pair: tuple[OperatorName, OperatorName]
    residual_flag: bool
    fit_tolerance: float
    sample_states: tuple[BasisIndex, ...] = ()

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.table + np.swapaxes(self.table, 0, 1))))

    def jacobi_residual(self) -> float:
        t = self.table
        total = (
            np.einsum("bcd,ade->abce", t, t)
            + np.einsum("cad,bde->abce", t, t)
            + np.einsum("abd,cde->abce", t, t)
        )
        return float(np.max(np.abs(total)))


def default_sample_states() -> tuple[BasisIndex, ...]:
    """Twelve interior states, away from annihilation boundaries."""
    return tuple(
        BasisIndex(n, p)
        for n, p in [
            (2, 2), (2, 3), (2, 4), (2, 5),
            (3, 2), (3, 3), (3, 4),
            (4, 2), (4, 3), (4, 4),
            (5, 3), (5, 5),
        ]
    )


def _float_vec(source: BasisIndex, vec: ExactVector) -> dict[BasisIndex, float]:
    return {k: float(v) for k, v in normalised(source, vec).items()}


def derive_structure_constants(
    sample_states: Sequence[tuple[int, int]] | None = None,
    tolerance: float = 1e-9,
) -> StructureConstants:
    """Fit every commutator of the ten generators over the generator basis.

    Least squares over the sample states; each commutator's action must be
    reproduced by a fixed linear combination of single-generator actions.
    The fit is overdetermined by construction (the residual flag reports any
    failure to close rather than hiding it).
    """
    states = [BasisIndex(*s) for s in (sample_states or default_sample_states())]
    if len(set(states)) < 12:
        raise ValueError(f"need at least 12 distinct sample states (got {len(set(states))})")
    if any(n < 0 or p < 0 for n, p in states):
        raise ValueError("sample states must have non-negative labels")

    gens = SO32_GENERATORS
    images = {
        (gi, s): _float_vec(s, apply_exact(g, exact_state(*s)))
        for gi, g in enumerate(gens)
        for s in states
    }
    base_labels = {s: sorted({k for gi in range(len(gens)) for k in images[(gi, s)]})
                   for s in states}

    # The design matrix is pair-independent; check solvability once.
    rows = []
    for s in states:
        for label in base_labels[s]:
            rows.append([images[(gi, s)].get(label, 0.0) for gi in range(len(gens))])
    design = np.array(rows)
    if np.linalg.matrix_rank(design) < len(gens):
        raise ValueError("sample states underdetermine the generator expansion")

    dim = len(gens)
    table = np.zeros((dim, dim, dim))
    max_res = 0.0
    worst = (gens[0], gens[1])
    for a in range(dim):
        for b in range(a + 1, dim):
            comm = {
                s: _float_vec(s, commutator_exact(gens[a], gens[b], exact_state(*s)))
                for s in states
            }
            mat_rows = []
            rhs = []
            for s in states:
                labels = sorted(set(base_labels[s]) | set(comm[s]))
                for label in labels:
                    mat_rows.append([images[(gi, s)].get(label, 0.0) for gi in range(dim)])
                    rhs.append(comm[s].get(label, 0.0))
            mat = np.array(mat_rows)
            vec = np.array(rhs)
            coeffs, *_ = np.linalg.lstsq(mat, vec, rcond=None)
            residual = float(np.max(np.abs(mat @ coeffs - vec))) if len(vec) else 0.0
            if residual > max_res:
                max_res = residual
                worst = (gens[a], gens[b])
            table[a, b] = coeffs
            table[b, a] = -coeffs
    return StructureConstants(
        generators=gens,
        table=table,
        max_fit_residual=max_res,
        worst_pair=worst,
        residual_flag=max_res > tolerance,
        fit_tolerance=tolerance,
        sample_states=tuple(states),
    )


def killing_form(sc: StructureConstants) -> np.ndarray:
    """B_ab = sum_cd f_ac^d f_bd^c from the derived constants."""
    t = sc.table
    return np.einsum("acd,bdc->ab", t, t)


def su2_block_scale(sc: StructureConstants) -> tuple[float, float]:
    """Proportionality factor of the su(2) subblock of the Killing form.

    Returns (scale, residual): the block should equal scale times the
    standard su(2) Killing form (diagonal entry 2, off-diagonal pairing 4).
    """
    B = killing_form(sc)
    gens = list(sc.generators)
    i3 = gens.index(OperatorName.J3)
    ip = gens.index(OperatorName.Jplus)
    im = gens.index(OperatorName.Jminus)
    scale = B[i3, i3] / 2.0
    reference = np.zeros((3, 3))
    reference[0, 0] = 2.0
    reference[1, 2] = reference[2, 1] = 4.0
    block = np.array(
        [
            [B[i3, i3], B[i3, ip], B[i3, im]],
            [B[ip, i3], B[ip, ip], B[ip, im]],
            [B[im, i3], B[im, ip], B[im, im]],
        ]
    )
    residual = float(np.max(np.abs(block - scale * reference)))
    return float(scale), residual


def killing_casimir(sc: StructureConstants, idx: tuple[int, int], tol: float = 1e-10) -> float:
    """Eigenvalue of the quadratic Casimir built from the inverse Killing form.

    The bilinear form is rescaled so its su(2) subblock reproduces the
    standard spin Casimir j(j+1); the eigenvalue is reported in that
    normalization.  Raises when the form is singular or the state is not an
    eigenvector.
    """
    if sc.residual_flag:
        raise ValueError("structure constants carry a closure-failure flag")
    B = killing_form(sc)
    if np.linalg.cond(B) > 1e8:
        raise RuntimeError("Killing form is numerically singular")
    scale, _ = su2_block_scale(sc)
    if abs(scale) < 1e-9:
        raise RuntimeError("degenerate su(2) block in the Killing form")
    ginv = np.linalg.inv(B / (2.0 * scale))

    n, p = idx
    key = BasisIndex(n, p)
    gens = sc.generators
    acc: dict[BasisIndex, float] = {}
    for b, gen_b in enumerate(gens):
        vb = _float_vec(key, apply_exact(gen_b, exact_state(n, p)))
        for a, gen_a in enumerate(gens):
            if ginv[a, b] == 0.0:
                continue
            for (nn, pp), coeff in vb.items():
                for target, elem in normalised((nn, pp), _terms(gen_a, nn, pp)).items():
                    acc[target] = acc.get(target, 0.0) + ginv[a, b] * coeff * float(elem)
    eigen = acc.pop(key, 0.0)
    leak = max((abs(v) for v in acc.values()), default=0.0)
    if leak > tol * max(1.0, abs(eigen)):
        raise RuntimeError(f"Killing Casimir is not diagonal on {idx}: leakage {leak:.3e}")
    return eigen
