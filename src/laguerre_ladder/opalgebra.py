"""Ladder-operator realizations on the two-label basis.

Sixteen named generators plus the auxiliary position, derivative, number
and second-order equation operators, in two realizations:

* exact shift actions on label vectors in the integer gauge: on the
  unnormalised states |n,p>_o = sqrt(n! p!) |n,p> of Schwinger's two-boson
  realisation every generator has integer matrix elements (half-integers
  on the diagonal), so commutators, Casimir eigenvalues, the so(3,2)
  structure constants, the Killing form and its Casimir, none of which
  depend on the basis, come out in int/Fraction arithmetic; the radical
  ring is used only to round a normalised matrix element to a float, in
  the one float action (``apply_label``, ``commutator_label``) on plain
  mappings {(n, p): coefficient} over the normalised states, real or
  complex, and
* differential forms on carriers, applied to the exact core of each
  carrier once (one symbolic table for the first-order forms) and then
  evaluated pointwise.

The label action is ground truth; differential forms are checked against
it.  Two tables state what each generator is: ``_SHIFTS`` gives the shift
and matrix element of the eight single-step and six diagonal generators,
and ``SL2_TRIPLES`` the (H, E+, E-, step, sign) of the four sl(2) triples,
from which the ladder relations, the Casimirs and the spin ladder on plane
modes are read.  The quadratic composites (the double-raising and
double-lowering families) are never given independent matrix elements:
they are always composed from the single-step actions through their
commutator definitions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import prod
from types import MappingProxyType
from typing import Literal, Mapping, Sequence

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

# The shift generators as one table, op -> (dn, dp, element(n, p)): op sends
# the unnormalised state (n, p) to element(n, p) times (n + dn, p + dp).  A
# zero element annihilates, which covers every edge of the lattice; the six
# diagonal generators (dn = dp = 0) are the number operators and their
# half-integer combinations.
_SHIFTS = {
    OperatorName.Aplus: (1, 0, lambda n, p: 1),
    OperatorName.Aminus: (-1, 0, lambda n, p: n),
    OperatorName.Bplus: (0, 1, lambda n, p: 1),
    OperatorName.Bminus: (0, -1, lambda n, p: p),
    OperatorName.Jplus: (1, -1, lambda n, p: p),
    OperatorName.Jminus: (-1, 1, lambda n, p: n),
    OperatorName.Kplus: (1, 1, lambda n, p: 1),
    OperatorName.Kminus: (-1, -1, lambda n, p: n * p),
    OperatorName.N: (0, 0, lambda n, p: n),
    OperatorName.P: (0, 0, lambda n, p: p),
    OperatorName.J3: (0, 0, lambda n, p: Fraction(n - p, 2)),
    OperatorName.K3: (0, 0, lambda n, p: Fraction(n + p + 1, 2)),
    OperatorName.R3: (0, 0, lambda n, p: Fraction(2 * n + 1, 2)),
    OperatorName.S3: (0, 0, lambda n, p: Fraction(2 * p + 1, 2)),
}

_DIAGONAL = tuple(op for op, (dn, dp, _) in _SHIFTS.items() if dn == dp == 0)

# The four sl(2) triples, Casimir name -> (H, E+, E-, step, sign):
# [H, E+-] = +-step E+-, [E+, E-] = 2 sign step H, and the Casimir is
# H**2 + (sign/2) {E+, E-}.
SL2_TRIPLES: dict[str, tuple[OperatorName, OperatorName, OperatorName, int, int]] = {
    "Csu2": (OperatorName.J3, OperatorName.Jplus, OperatorName.Jminus, 1, +1),
    "Csu11": (OperatorName.K3, OperatorName.Kplus, OperatorName.Kminus, 1, -1),
    "CR": (OperatorName.R3, OperatorName.Rplus, OperatorName.Rminus, 2, -1),
    "CS": (OperatorName.S3, OperatorName.Splus, OperatorName.Sminus, 2, -1),
}

# Test fixture: a deliberately wrong matrix element, used to prove the
# verification suites actually detect broken algebra.  "jplus-sign" flips
# the sign of the single J+ element out of the state (1, 2).
_VALID_DEFECTS = ("jplus-sign",)
_injected_defect: str | None = None


@contextmanager
def injected_defect(name: str | None):
    """Run the block with the named defect (None: none) in every label action."""
    global _injected_defect
    if name is not None and name not in _VALID_DEFECTS:
        raise ValueError(f"unknown defect {name!r}; valid: {_VALID_DEFECTS}")
    previous, _injected_defect = _injected_defect, name
    try:
        yield
    finally:
        _injected_defect = previous


def _terms(op: OperatorName, n: int, p: int) -> Mapping[BasisIndex, int | Fraction]:
    """Image of the unnormalised state (n, p) under op, integer gauge.

    A read-only view of an image built once per injected defect.
    """
    return MappingProxyType(_image(op, n, p, _injected_defect))


# Sized from counted keys: one verify --suite all builds 3,303 distinct
# images, the three mode operators on every plane mode through j = 8 build 243.
@lru_cache(maxsize=4096, typed=True)
def _image(op: OperatorName, n: int, p: int, defect: str | None) -> ExactVector:
    if op in _SHIFTS:
        dn, dp, element = _SHIFTS[op]
        elem = element(n, p)
        if op is OperatorName.Jplus and defect == "jplus-sign" and (n, p) == (1, 2):
            elem = -elem
        return {BasisIndex(n + dn, p + dp): elem} if elem else {}
    if op is OperatorName.E:
        return {}
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
    c on t into c * sqrt(t!/s!), where (n, p)! means n! p!.  The ratio is
    the product of the factors by which the labels differ, not a quotient of
    full factorials, whose cost grows with the labels.  The radical form is
    canonical, so the float it rounds to does not depend on how c was built.
    """
    n, p = source

    def ratio(t: BasisIndex) -> Fraction:
        up = prod(range(n + 1, t.n + 1)) * prod(range(p + 1, t.p + 1))
        return Fraction(up, prod(range(t.n + 1, n + 1)) * prod(range(t.p + 1, p + 1)))

    return {t: SqrtSum.sqrt(ratio(t)) * c for t, c in vec.items()}


# ---------------------------------------------------------------------------
# Float label action on normalised coefficients
# ---------------------------------------------------------------------------


def _float_images(image, terms: Mapping) -> dict[BasisIndex, float | complex]:
    """Sum of coeff * image(n, p) over the terms, each element rounded once.

    ``image(n, p)`` is the exact image of the unnormalised state; it is
    renormalised to the normalised state before rounding.  Each target's
    sum starts at int 0, so it is real for real coefficients and complex
    for complex ones; targets whose sum is exactly zero are dropped.
    """
    out: dict = {}
    for (n, p), coeff in terms.items():
        for target, elem in normalised((n, p), image(n, p)).items():
            out[target] = out.get(target, 0) + coeff * float(elem)
    return {k: v for k, v in out.items() if v}


def apply_label(op: OperatorName, terms: Mapping) -> dict[BasisIndex, float | complex]:
    """Action of op on normalised coefficients {(n, p): c}, real or complex.

    Boundary labels annihilate cleanly.
    """
    return _float_images(lambda n, p: _terms(op, n, p), terms)


def commutator_label(
    opA: OperatorName, opB: OperatorName, terms: Mapping
) -> dict[BasisIndex, float | complex]:
    """(opA opB - opB opA) on normalised coefficients {(n, p): c}.

    Element products are exact per source state, and each state's image is
    rounded once, so rational-valued commutators on a basis state come out
    bit-exact.
    """
    return _float_images(lambda n, p: commutator_exact(opA, opB, exact_state(n, p)), terms)


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------

CasimirName = Literal["Cp", "Csu2", "Csu11", "CR", "CS"]


def _quadratic_eigenvalue(
    name: str,
    idx: tuple[int, int],
    parts: Sequence[tuple[int | Fraction, OperatorName, OperatorName]],
    offset: int | Fraction = 0,
) -> Fraction:
    """Exact eigenvalue of offset + sum of scale * A B on one state.

    ``parts`` lists (scale, A, B).  Each B's image of the state is taken
    once; parts with a zero scale apply no A.  Raises, naming the first
    other label reached, when the state is not an eigenvector.
    """
    key = BasisIndex(*idx)
    state, images = exact_state(*key), {}
    acc: ExactVector = {key: offset}
    for scale, first, second in parts:
        if second not in images:
            images[second] = apply_exact(second, state)
        for label, coeff in apply_exact(first, images[second]).items() if scale else ():
            acc[label] = acc.get(label, 0) + scale * coeff
    eigen = Fraction(acc.pop(key))
    if leak := [tuple(label) for label, coeff in acc.items() if coeff]:
        raise RuntimeError(f"{name} is not diagonal on {tuple(key)}: leakage onto {leak[0]}")
    return eigen


def casimir_eigenvalue(which: CasimirName, idx: tuple[int, int]) -> Fraction:
    """Exact Casimir eigenvalue on a single basis state.

    Built from label actions only: "Cp" is b- b+ + b+ b- - (2P + 1), the
    others H**2 + (sign/2) {E+, E-} of their ``SL2_TRIPLES`` entry.  Raises
    if the state fails to be an exact eigenvector (which would indicate
    broken matrix elements).
    """
    if which == "Cp":
        minus, plus = OperatorName.Bminus, OperatorName.Bplus
        parts = [(1, minus, plus), (1, plus, minus)]
        return _quadratic_eigenvalue(f"Casimir {which}", idx, parts, -(2 * idx[1] + 1))
    if which not in SL2_TRIPLES:
        raise ValueError(f"unknown Casimir {which!r}")
    h, plus, minus, _, sign = SL2_TRIPLES[which]
    half = Fraction(sign, 2)
    parts = [(1, h, h), (half, plus, minus), (half, minus, plus)]
    return _quadratic_eigenvalue(f"Casimir {which}", idx, parts)


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

# The first-order forms, as one symbolic table.  On the carrier of label
# (n, p), N x**(k/2) exp(-x/2) q, the form of op gives
# N x**((k+s)/2) exp(-x/2) (a D(q) + b q), with D = derived_core(k, .) and
# op -> (n, p) -> (s, a, b), a and b as {power: coefficient}.
_FIRST_ORDER_FORMS = {
    OperatorName.Bplus: lambda n, p: (1, {0: -1}, {0: Fraction(1, 2), -1: Fraction(p - n, 2)}),
    OperatorName.Bminus: lambda n, p: (1, {0: 1}, {0: Fraction(1, 2), -1: Fraction(p - n, 2)}),
    OperatorName.Jplus: lambda n, p: (
        0, {0: p - n - 1}, {-1: Fraction((n - p + 1) * (n - p), 2), 0: Fraction(-(n + p + 1), 2)}
    ),
    OperatorName.Jminus: lambda n, p: (
        0, {0: n - p - 1}, {-1: Fraction((n - p - 1) * (n - p), 2), 0: Fraction(-(n + p + 1), 2)}
    ),
    OperatorName.Kplus: lambda n, p: (0, {1: 1}, {0: Fraction(n + p + 2, 2), 1: Fraction(-1, 2)}),
    OperatorName.Kminus: lambda n, p: (0, {1: -1}, {0: Fraction(n + p, 2), 1: Fraction(-1, 2)}),
}

FIRST_ORDER: tuple[OperatorName, ...] = tuple(_FIRST_ORDER_FORMS)

_DIFF_SUPPORTED = {*FIRST_ORDER, *_DIAGONAL, OperatorName.X, OperatorName.Dx, OperatorName.E}


# One verify --suite all builds 726 images: the six forms on n, p <= 10.
@lru_cache(maxsize=1024, typed=True)
def diff_image(op: OperatorName, n: int, p: int) -> Carrier:
    """The differential form of op (first-order or E) applied to carrier_M(n, p).

    Exact: the image keeps the carrier's sign, normalisation and label, with
    the half power and core the form gives.  E's core is
    ``e_residual_symbolic``, identically zero.
    """
    c = carrier_M(n, p)
    if op is OperatorName.E:
        shift, core = 0, e_residual_symbolic(n, p)
    else:
        shift, a, b = _FIRST_ORDER_FORMS[op](n, p)
        core = LaurentPoly(a) * derived_core(c.half_power, c.core) + LaurentPoly(b) * c.core
    return Carrier(c.sign, c.norm_squared, c.half_power + shift, core, c.label)


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
    if c != carrier_M(n, p):
        raise ValueError(f"carrier is not the basis function of its label {(n, p)}")

    if op in _DIAGONAL:
        return float(_SHIFTS[op][2](n, p)) * evaluate(c, x)
    if op is OperatorName.X:
        return x * evaluate(c, x)
    if op is OperatorName.Dx:
        return evaluate_derivative(c, x, 1)
    return evaluate(diff_image(op, n, p), x)


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

# Twelve interior states, away from annihilation boundaries; their images
# determine every commutator's expansion over the ten generators.
SAMPLE_STATES: tuple[BasisIndex, ...] = tuple(
    BasisIndex(n, p)
    for n, p in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4),
                 (4, 2), (4, 3), (4, 4), (5, 3), (5, 5)]
)


def _row_reduce(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction, and its pivot columns."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pick = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        lead = rows[pick][col]
        rows[pick], rows[top] = rows[top], [v / lead for v in rows[pick]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [v - row[col] * w for v, w in zip(row, rows[top])]
        pivots.append(col)
    return rows, pivots


def _inverse(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix; raises when it is singular."""
    size = len(matrix)
    eye = [[int(i == j) for j in range(size)] for i in range(size)]
    reduced, pivots = _row_reduce([[*row, *unit] for row, unit in zip(matrix, eye)])
    if pivots != list(range(size)):
        raise RuntimeError("matrix is singular")
    return [row[size:] for row in reduced]


@dataclass
class StructureConstants:
    """Expansion of every commutator over the ten closing generators.

    ``table[a][b][c]`` is the exact coefficient of generator c in
    [X_a, X_b].  ``closure_residual`` is the largest integer-gauge mismatch
    between a commutator and its expansion on a sample state, ``witness``
    the first (pair, state) that does not close (None if all do), and
    ``cases`` the number of (pair, state) checks.
    """

    generators: tuple[OperatorName, ...]
    table: list[list[list[Fraction]]]
    closure_residual: Fraction
    witness: tuple[tuple[OperatorName, OperatorName], BasisIndex] | None
    cases: int

    @cached_property
    def nonzero(self) -> list[list[list[tuple[int, Fraction]]]]:
        """``nonzero[a][b]`` lists (c, table[a][b][c]) for the nonzero entries."""
        return [[[(c, v) for c, v in enumerate(row) if v] for row in rows] for rows in self.table]

    def antisymmetry_residual(self) -> Fraction:
        t, r = self.table, range(len(self.generators))
        return max(abs(t[a][b][c] + t[b][a][c]) for a, b, c in product(r, repeat=3))

    def jacobi_residual(self) -> Fraction:
        """Largest coefficient of [X_a,[X_b,X_c]] + cyclic."""
        nz, worst = self.nonzero, Fraction(0)
        for a, b, c in product(range(len(self.generators)), repeat=3):
            acc: dict[int, Fraction] = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for d, v in nz[y][z]:
                    for e, w in nz[x][d]:
                        acc[e] = acc.get(e, 0) + v * w
            worst = max([worst, *map(abs, acc.values())])
        return worst

    @cached_property
    def casimir_metric(self) -> list[list[Fraction]]:
        """g^{ab}: the inverse Killing form, scaled so that its su(2) block
        gives the spin Casimir j(j+1)."""
        B = killing_form(self)
        i3 = self.generators.index(OperatorName.J3)
        if not B[i3][i3]:
            raise RuntimeError("degenerate su(2) block in the Killing form")
        return [[B[i3][i3] * v for v in row] for row in _inverse(B)]


def derive_structure_constants() -> StructureConstants:
    """Solve every commutator of the ten generators over the generator basis.

    Exact, on the integer-gauge images of SAMPLE_STATES.  The design matrix
    (generator images, one row per sample state and target label) does not
    depend on the pair: ten independent rows are inverted once, each pair
    a < b is solved by one mat-vec, and the solution is then checked on
    every row of every sample state.
    """
    gens, dim = SO32_GENERATORS, len(SO32_GENERATORS)
    images = [[apply_exact(g, exact_state(*s)) for s in SAMPLE_STATES] for g in gens]
    keys = [
        (i, t)
        for i in range(len(SAMPLE_STATES))
        for t in sorted({t for image in images for t in image[i]})
    ]
    design = [[image[i].get(t, 0) for image in images] for i, t in keys]
    # The pivot columns of the transpose are the first independent rows.
    _, rows = _row_reduce(list(zip(*design)))
    if len(rows) < dim:
        raise RuntimeError("sample states underdetermine the generator expansion")
    solve = _inverse([design[k] for k in rows])

    table = [[[Fraction(0)] * dim for _ in gens] for _ in gens]
    worst, witness = Fraction(0), None
    for a, b in combinations(range(dim), 2):
        comm = [commutator_exact(gens[a], gens[b], exact_state(*s)) for s in SAMPLE_STATES]
        rhs = [comm[keys[k][0]].get(keys[k][1], 0) for k in rows]
        coeffs = [Fraction(sum(v * c for v, c in zip(row, rhs) if c)) for row in solve]
        table[a][b], table[b][a] = coeffs, [-c for c in coeffs]
        for i, s in enumerate(SAMPLE_STATES):
            gap = dict(comm[i])
            for c, image in zip(coeffs, images):
                for t, v in image[i].items() if c else ():
                    gap[t] = gap.get(t, 0) - c * v
            worst = max([worst, *map(abs, gap.values())])
            if witness is None and any(gap.values()):
                witness = ((gens[a], gens[b]), s)
    cases = dim * (dim - 1) // 2 * len(SAMPLE_STATES)
    return StructureConstants(gens, table, worst, witness, cases)


def killing_form(sc: StructureConstants) -> list[list[Fraction]]:
    """B_ab = sum_cd f_ac^d f_bd^c from the derived constants."""
    t, r = sc.table, range(len(sc.generators))
    return [[sum(v * t[b][d][c] for c in r for d, v in sc.nonzero[a][c]) for b in r] for a in r]


def su2_block_scale(sc: StructureConstants) -> tuple[Fraction, Fraction]:
    """Proportionality factor of the su(2) subblock of the Killing form.

    Returns (scale, residual): the block should equal scale times the
    standard su(2) Killing form (diagonal entry 2, off-diagonal pairing 4).
    """
    B = killing_form(sc)
    i3, ip, im = map(sc.generators.index, SL2_TRIPLES["Csu2"][:3])
    scale = Fraction(B[i3][i3], 2)
    reference = {(i3, i3): 2, (ip, im): 4, (im, ip): 4}
    block = product((i3, ip, im), repeat=2)
    return scale, max(abs(B[i][j] - scale * reference.get((i, j), 0)) for i, j in block)


def killing_casimir(sc: StructureConstants, idx: tuple[int, int]) -> Fraction:
    """Exact eigenvalue of the quadratic Casimir g^{ab} X_a X_b on one state.

    g^{ab} is ``sc.casimir_metric``, in the normalization of the spin
    Casimir.  Raises when the constants carry a closure failure, the Killing
    form is singular, or the state is not an eigenvector.
    """
    if sc.witness is not None:
        raise ValueError("structure constants carry a closure failure")
    gens, g = sc.generators, sc.casimir_metric
    parts = [(g[a][b], gens[a], gens[b]) for b in range(len(gens)) for a in range(len(gens))]
    return _quadratic_eigenvalue("Killing Casimir", idx, parts)
