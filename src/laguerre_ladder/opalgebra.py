"""Ladder-operator realizations on the two-label basis.

Sixteen named generators plus the auxiliary position, derivative, number
and second-order equation operators, in two realizations:

* exact actions on label vectors in the integer gauge: on the unnormalised
  states |n,p>_o = sqrt(n! p!) |n,p> = (a+)**n (b+)**p |0> every generator
  has integer matrix elements (half-integers on the diagonal), so
  commutators, Casimir eigenvalues and the Killing form come out in
  int/Fraction arithmetic; a normalised element is formed as one exact
  radical only to round it, in the one float action (``apply_label``), and
* differential forms on carriers, applied to the exact core of each
  carrier once and then evaluated pointwise.

The label action is ground truth; differential forms are checked against
it.  ``_BILINEARS`` states every generator once, as a normal-ordered
polynomial in two bosons (Schwinger's method): one monomial rule gives the
label action, and polynomial products (``_product``, ``_bracket``) the
so(3,2) structure constants, the Casimirs as polynomials in N and P, and
the ladder relations as identities that hold on every state.
``SL2_TRIPLES`` gives the (H, E+, E-, step, sign) of the four sl(2) triples,
which the ladder relations, the Casimirs and the plane spin ladder read.
The paper's commutator definitions of R+- and S+- are checked, not used.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, lcm, perm
from types import MappingProxyType
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from .basis import BasisIndex, Carrier, carrier_M, derived_core, evaluate, evaluate_derivative
from .exactpoly import LaurentPoly, combination
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

# A normal-ordered boson polynomial, {(i, j, k, l): coefficient} for a+**i a-**j b+**k b-**l.
Polynomial = dict[tuple[int, int, int, int], int | Fraction]

_HALF = Fraction(1, 2)

# Every label operator as a polynomial in two bosons (J. Schwinger, On Angular
# Momentum, 1952): the one place a generator is defined.
_BILINEARS: dict[OperatorName, Polynomial] = {
    OperatorName.Aplus: {(1, 0, 0, 0): 1},
    OperatorName.Aminus: {(0, 1, 0, 0): 1},
    OperatorName.Bplus: {(0, 0, 1, 0): 1},
    OperatorName.Bminus: {(0, 0, 0, 1): 1},
    OperatorName.Jplus: {(1, 0, 0, 1): 1},
    OperatorName.Jminus: {(0, 1, 1, 0): 1},
    OperatorName.Kplus: {(1, 0, 1, 0): 1},
    OperatorName.Kminus: {(0, 1, 0, 1): 1},
    OperatorName.Rplus: {(2, 0, 0, 0): 1},
    OperatorName.Rminus: {(0, 2, 0, 0): 1},
    OperatorName.Splus: {(0, 0, 2, 0): 1},
    OperatorName.Sminus: {(0, 0, 0, 2): 1},
    OperatorName.N: {(1, 1, 0, 0): 1},
    OperatorName.P: {(0, 0, 1, 1): 1},
    OperatorName.J3: {(1, 1, 0, 0): _HALF, (0, 0, 1, 1): -_HALF},
    OperatorName.K3: {(1, 1, 0, 0): _HALF, (0, 0, 1, 1): _HALF, (0, 0, 0, 0): _HALF},
    OperatorName.R3: {(1, 1, 0, 0): 1, (0, 0, 0, 0): _HALF},
    OperatorName.S3: {(0, 0, 1, 1): 1, (0, 0, 0, 0): _HALF},
    OperatorName.X: {(1, 0, 1, 0): -1, (0, 1, 0, 1): -1,  # X = N + P + 1 - K+ - K-
                     (1, 1, 0, 0): 1, (0, 0, 1, 1): 1, (0, 0, 0, 0): 1},
    OperatorName.E: {},
}

# The number operators and their half-integer combinations; E is zero, not diagonal.
_DIAGONAL = tuple(
    op for op, f in _BILINEARS.items() if f and all(i == j and k == l for i, j, k, l in f)
)

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
DEFECTS = ("jplus-sign",)
_injected_defect: str | None = None


@contextmanager
def injected_defect(name: str | None):
    """Run the block with the named defect (None: none) in every label action."""
    global _injected_defect
    if name is not None and name not in DEFECTS:
        raise ValueError(f"unknown defect {name!r}; valid: {DEFECTS}")
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


@lru_cache(maxsize=None, typed=True)
def _image(op: OperatorName, n: int, p: int, defect: str | None) -> ExactVector:
    """One monomial rule: a+**i a-**j b+**k b-**l sends (n, p) to
    (n - j + i, p - l + k) with the element n!/(n-j)! p!/(p-l)!, which
    ``perm`` makes zero when j > n or l > p."""
    if op not in _BILINEARS:
        raise ValueError(f"operator {op.value} has no label-space action")
    # Integer numerators over the lcm of the coefficients' denominators (2
    # for J3, K3, R3 and S3, else 1), divided once per element.
    poly = _BILINEARS[op]
    den = lcm(*(c.denominator for c in poly.values()))
    out: dict[BasisIndex, int] = {}
    for (i, j, k, l), coeff in poly.items():
        target = BasisIndex(n - j + i, p - l + k)
        num = coeff.numerator * (den // coeff.denominator)
        out[target] = out.get(target, 0) + num * perm(n, j) * perm(p, l)
    if op is OperatorName.Jplus and defect == "jplus-sign" and (n, p) == (1, 2):
        out = {t: -elem for t, elem in out.items()}
    # Integral elements as int, so that products of them stay integer
    # arithmetic; only half-integers are Fraction.
    return {t: e // den if e % den == 0 else Fraction(e, den) for t, e in out.items() if e}


def combine(terms: Iterable[tuple[int | Fraction, Mapping]]) -> dict:
    """Sum of scale * vector over (scale, vector) terms, zeros dropped.

    A vector is a label vector or a boson polynomial."""
    out: dict = {}
    for scale, poly in terms:
        for key, c in poly.items():
            out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def _product(f: Polynomial, g: Polynomial) -> Polynomial:
    """The normal-ordered product f g: the a and b bosons commute, and
    a-**j a+**k = sum_r C(j, r) k!/(k-r)! a+**(k-r) a-**(j-r), the same for b."""
    out: Polynomial = {}
    for ((i, j, k, l), c), ((i2, j2, k2, l2), d) in product(f.items(), g.items()):
        for r, s in product(range(min(j, i2) + 1), range(min(l, k2) + 1)):
            key = (i + i2 - r, j + j2 - r, k + k2 - s, l + l2 - s)
            term = c * d * comb(j, r) * perm(i2, r) * comb(l, s) * perm(k2, s)
            out[key] = out.get(key, 0) + term
    return {key: c for key, c in out.items() if c}


def _bracket(f: Polynomial, g: Polynomial) -> Polynomial:
    """The commutator f g - g f, normal-ordered."""
    return combine([(1, _product(f, g)), (-1, _product(g, f))])


def apply_exact(op: OperatorName, vec: Mapping[BasisIndex, int | Fraction]) -> ExactVector:
    """Exact label action on a vector over the unnormalised states.

    Always a new dict: the cached images are read, never handed out.
    """
    out: ExactVector = {}
    for (n, p), coeff in vec.items():
        for target, elem in _image(op, n, p, _injected_defect).items():
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

    ``vec`` is the image of the unnormalised state |s>_o, s = source; a
    coefficient c on t becomes c * sqrt(t!/s!), where (n, p)! means n! p!.
    The root is the product of the radicals of the factors by which the
    labels differ, each split on its own, so no radicand exceeds the larger
    label.  The radical form is unique, so its float does not depend on how
    c was built.
    """
    n, p = source

    def element(t: BasisIndex, c: int | Fraction) -> SqrtSum:
        out = SqrtSum(c)
        for s, u in ((n, t.n), (p, t.p)):
            for k in range(s + 1, u + 1):
                out = out * SqrtSum.sqrt(k)
            for k in range(u + 1, s + 1):
                out = out * SqrtSum.sqrt(Fraction(1, k))
        return out

    return {t: element(t, c) for t, c in vec.items()}


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


# The identity, the constant monomial.
_ONE: Polynomial = {(0, 0, 0, 0): 1}


@lru_cache(maxsize=None)
def _casimir_polynomial(which: str) -> Polynomial:
    """A Casimir as a normal-ordered polynomial, built on first use.

    "Cp" is b- b+ + b+ b- - (2P + 1), the others H**2 + (sign/2) {E+, E-}
    of their ``SL2_TRIPLES`` entry.  Raises when a monomial is not diagonal,
    i.e. would move a state: the operator is then no Casimir of the table.
    """
    t = _BILINEARS
    if which == "Cp":
        minus, plus = t[OperatorName.Bminus], t[OperatorName.Bplus]
        terms = [(1, _product(minus, plus)), (1, _product(plus, minus)),
                 (-2, t[OperatorName.P]), (-1, _ONE)]
    elif which in SL2_TRIPLES:
        h, plus, minus, _, sign = SL2_TRIPLES[which]
        half = Fraction(sign, 2)
        terms = [(1, _product(t[h], t[h])), (half, _product(t[plus], t[minus])),
                 (half, _product(t[minus], t[plus]))]
    else:
        raise ValueError(f"unknown Casimir {which!r}")
    poly = combine(terms)
    leak = next((key for key in poly if key[0] != key[1] or key[2] != key[3]), None)
    if leak is not None:
        raise RuntimeError(f"Casimir {which} is not diagonal: it has the monomial {leak}")
    return poly


def casimir_eigenvalue(which: CasimirName, idx: tuple[int, int]) -> Fraction:
    """Exact Casimir eigenvalue on a single basis state.

    The diagonal monomial a+**i a-**i b+**k b-**k has the eigenvalue
    n!/(n-i)! p!/(p-k)! on (n, p), so the Casimir's is a polynomial in the
    labels, exact for labels of any size.
    """
    n, p = idx
    poly = _casimir_polynomial(which)
    return Fraction(sum(c * perm(n, i) * perm(p, k) for (i, _, k, _), c in poly.items()))


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
    return combination([
        (1, q2, 1),
        (1, q1, 0),
        (Fraction(n + p + 1, 2), q, 0),
        (Fraction(-(p - n) ** 2, 4), q, -1),
        (Fraction(-1, 4), q, 1),
    ])


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
        d = derived_core(c.half_power, c.core)
        core = combination(
            [*((v, d, k) for k, v in a.items()), *((v, c.core, k) for k, v in b.items())]
        )
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
        return float(_terms(op, n, p).get((n, p), 0)) * evaluate(c, x)
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


def _integral(v: int | Fraction) -> int | Fraction:
    """v as an int when it is one."""
    return v.numerator if v.denominator == 1 else v


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
    [X_a, X_b].  ``leftover[a, b]``, for each pair a < b, is the largest
    coefficient that the polynomial of [X_a, X_b] leaves over after its
    expansion: zero when the bracket closes on the generators.  Integral
    entries of both are ``int`` (for so(3,2) all of them), so the gap
    checks and the Killing form run in integer arithmetic.
    """

    generators: tuple[OperatorName, ...]
    table: list[list[list[int | Fraction]]]
    leftover: dict[tuple[int, int], int | Fraction]

    @cached_property
    def nonzero(self) -> list[list[list[tuple[int, int | Fraction]]]]:
        """``nonzero[a][b]`` lists (c, table[a][b][c]) for the nonzero entries."""
        return [[[(c, v) for c, v in enumerate(row) if v] for row in rows] for rows in self.table]

    def closure_gaps(self) -> Iterator[tuple[tuple[OperatorName, ...], int | Fraction]]:
        """Each pair (X_a, X_b), a < b, with the largest coefficient its bracket leaves over."""
        g = self.generators
        for (a, b), gap in self.leftover.items():
            yield (g[a], g[b]), gap

    def antisymmetry_gaps(self) -> Iterator[tuple[tuple[OperatorName, ...], int | Fraction]]:
        """Each pair (X_a, X_b) with the largest coefficient of [X_a,X_b] + [X_b,X_a]."""
        t, g = self.table, self.generators
        for a, b in product(range(len(g)), repeat=2):
            yield (g[a], g[b]), max(abs(t[a][b][c] + t[b][a][c]) for c in range(len(g)))

    def jacobi_gaps(self) -> Iterator[tuple[tuple[OperatorName, ...], int | Fraction]]:
        """Each triple (X_a, X_b, X_c) with the largest coefficient of [X_a,[X_b,X_c]] + cyclic."""
        nz, gens = self.nonzero, self.generators
        for a, b, c in product(range(len(gens)), repeat=3):
            acc: dict[int, int | Fraction] = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for d, v in nz[y][z]:
                    for e, w in nz[x][d]:
                        acc[e] = acc.get(e, 0) + v * w
            yield (gens[a], gens[b], gens[c]), max(map(abs, acc.values()), default=0)

    @cached_property
    def killing_form(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """B_ab = sum_cd f_ac^d f_bd^c, built once and shared, so read-only."""
        t, r = self.table, range(len(self.generators))
        return tuple(
            tuple(sum(v * t[b][d][c] for c in r for d, v in self.nonzero[a][c]) for b in r)
            for a in r
        )

    @cached_property
    def casimir_metric(self) -> list[list[Fraction]]:
        """g^{ab}: the inverse Killing form, scaled so that its su(2) block
        gives the spin Casimir j(j+1)."""
        B = self.killing_form
        i3 = self.generators.index(OperatorName.J3)
        if not B[i3][i3]:
            raise RuntimeError("degenerate su(2) block in the Killing form")
        return [[B[i3][i3] * v for v in row] for row in _inverse(B)]

    @cached_property
    def casimir_parts(self) -> tuple[list[tuple[int, OperatorName, OperatorName]], int]:
        """The nonzero entries of ``casimir_metric`` over their common
        denominator: ([(g^{ab} * den, X_a, X_b)], den), with int numerators.

        Read from ``casimir_metric`` on first use, so a copy that replaces
        the metric gets its own parts."""
        g, gens = self.casimir_metric, self.generators
        entries = [(g[a][b], gens[a], gens[b]) for b in range(len(gens)) for a in range(len(gens))
                   if g[a][b]]
        den = lcm(*(v.denominator for v, _, _ in entries))
        return [(v.numerator * (den // v.denominator), a, b) for v, a, b in entries], den


def derive_structure_constants() -> StructureConstants:
    """Expand every commutator of the ten generators over the generators.

    Exact, on their polynomials: each bracket is read off over ten
    independent monomial rows of the generators, inverted once; whatever the
    expansion leaves over is the pair's leftover.
    """
    gens, dim = SO32_GENERATORS, len(SO32_GENERATORS)
    polys = [_BILINEARS[g] for g in gens]
    monomials = sorted({key for f in polys for key in f})
    design = [[f.get(key, 0) for f in polys] for key in monomials]
    # The pivot columns of the transpose are the first independent rows.
    _, rows = _row_reduce(list(zip(*design)))
    if len(rows) < dim:
        raise RuntimeError("the generator polynomials are linearly dependent")
    solve = _inverse([design[k] for k in rows])

    table: list[list[list[int | Fraction]]] = [[[0] * dim for _ in gens] for _ in gens]
    leftover: dict[tuple[int, int], int | Fraction] = {}
    for a, b in combinations(range(dim), 2):
        bracket = _bracket(polys[a], polys[b])
        rhs = [bracket.get(monomials[k], 0) for k in rows]
        coeffs = [_integral(sum(v * c for v, c in zip(row, rhs) if c)) for row in solve]
        table[a][b], table[b][a] = coeffs, [-c for c in coeffs]
        left = combine([(1, bracket), *((-c, poly) for c, poly in zip(coeffs, polys))])
        leftover[a, b] = _integral(max(map(abs, left.values()), default=0))
    return StructureConstants(gens, table, leftover)


def su2_block_scale(sc: StructureConstants) -> tuple[Fraction, Fraction]:
    """Proportionality factor of the su(2) subblock of the Killing form.

    Returns (scale, residual): the block should equal scale times the
    standard su(2) Killing form (diagonal entry 2, off-diagonal pairing 4).
    """
    B = sc.killing_form
    i3, ip, im = map(sc.generators.index, SL2_TRIPLES["Csu2"][:3])
    scale = Fraction(B[i3][i3], 2)
    reference = {(i3, i3): 2, (ip, im): 4, (im, ip): 4}
    block = product((i3, ip, im), repeat=2)
    return scale, max(abs(B[i][j] - scale * reference.get((i, j), 0)) for i, j in block)


def killing_casimir(sc: StructureConstants, idx: tuple[int, int]) -> Fraction:
    """Exact eigenvalue of the quadratic Casimir g^{ab} X_a X_b on one state.

    g^{ab} is ``sc.casimir_metric``, in the normalization of the spin
    Casimir, read as integers over one denominator (``sc.casimir_parts``).
    Taken through the label action: each part adds its scale times the two
    elements along each path out of the state, an int but for the J3 and K3
    parts, whose diagonal elements are half-integers, and the sum is divided
    once.  Raises when the constants carry a closure failure, the Killing
    form is singular, or the state is not an eigenvector.
    """
    if any(sc.leftover.values()):
        raise ValueError("structure constants carry a closure failure")
    parts, den = sc.casimir_parts
    key = BasisIndex(*idx)
    n, p = key
    acc: dict[BasisIndex, int | Fraction] = {}
    for scale, a, b in parts:
        for (m, q), e in _image(b, n, p, _injected_defect).items():
            for target, f in _image(a, m, q, _injected_defect).items():
                acc[target] = acc.get(target, 0) + scale * e * f
    eigen = Fraction(acc.pop(key, 0), den)
    leak = next((target for target, v in acc.items() if v), None)
    if leak is not None:
        raise RuntimeError(
            f"Killing Casimir is not diagonal on {tuple(key)}: leakage onto {tuple(leak)}"
        )
    return eigen
