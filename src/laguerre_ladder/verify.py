"""Machine-checkable identity suites with a structured report.

Every suite returns an ordered mapping from identity name to a check
record that `_check` folds from the check's cases: its mode ("exact"
checks must come out identically zero, "float" checks carry a tolerance),
the worst residual, a pass flag, the number of cases (a check of nothing
fails) and, on a failing check only, a witness naming the first failing
case.  The command-line front end renders the combined report as JSON and
turns any failure into a nonzero exit code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from . import exactpoly, opalgebra, plane, quadrature
from .basis import BasisIndex, Carrier, carrier_M
from .opalgebra import OperatorName as Op
from .radicals import SqrtSum

SUITE_NAMES = ("exact", "algebra", "quadrature", "plane", "so32")


def _check(cases: Iterable[tuple[Any, Callable]], tolerance: float | None = None) -> dict:
    """Fold (residual, where) cases into one check record.

    An exact check (no tolerance) fails at its first nonzero residual, a float
    check at its first residual not within the tolerance, and a check of no
    cases fails.  ``where()`` names its case; only the first failing case
    calls it, before the next case is drawn (so it may read the loop
    variables of the generator that made it), and the result is the witness.
    """
    # An exact residual (often a Fraction) is compared with the int 0, which
    # a Fraction compares without converting a float.
    limit = 0 if tolerance is None else tolerance
    worst, count, witness = 0, 0, None
    for residual, where in cases:
        count += 1
        worst = max(worst, residual)
        if witness is None and not residual <= limit:
            witness = where()
    record = {
        "mode": "exact" if tolerance is None else "float",
        "max_residual": float(worst),
        "tolerance": 0.0 if tolerance is None else tolerance,
        "pass": count > 0 and witness is None,
        "cases": count,
    }
    return record if witness is None else {**record, "witness": witness}


def _pair(op_a: Op, op_b: Op) -> str:
    return f"[{op_a.value},{op_b.value}]"


def _off_identity(matrix: np.ndarray) -> list[float]:
    """Each row's largest deviation from the identity matrix."""
    return np.abs(matrix - np.eye(len(matrix))).max(axis=1).tolist()


# ---------------------------------------------------------------------------
# exact suite: polynomial identities
# ---------------------------------------------------------------------------


def _negative_parameter_residual(n: int, a: int) -> Fraction:
    """L_n^(-a) against (-1)**a (n-a)!/n! x**a L_{n-a}^(a)."""
    scale = (-1) ** a * Fraction(factorial(n - a), factorial(n))
    return exactpoly.combination(
        [(1, exactpoly.laguerre(n, -a), 0), (-scale, exactpoly.laguerre(n - a, a), a)]
    ).max_abs_coefficient()


def _swap_residual(n: int, p: int) -> float:
    """0 if carrier_M(n, p) is (-1)**(p-n) carrier_M(p, n), else 1."""
    a, b = carrier_M(n, p), carrier_M(p, n)
    sign = -1 if (p - n) % 2 else 1
    fields = (a.sign, a.norm_squared, a.half_power, a.core)
    return 0.0 if fields == (sign * b.sign, b.norm_squared, b.half_power, b.core) else 1.0


def suite_exact(nmax: int = 12, alpha_max: int = 10) -> dict:
    ns = range(nmax + 1)
    labels = list(product(ns, repeat=2))
    ladder = [(n, a, *exactpoly.alpha_ladder_check(n, a))
              for n in ns for a in range(1 - n, alpha_max + 1)]
    return {
        "defining-de-residual": _check(
            (exactpoly.de_residual(n, a).max_abs_coefficient(), lambda: {"n": n, "alpha": a})
            for n in ns for a in range(-n, alpha_max + 1)
        ),
        "ladder-raise-residual": _check(
            (up.max_abs_coefficient(), lambda: {"n": n, "alpha": a}) for n, a, up, _ in ladder
        ),
        "ladder-lower-residual": _check(
            (down.max_abs_coefficient(), lambda: {"n": n, "alpha": a}) for n, a, _, down in ladder
        ),
        "three-term-recurrence": _check(
            (exactpoly.three_term_residual(n, a).max_abs_coefficient(),
             lambda: {"n": n, "alpha": a})
            for n in ns[1:] for a in range(1 - n, alpha_max + 1)
        ),
        "negative-parameter-identity": _check(
            (_negative_parameter_residual(n, a), lambda: {"n": n, "alpha": -a})
            for n in range(min(nmax, 20) + 1) for a in range(n + 1)
        ),
        "equation-operator-annihilation": _check(
            (opalgebra.e_residual_symbolic(n, p).max_abs_coefficient(), lambda: {"state": [n, p]})
            for n, p in labels
        ),
        "carrier-swap-symmetry": _check(
            (_swap_residual(n, p), lambda: {"state": [n, p]}) for n, p in labels
        ),
    }


# ---------------------------------------------------------------------------
# algebra suite: polynomial identities of the table, differential consistency
# ---------------------------------------------------------------------------
#
# The relations, the interchange and the Casimirs are identities of
# normal-ordered two-boson polynomials.  The two-boson Fock representation
# is faithful and the label action applies each monomial by exactly that
# representation, so each identity holds on every state (n, p); a case is
# one polynomial identity, not a state.  The code of the label action is
# kept under test per state by label-diff-consistency here and by the
# Killing Casimir and the diagonal weights of the so32 suite.


def _triple_relations(casimir: str) -> list[tuple[Op, Op, dict[Op | None, int]]]:
    """[H, E+] = step E+, [H, E-] = -step E- and [E+, E-] = 2 sign step H."""
    h, plus, minus, step, sign = opalgebra.SL2_TRIPLES[casimir]
    return [
        (h, plus, {plus: step}),
        (h, minus, {minus: -step}),
        (plus, minus, {h: 2 * sign * step}),
    ]


# Ladder relations [A, B] = sum of factor * G; G None is the identity and an
# empty sum is zero.
_LADDER_RELATIONS: dict[str, list[tuple[Op, Op, dict[Op | None, int]]]] = {
    "boson-commutators": [
        (Op.Bminus, Op.Bplus, {None: 1}),
        (Op.Aminus, Op.Aplus, {None: 1}),
        (Op.Aplus, Op.Bplus, {}),
        (Op.Aplus, Op.Bminus, {}),
        (Op.Aminus, Op.Bplus, {}),
        (Op.Aminus, Op.Bminus, {}),
    ],
    "su2-commutators": _triple_relations("Csu2"),
    "su11-commutators": _triple_relations("Csu11"),
    "r-ladder-commutators": _triple_relations("CR"),
    "s-ladder-commutators": _triple_relations("CS"),
    # The paper's definitions of the double steps, identities of the table.
    "composite-definitions": [
        (Op.Jplus, Op.Kplus, {Op.Rplus: 1}),
        (Op.Jminus, Op.Kminus, {Op.Rminus: -1}),
        (Op.Jminus, Op.Kplus, {Op.Splus: 1}),
        (Op.Jplus, Op.Kminus, {Op.Sminus: -1}),
    ],
    "r-s-cross-commutators": [
        (Op.Rplus, Op.Splus, {}),
        (Op.Rplus, Op.Sminus, {}),
        (Op.Rminus, Op.Splus, {}),
        (Op.Rminus, Op.Sminus, {}),
    ],
}

# The Casimir checks: (check name, Casimir, exact eigenvalue on the state s).
# Both sides are polynomials of degree <= 2 in each label (a Casimir is
# quadratic in the bilinears), so agreement on {0..4}**2 holds everywhere.
_CASIMIR_CHECKS = (
    ("casimir-boson", "Cp", lambda s: 0),
    ("casimir-su2", "Csu2", lambda s: Fraction(s.n + s.p, 2) * (Fraction(s.n + s.p, 2) + 1)),
    ("casimir-su11", "Csu11", lambda s: Fraction(s.n - s.p, 2) ** 2 - Fraction(1, 4)),
    ("casimir-r", "CR", lambda s: Fraction(-3, 4)),
    ("casimir-s", "CS", lambda s: Fraction(-3, 4)),
)
_CASIMIR_WINDOW = [BasisIndex(n, p) for n in range(5) for p in range(5)]


def _scoped(check: dict) -> dict:
    """A check of polynomial identities, which hold on every state."""
    return {**check, "scope": "all n, p"}


def _max_coefficient(poly: Mapping) -> Fraction | int:
    return max(map(abs, poly.values()), default=0)


def _bracket_cases(relations):
    """Each relation [A, B] = sum of factor * G as a polynomial identity."""
    table = {**opalgebra._BILINEARS, None: opalgebra._ONE}
    for op_a, op_b, rhs in relations:
        diff = opalgebra.combine([
            (1, opalgebra._bracket(table[op_a], table[op_b])),
            *((-factor, table[op_g]) for op_g, factor in rhs.items()),
        ])
        yield _max_coefficient(diff), lambda: {"pair": _pair(op_a, op_b)}


def _interchange_residual(op_a: Op, op_b: Op) -> Fraction | int:
    """Largest coefficient of A + T B T.  The label interchange T sends the
    state (n, p) to (-1)**(p-n) (p, n): it swaps the a and b bosons and signs
    each monomial (-1)**(i-j+k-l)."""
    f, g = opalgebra._BILINEARS[op_a], opalgebra._BILINEARS[op_b]
    swapped = {(k, l, i, j): -c if (i - j + k - l) % 2 else c for (i, j, k, l), c in g.items()}
    return _max_coefficient(opalgebra.combine([(1, f), (1, swapped)]))


def suite_algebra(nmax: int = 12) -> dict:
    checks = {
        name: _scoped(_check(_bracket_cases(relations)))
        for name, relations in _LADDER_RELATIONS.items()
    }
    # a+- = -T b+- T.
    checks["interchange-symmetry"] = _scoped(_check(
        (_interchange_residual(op_a, op_b), lambda: {"op": op_a.value})
        for op_a, op_b in ((Op.Aplus, Op.Bplus), (Op.Aminus, Op.Bminus))
    ))
    for name, which, value in _CASIMIR_CHECKS:
        checks[name] = _scoped(_check(
            (abs(opalgebra.casimir_eigenvalue(which, s) - value(s)), lambda: {"state": list(s)})
            for s in _CASIMIR_WINDOW
        ))
    checks["label-diff-consistency"] = label_diff_consistency(min(nmax, 10))
    return checks


def label_diff_consistency(nmax: int = 10) -> dict:
    """Each first-order form against the label action, as exact identities.

    In the integer gauge the state (n, p) is the function
    sqrt(n! p!) carrier_M(n, p) = sign * min(n, p)! * x**(k/2) exp(-x/2) core.
    The form's image of that state (``opalgebra.diff_image``) and the sum of
    c_t times state t over the label image share the factor exp(-x/2), and
    their half powers differ by even shifts, so the two sides are Laurent
    polynomials compared exactly.  A mismatch's residual is the largest
    coefficient of their difference over the larger side's largest
    coefficient (2 for a flipped sign); a case is one (form, state).
    """
    def gauge(c: Carrier) -> int:
        return c.sign * factorial(min(c.label))

    def cases():
        for n, p in product(range(nmax + 1), repeat=2):
            state = opalgebra.exact_state(n, p)
            for op in opalgebra.FIRST_ORDER:
                image = opalgebra.diff_image(op, n, p)
                terms = []
                for t, coeff in opalgebra.apply_exact(op, state).items():
                    c = carrier_M(*t)
                    shift = (c.half_power - image.half_power) // 2
                    terms.append((coeff * gauge(c), c.core, shift))
                # lhs - rhs in one pass; the two sides are built on a mismatch only.
                diff = exactpoly.combination([(-gauge(image), image.core, 0), *terms])
                residual = 0
                if diff:
                    lhs, rhs = gauge(image) * image.core, exactpoly.combination(terms)
                    scale = max(lhs.max_abs_coefficient(), rhs.max_abs_coefficient())
                    residual = diff.max_abs_coefficient() / scale
                yield residual, lambda: {"op": op.value, "state": [n, p]}

    return _check(cases())


# ---------------------------------------------------------------------------
# quadrature suite
# ---------------------------------------------------------------------------


def _rule_exactness_cases(order: int):
    """Relative error of each rule on x**k, k below twice its order."""
    for o in sorted({1, 2, 8, min(order, 32), order}):
        r = quadrature.gauss_laguerre(o)
        top = max(r.nodes)
        for k in range(2 * o):
            if k * math.log(max(top, 2.0)) > 700.0:
                break  # power would overflow the float range
            rel = abs(Fraction(r.integrate(lambda x, k=k: x**k)) / factorial(k) - 1)
            yield float(rel), lambda: {"order": o, "k": k}


def _norm_cases(nmax: int, rule: quadrature.QuadratureRule):
    """The norm of L_n^(alpha) under the rule against (n + alpha)!/n!."""
    for alpha, n in product(range(4), range(min(nmax, 15) + 1)):
        poly = exactpoly.laguerre(n, alpha)
        value = quadrature.weighted_inner_product(poly, poly, alpha, rule)
        reference = Fraction(factorial(n + alpha), factorial(n))
        yield abs(value / float(reference) - 1.0), lambda: {"alpha": alpha, "n": n}


def suite_quadrature(nmax: int = 12, order: int = 64) -> dict:
    rule = quadrature.gauss_laguerre(order)
    checks = {
        "rule-exactness": _check(_rule_exactness_cases(order), 1e-12),
        "weight-sum": _check(
            [(abs(math.fsum(rule.weights) - 1.0), lambda: {"order": order})], 1e-13
        ),
        "orthonormality": _check((
            (gap, lambda: {"alpha": alpha, "n": n})
            for alpha in (0, 1, 2, 5)
            for n, gap in enumerate(_off_identity(quadrature.gram_matrix(alpha, nmax, rule)))
        ), 1e-11),
        "norm-formula": _check(_norm_cases(nmax, rule), 1e-11),
    }

    # Residual after projecting member 4 onto the first N members, N = 0..8.
    residuals = list(enumerate(quadrature.projection_convergence(carrier_M(4, 6), 2, 8, rule)))
    checks["projection-member"] = _check(((r, lambda: {"N": k}) for k, r in residuals[4:]), 1e-12)
    checks["projection-monotone"] = _check(
        ((b - a, lambda: {"N": k}) for (_, a), (k, b) in zip(residuals, residuals[1:])), 1e-14
    )
    return checks


# ---------------------------------------------------------------------------
# plane suite
# ---------------------------------------------------------------------------


def _mode_algebra_cases(singles: list[tuple[plane.ModeIndex, plane.ModeCoefficients]]):
    """The J+ element, [J+, J-] = 2 J3 and [J3, J+-] = +-J+- on single modes."""
    for idx, single in singles:
        plus = plane.apply_mode_operator(Op.Jplus, single)
        expected = float(SqrtSum.sqrt((idx.j - idx.m) * (idx.j + idx.m + 1)))
        got = plus.get(idx.j, idx.m + 1) if idx.m < idx.j else 0j
        yield abs(got - expected), lambda: {"mode": list(idx), "op": "J+"}
        comm = plane.mode_commutator(Op.Jplus, Op.Jminus, single)
        residual = abs(comm.get(idx.j, idx.m) - 2.0 * idx.m)
        yield residual, lambda: {"mode": list(idx), "pair": "[J+,J-]"}
        for op, shift, sign in ((Op.Jplus, 1, 1), (Op.Jminus, -1, -1)):
            lhs = plane.mode_commutator(Op.J3, op, single)
            rhs = plane.apply_mode_operator(op, single)
            residual = abs(lhs.get(idx.j, idx.m + shift) - sign * rhs.get(idx.j, idx.m + shift))
            yield residual, lambda: {"mode": list(idx), "pair": _pair(Op.J3, op)}


def _pointwise_cases():
    """J+ on mode amplitudes, sampled on a grid, against the differential form."""
    small = plane.PolarGrid.build(16, 16)
    angles = small.angular_nodes
    for idx in plane.modes_up_to(3):
        single = plane.ModeCoefficients(coeffs={idx: 1.0}, jmax=4)
        raised = plane.reconstruct(plane.apply_mode_operator(Op.Jplus, single), small)
        c = plane.radial_carrier(idx)
        phases = [np.exp(1j * (idx.m + 1) * phi) for phi in angles]
        for k, x in enumerate(small.radial_x):
            radial = opalgebra.apply_diff(Op.Jplus, c, x)
            for q, phi in enumerate(angles):
                residual = abs(radial * phases[q] - raised.values[k, q])
                yield residual, lambda: {"mode": list(idx), "x": x, "phi": phi}


def suite_plane(jmax: int = 6, radial_order: int = 64, angular: int = 64) -> dict:
    grid = plane.PolarGrid.build(radial_order, angular)
    modes = plane.modes_up_to(jmax)
    singles = [(idx, plane.ModeCoefficients(coeffs={idx: 1.0}, jmax=jmax)) for idx in modes]
    checks = {
        "gram-2d": _check((
            (gap, lambda: {"mode": list(idx)})
            for idx, gap in zip(modes, _off_identity(plane.gram_2d(jmax, grid)))
        ), 1e-10),
        "radial-equation": _check((
            (plane.radial_de_relative(idx, r), lambda: {"mode": list(idx), "r": r})
            for idx in modes for r in (0.3, 0.7, 1.5, 3.0)
        ), 1e-9),
    }

    seed_jmax = min(jmax + 2, 8)
    if radial_order <= seed_jmax:
        raise ValueError(
            f"--order {radial_order} is too small for the plane round trip: its seed modes "
            f"reach j={seed_jmax} and need --order at least {seed_jmax + 1}"
        )
    if grid.angular_count <= 2 * seed_jmax:
        grid = plane.PolarGrid.build(radial_order, max(angular, 32))
    seed = plane.ModeCoefficients(coeffs={
        idx: complex(1.0 + idx.j - 0.3 * idx.m, 0.5 * idx.m - 0.1 * idx.j)
        / (1.0 + idx.j**2 + idx.m**2)
        for idx in plane.modes_up_to(seed_jmax)
    }, jmax=seed_jmax)
    roundtrip = plane.decompose(plane.reconstruct(seed, grid), seed_jmax)
    checks["round-trip"] = _check((
        (abs(seed.get(*idx) - roundtrip.get(*idx)), lambda: {"mode": list(idx)})
        for idx in plane.modes_up_to(seed_jmax)
    ), 1e-10)
    checks["mode-operator-algebra"] = _check(_mode_algebra_cases(singles))
    checks["mode-casimir"] = _check(
        (abs(plane.mode_casimir(v).get(*idx) - idx.j * (idx.j + 1)), lambda: {"mode": list(idx)})
        for idx, v in singles
    )
    checks["pointwise-consistency"] = _check(_pointwise_cases(), 1e-8)
    return checks


# ---------------------------------------------------------------------------
# derived so(3,2) suite
# ---------------------------------------------------------------------------


# The weights of the diagonal generators on the state (n, p), typed here
# apart from the table.
_DIAGONAL_WEIGHTS = (
    (Op.J3, lambda n, p: Fraction(n - p, 2)),
    (Op.K3, lambda n, p: Fraction(n + p + 1, 2)),
)


def _diagonal_weight_cases(states: list[BasisIndex]):
    """J3 and K3 of each state against its weight times the state.

    A quadratic Casimir sees only the square of a diagonal element, so a
    sign slip there shows here alone."""
    for s in states:
        for op, weight in _DIAGONAL_WEIGHTS:
            image = opalgebra.apply_exact(op, opalgebra.exact_state(*s))
            diff = opalgebra.combine([(1, image), (-weight(*s), {s: 1})])
            yield _max_coefficient(diff), lambda: {"op": op.value, "state": list(s)}


def suite_so32(nmax: int = 12) -> dict:
    sc = opalgebra.derive_structure_constants()
    states = [BasisIndex(n, p) for n in range(nmax + 1) for p in range(nmax + 1)]
    checks = {
        "commutator-closure": _check(
            (gap, lambda: {"pair": _pair(*pair)}) for pair, gap in sc.closure_gaps()
        ),
        "antisymmetry": _check(
            (gap, lambda: {"pair": _pair(*pair)}) for pair, gap in sc.antisymmetry_gaps()
        ),
        "jacobi-identity": _check(
            (gap, lambda: {"triple": [g.value for g in triple]})
            for triple, gap in sc.jacobi_gaps()
        ),
    }
    witness = checks["commutator-closure"].get("witness")
    if witness:
        # Downstream quantities are meaningless on a broken algebra.
        reason = f"closure failed at {witness['pair']}"
        for name in ("killing-su2-block", "killing-casimir-constancy", "killing-casimir-value"):
            checks[name] = {**_check(()), "max_residual": None, "skipped_reason": reason}
    else:
        _, block_residual = opalgebra.su2_block_scale(sc)
        checks["killing-su2-block"] = _check([(block_residual, lambda: {"block": "su2"})])
        # Through the label action on every state of the window, each
        # compared with the ground state.
        values = {s: opalgebra.killing_casimir(sc, s) for s in states}
        checks["killing-casimir-constancy"] = _check(
            (abs(v - values[0, 0]), lambda: {"states": [[0, 0], list(s)]})
            for s, v in values.items() if s != (0, 0)
        )
        value = _check(
            (abs(v + Fraction(5, 4)), lambda: {"state": list(s)}) for s, v in values.items()
        )
        checks["killing-casimir-value"] = dict(
            value, eigenvalue=float(values[0, 0]), reference=-1.25
        )
    checks["diagonal-weights"] = _check(_diagonal_weight_cases(states))
    return checks


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_suites(
    names: list[str],
    nmax: int = 12,
    alpha_max: int = 10,
    order: int = 64,
    jmax: int = 6,
    angular: int = 64,
) -> dict:
    """Run the requested suites in order and assemble the combined report."""
    builders: dict[str, Callable[[], dict]] = {
        "exact": lambda: suite_exact(nmax=nmax, alpha_max=alpha_max),
        "algebra": lambda: suite_algebra(nmax=nmax),
        "quadrature": lambda: suite_quadrature(nmax=nmax, order=order),
        "plane": lambda: suite_plane(jmax=jmax, radial_order=order, angular=angular),
        "so32": lambda: suite_so32(nmax=nmax),
    }
    unknown = [n for n in names if n not in builders]
    if unknown:
        raise ValueError(f"unknown suite(s): {unknown}; choose from {list(builders)}")
    if "so32" in names and nmax < 1:
        # killing-casimir-constancy compares each state with (0, 0).
        raise ValueError(f"the so32 suite needs nmax at least 1 (got {nmax})")

    suites = {n: builders[n]() for n in names}

    all_pass = all(check["pass"] for checks in suites.values() for check in checks.values())
    return {"suites": suites, "all_pass": all_pass}
