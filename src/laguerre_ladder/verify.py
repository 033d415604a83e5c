"""Machine-checkable identity suites with a structured report.

Every suite returns an ordered mapping from identity name to a check
record: computation mode ("exact" checks must come out identically zero,
"float" checks carry a tolerance), the worst residual observed, and a
pass flag; some also count their cases (a check of nothing fails) and
name a witness where they first failed.  The command-line front end
renders the combined report as JSON and turns any failure into a nonzero
exit code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping

import numpy as np

from . import exactpoly, opalgebra, plane, quadrature
from .basis import BasisIndex, Carrier, carrier_M
from .opalgebra import OperatorName as Op
from .radicals import SqrtSum

SUITE_NAMES = ("exact", "algebra", "quadrature", "plane", "so32")


def _exact_check(residual, cases: int | None = None, witness: dict | None = None) -> dict:
    """A check that passes only at a residual of exactly zero (float or Fraction).

    With ``cases`` (the number of states, pairs or points checked) it also
    fails when nothing was checked; ``witness`` names where it failed first.
    """
    check = {
        "mode": "exact",
        "max_residual": float(residual),
        "tolerance": 0.0,
        "pass": residual == 0 and cases != 0,
    }
    if cases is not None:
        check["cases"] = cases
    if witness is not None:
        check["witness"] = witness
    return check


def _float_check(residual: float, tolerance: float) -> dict:
    residual = float(residual)
    return {
        "mode": "float",
        "max_residual": residual,
        "tolerance": tolerance,
        "pass": bool(residual <= tolerance),
    }


def _poly_residual(p: exactpoly.LaurentPoly) -> float:
    return float(p.max_abs_coefficient())


def _vec_residual(state: BasisIndex, actual: Mapping, expected: Mapping) -> float:
    """Largest normalised coefficient of actual - expected, images of one state."""
    diff = dict(actual)
    for k, v in expected.items():
        diff[k] = diff.get(k, 0) - v
    normalised = opalgebra.normalised(state, {k: v for k, v in diff.items() if v})
    return max((abs(float(v)) for v in normalised.values()), default=0.0)


# ---------------------------------------------------------------------------
# exact suite: polynomial identities
# ---------------------------------------------------------------------------


def suite_exact(nmax: int = 12, alpha_max: int = 10) -> dict:
    checks: dict[str, dict] = {}

    worst = 0.0
    for n in range(nmax + 1):
        for a in range(-n, alpha_max + 1):
            worst = max(worst, _poly_residual(exactpoly.de_residual(n, a)))
    checks["defining-de-residual"] = _exact_check(worst)

    worst_up = worst_down = 0.0
    cases = 0
    for n in range(nmax + 1):
        for a in range(1 - n, alpha_max + 1):
            up, down = exactpoly.alpha_ladder_check(n, a)
            worst_up = max(worst_up, _poly_residual(up))
            worst_down = max(worst_down, _poly_residual(down))
            cases += 1
    checks["ladder-raise-residual"] = _exact_check(worst_up, cases)
    checks["ladder-lower-residual"] = _exact_check(worst_down, cases)

    worst, cases = 0.0, 0
    for n in range(1, nmax + 1):
        for a in range(1 - n, alpha_max + 1):
            worst = max(worst, _poly_residual(exactpoly.three_term_residual(n, a)))
            cases += 1
    checks["three-term-recurrence"] = _exact_check(worst, cases)

    worst = 0.0
    for n in range(min(nmax, 20) + 1):
        for a in range(n + 1):
            sign = -1 if a % 2 else 1
            lhs = exactpoly.laguerre(n, -a)
            rhs = (sign * Fraction(factorial(n - a), factorial(n))) * exactpoly.laguerre(
                n - a, a
            ).shift(a)
            worst = max(worst, _poly_residual(lhs - rhs))
    checks["negative-parameter-identity"] = _exact_check(worst)

    worst = 0.0
    for n in range(nmax + 1):
        for p in range(nmax + 1):
            worst = max(worst, _poly_residual(opalgebra.e_residual_symbolic(n, p)))
    checks["equation-operator-annihilation"] = _exact_check(worst)

    worst = 0.0
    for n in range(nmax + 1):
        for p in range(nmax + 1):
            a, b = carrier_M(n, p), carrier_M(p, n)
            same = (
                a.norm_squared == b.norm_squared
                and a.half_power == b.half_power
                and a.core == b.core
                and a.sign == (-1 if (p - n) % 2 else 1) * b.sign
            )
            if not same:
                worst = 1.0
    checks["carrier-swap-symmetry"] = _exact_check(worst)
    return checks


# ---------------------------------------------------------------------------
# algebra suite: label-space commutators, Casimirs, differential consistency
# ---------------------------------------------------------------------------


def _triple_relations(casimir: str) -> list[tuple[Op, Op, dict[Op | None, int]]]:
    """[H, E+] = step E+, [H, E-] = -step E- and [E+, E-] = 2 sign step H."""
    h, plus, minus, step, sign = opalgebra.SL2_TRIPLES[casimir]
    return [
        (h, plus, {plus: step}),
        (h, minus, {minus: -step}),
        (plus, minus, {h: 2 * sign * step}),
    ]


# Ladder relations [A, B] = sum of factor * G, checked on every state; G None
# is the identity and an empty sum is zero.
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
    "r-s-cross-commutators": [
        (Op.Rplus, Op.Splus, {}),
        (Op.Rplus, Op.Sminus, {}),
        (Op.Rminus, Op.Splus, {}),
        (Op.Rminus, Op.Sminus, {}),
    ],
}

# The Casimir checks: (check name, Casimir, exact eigenvalue on the state s).
_CASIMIR_CHECKS = (
    ("casimir-boson", "Cp", lambda s: 0),
    ("casimir-su2", "Csu2", lambda s: Fraction(s.n + s.p, 2) * (Fraction(s.n + s.p, 2) + 1)),
    ("casimir-su11", "Csu11", lambda s: Fraction(s.n - s.p, 2) ** 2 - Fraction(1, 4)),
    ("casimir-r", "CR", lambda s: Fraction(-3, 4)),
    ("casimir-s", "CS", lambda s: Fraction(-3, 4)),
)


def suite_algebra(nmax: int = 12) -> dict:
    checks: dict[str, dict] = {}
    states = [BasisIndex(n, p) for n in range(nmax + 1) for p in range(nmax + 1)]

    for name, relations in _LADDER_RELATIONS.items():
        worst = 0.0
        for s in states:
            vec = opalgebra.exact_state(*s)
            for op_a, op_b, rhs in relations:
                actual = opalgebra.commutator_exact(op_a, op_b, vec)
                expected: dict = {}
                for op_g, factor in rhs.items():
                    image = vec if op_g is None else opalgebra.apply_exact(op_g, vec)
                    for k, v in image.items():
                        expected[k] = expected.get(k, 0) + v * factor
                worst = max(worst, _vec_residual(s, actual, expected))
        checks[name] = _exact_check(worst)

    worst = 0.0
    for s in states:
        for op_a, op_b in ((Op.Aplus, Op.Bplus), (Op.Aminus, Op.Bminus)):
            direct = opalgebra.apply_label(op_a, opalgebra.LabelVector.basis_state(*s))
            swapped = opalgebra.twisted_swap(
                opalgebra.apply_label(
                    op_b, opalgebra.twisted_swap(opalgebra.LabelVector.basis_state(*s))
                )
            )
            worst = max(worst, direct.max_abs_diff(-1.0 * swapped))
    checks["interchange-symmetry"] = _exact_check(worst)

    for name, which, expected in _CASIMIR_CHECKS:
        worst = max(abs(opalgebra.casimir_eigenvalue(which, s) - expected(s)) for s in states)
        checks[name] = _exact_check(worst)

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
    coefficient (2 for a flipped sign); the witness is the first mismatched
    (form, state).
    """
    def gauge(c: Carrier) -> int:
        return c.sign * factorial(min(c.label))

    worst, witness, cases = Fraction(0), None, 0
    for n in range(nmax + 1):
        for p in range(nmax + 1):
            state = opalgebra.exact_state(n, p)
            for op in opalgebra.FIRST_ORDER:
                image = opalgebra.diff_image(op, n, p)
                lhs, rhs = gauge(image) * image.core, exactpoly.LaurentPoly()
                for t, coeff in opalgebra.apply_exact(op, state).items():
                    c = carrier_M(*t)
                    shift = (c.half_power - image.half_power) // 2
                    rhs = rhs + (coeff * gauge(c)) * c.core.shift(shift)
                if lhs != rhs:
                    scale = max(lhs.max_abs_coefficient(), rhs.max_abs_coefficient())
                    worst = max(worst, (lhs - rhs).max_abs_coefficient() / scale)
                    witness = witness or {"op": op.value, "state": [n, p]}
                cases += 1
    return _exact_check(worst, cases, witness)


# ---------------------------------------------------------------------------
# quadrature suite
# ---------------------------------------------------------------------------


def suite_quadrature(nmax: int = 12, order: int = 64) -> dict:
    checks: dict[str, dict] = {}
    rule = quadrature.gauss_laguerre(order)

    worst = 0.0
    for o in sorted({1, 2, 8, min(order, 32), order}):
        r = quadrature.gauss_laguerre(o)
        top = max(r.nodes)
        for k in range(2 * o):
            if k * math.log(max(top, 2.0)) > 700.0:
                break  # power would overflow the float range
            approx = r.integrate(lambda x, k=k: x**k)
            rel = abs(Fraction(approx) / factorial(k) - 1)
            worst = max(worst, float(rel))
    checks["rule-exactness"] = _float_check(worst, 1e-12)

    checks["weight-sum"] = _float_check(abs(math.fsum(rule.weights) - 1.0), 1e-13)

    worst = 0.0
    for alpha in (0, 1, 2, 5):
        gram = quadrature.gram_matrix(alpha, nmax, rule)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    checks["orthonormality"] = _float_check(worst, 1e-11)

    worst = 0.0
    for alpha in range(4):
        for n in range(min(nmax, 15) + 1):
            poly = exactpoly.laguerre(n, alpha)
            value = quadrature.weighted_inner_product(poly, poly, alpha, rule)
            reference = Fraction(factorial(n + alpha), factorial(n))
            worst = max(worst, abs(value / float(reference) - 1.0))
    checks["norm-formula"] = _float_check(worst, 1e-11)

    residuals = quadrature.projection_convergence(carrier_M(4, 6), 2, 8, rule)
    tail = max(residuals[4:])
    monotone = max(
        (b - a for a, b in zip(residuals, residuals[1:])),
        default=0.0,
    )
    checks["projection-member"] = _float_check(tail, 1e-12)
    checks["projection-monotone"] = _float_check(max(monotone, 0.0), 1e-14)
    return checks


# ---------------------------------------------------------------------------
# plane suite
# ---------------------------------------------------------------------------


def _seed_coefficients(jmax: int) -> plane.ModeCoefficients:
    coeffs = {
        idx: complex(1.0 + idx.j - 0.3 * idx.m, 0.5 * idx.m - 0.1 * idx.j)
        / (1.0 + idx.j**2 + idx.m**2)
        for idx in plane.modes_up_to(jmax)
    }
    return plane.ModeCoefficients(coeffs=coeffs, jmax=jmax)


def suite_plane(jmax: int = 6, radial_order: int = 64, angular: int = 64) -> dict:
    checks: dict[str, dict] = {}
    grid = plane.PolarGrid.build(radial_order, angular)

    gram = plane.gram_2d(jmax, grid)
    checks["gram-2d"] = _float_check(
        float(np.max(np.abs(gram - np.eye(gram.shape[0])))), 1e-10
    )

    worst = 0.0
    for idx in plane.modes_up_to(jmax):
        for r in (0.3, 0.7, 1.5, 3.0):
            worst = max(worst, plane.radial_de_relative(idx, r))
    checks["radial-equation"] = _float_check(worst, 1e-9)

    seed = _seed_coefficients(min(jmax + 2, 8))
    grid_rt = grid if grid.angular_count > 2 * seed.jmax else plane.PolarGrid.build(
        radial_order, max(angular, 32)
    )
    roundtrip = plane.decompose(plane.reconstruct(seed, grid_rt), seed.jmax)
    checks["round-trip"] = _float_check(seed.max_abs_diff(roundtrip), 1e-10)

    worst = 0.0
    for idx in plane.modes_up_to(jmax):
        single = plane.ModeCoefficients(coeffs={idx: 1.0}, jmax=jmax)
        plus = plane.apply_mode_operator(Op.Jplus, single)
        expected = float(SqrtSum.sqrt((idx.j - idx.m) * (idx.j + idx.m + 1)))
        got = plus.get(idx.j, idx.m + 1) if idx.m < idx.j else 0j
        worst = max(worst, abs(got - expected))
        comm = plane.mode_commutator(Op.Jplus, Op.Jminus, single)
        worst = max(worst, abs(comm.get(idx.j, idx.m) - 2.0 * idx.m))
        for op, shift, sign in ((Op.Jplus, 1, 1), (Op.Jminus, -1, -1)):
            lhs = plane.mode_commutator(Op.J3, op, single)
            rhs = plane.apply_mode_operator(op, single)
            diff = max(
                abs(lhs.get(idx.j, idx.m + shift) - sign * rhs.get(idx.j, idx.m + shift)),
                0.0,
            )
            worst = max(worst, diff)
    checks["mode-operator-algebra"] = _exact_check(worst)

    worst = 0.0
    for idx in plane.modes_up_to(jmax):
        single = plane.ModeCoefficients(coeffs={idx: 1.0}, jmax=jmax)
        got = plane.mode_casimir(single).get(idx.j, idx.m)
        worst = max(worst, abs(got - idx.j * (idx.j + 1)))
    checks["mode-casimir"] = _exact_check(float(worst))

    worst = 0.0
    small = plane.PolarGrid.build(16, 16)
    for idx in plane.modes_up_to(3):
        single = plane.ModeCoefficients(coeffs={idx: 1.0}, jmax=4)
        raised = plane.reconstruct(plane.apply_mode_operator(Op.Jplus, single), small)
        c = plane.radial_carrier(idx)
        for k, x in enumerate(small.radial_x):
            radial = opalgebra.apply_diff(Op.Jplus, c, x)
            for q, phi in enumerate(small.angular_nodes):
                direct = radial * np.exp(1j * (idx.m + 1) * phi)
                worst = max(worst, abs(direct - raised.values[k, q]))
    checks["pointwise-consistency"] = _float_check(worst, 1e-8)
    return checks


# ---------------------------------------------------------------------------
# derived so(3,2) suite
# ---------------------------------------------------------------------------


def suite_so32() -> dict:
    checks: dict[str, dict] = {}
    sc = opalgebra.derive_structure_constants()
    witness = None
    if sc.witness is not None:
        (op_a, op_b), state = sc.witness
        witness = {"pair": f"[{op_a.value},{op_b.value}]", "state": list(state)}
    closure = _exact_check(sc.closure_residual, sc.cases, witness)
    checks["commutator-closure"] = closure
    checks["antisymmetry"] = _exact_check(sc.antisymmetry_residual())
    checks["jacobi-identity"] = _exact_check(sc.jacobi_residual())

    if sc.witness is not None:
        # Downstream quantities are meaningless on a broken algebra.
        reason = f"closure failed at {closure['witness']['pair']} on {tuple(state)}"
        for name in ("killing-su2-block", "killing-casimir-constancy", "killing-casimir-value"):
            checks[name] = {
                "mode": "exact",
                "max_residual": None,  # nothing was measured
                "tolerance": 0.0,
                "pass": False,
                "skipped_reason": reason,
            }
        return checks

    _, block_residual = opalgebra.su2_block_scale(sc)
    checks["killing-su2-block"] = _exact_check(block_residual)

    states = [(0, 0), (1, 2), (2, 4), (5, 3), (3, 3), (4, 1)]
    values = [opalgebra.killing_casimir(sc, s) for s in states]
    checks["killing-casimir-constancy"] = _exact_check(max(values) - min(values))
    record = _exact_check(max(abs(v + Fraction(5, 4)) for v in values))
    record["eigenvalue"] = float(values[0])
    record["reference"] = -1.25
    checks["killing-casimir-value"] = record
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
        "so32": lambda: suite_so32(),
    }
    unknown = [n for n in names if n not in builders]
    if unknown:
        raise ValueError(f"unknown suite(s): {unknown}; choose from {list(builders)}")

    suites = {n: builders[n]() for n in names}

    all_pass = all(check["pass"] for checks in suites.values() for check in checks.values())
    return {"suites": suites, "all_pass": all_pass}
