"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s) including
the measured runtime; the listed runtime targets are informational.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from laguerre_ladder import exactpoly, opalgebra, plane, quadrature, verify
from laguerre_ladder.opalgebra import OperatorName as Op
from laguerre_ladder.plane import ModeCoefficients, PolarGrid
from laguerre_ladder.radicals import SqrtSum


def _report(num: int, name: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict} [{time.time() - started:.2f}s]")


def test_criterion_1_exact_de_suite():
    started = time.time()
    ok = True
    for n in range(31):
        for alpha in range(-n, 11):
            if not exactpoly.de_residual(n, alpha).is_zero():
                ok = False
    _report(1, "exact DE suite n<=30", ok, started)
    assert ok


def test_criterion_2_exact_ladder_suite():
    started = time.time()
    ok = True
    for n in range(31):
        for alpha in range(1 - n, 11):
            up, down = exactpoly.alpha_ladder_check(n, alpha)
            if not (up.is_zero() and down.is_zero()):
                ok = False
    _report(2, "exact ladder suite n<=30", ok, started)
    assert ok


def test_criterion_3_equation_operator_annihilation():
    started = time.time()
    ok = True
    for n in range(21):
        for p in range(21):
            if not opalgebra.e_residual_symbolic(n, p).is_zero():
                ok = False
    _report(3, "equation operator annihilation n,p<=20", ok, started)
    assert ok


def test_criterion_4_algebra_suite_exact():
    started = time.time()
    checks = verify.suite_algebra(nmax=12)
    exact_names = [
        "boson-commutators",
        "su2-commutators",
        "su11-commutators",
        "r-ladder-commutators",
        "s-ladder-commutators",
        "r-s-cross-commutators",
        "casimir-boson",
        "casimir-su2",
        "casimir-su11",
        "casimir-r",
        "casimir-s",
    ]
    ok = all(checks[name]["max_residual"] == 0.0 for name in exact_names)
    # independent spot values
    ok = ok and opalgebra.casimir_eigenvalue("Csu2", (2, 0)) == 2
    ok = ok and opalgebra.casimir_eigenvalue("Csu11", (3, 1)) == Fraction(3, 4)
    ok = ok and opalgebra.casimir_eigenvalue("CR", (7, 7)) == Fraction(-3, 4)
    ok = ok and opalgebra.casimir_eigenvalue("CS", (7, 2)) == Fraction(-3, 4)
    _report(4, "label algebra exact on every n, p", ok, started)
    assert ok


def test_criterion_5_label_differential_consistency():
    started = time.time()
    check = verify.label_diff_consistency(nmax=10)
    ok = check == {
        "mode": "exact",
        "max_residual": 0.0,
        "tolerance": 0.0,
        "pass": True,
        "cases": 726,
    }
    _report(5, "label/differential agreement, exact on 726 cases", ok, started)
    assert ok


def test_criterion_6_quadrature_orthonormality():
    started = time.time()
    rule = quadrature.gauss_laguerre(64)
    worst_gram = 0.0
    for alpha in (0, 1, 2, 5):
        gram = quadrature.gram_matrix(alpha, 20, rule)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(21)))))
    worst_norm = 0.0
    for alpha in range(4):
        for n in range(16):
            poly = exactpoly.laguerre(n, alpha)
            got = quadrature.weighted_inner_product(poly, poly, alpha, rule)
            want = Fraction(math.factorial(n + alpha), math.factorial(n))
            worst_norm = max(worst_norm, abs(got / float(want) - 1.0))
    ok = worst_gram < 1e-11 and worst_norm < 1e-11
    _report(6, f"orthonormality (gram {worst_gram:.2e}, norm {worst_norm:.2e})", ok, started)
    assert ok


def test_criterion_7_plane_suite():
    started = time.time()
    grid = PolarGrid.build(64, 64)

    gram = plane.gram_2d(6, grid)
    gram_err = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))

    de_err = 0.0
    for idx in plane.modes_up_to(6):
        for r in (0.3, 0.7, 1.5, 3.0):
            de_err = max(de_err, plane.radial_de_relative(idx, r))

    rng = np.random.default_rng(23)
    coeffs = ModeCoefficients(
        coeffs={
            idx: complex(rng.standard_normal(), rng.standard_normal())
            for idx in plane.modes_up_to(8)
        },
        jmax=8,
    )
    roundtrip = plane.decompose(plane.reconstruct(coeffs, grid), 8)
    rt_err = coeffs.max_abs_diff(roundtrip)

    ops_exact = True
    for idx in plane.modes_up_to(6):
        single = ModeCoefficients(coeffs={idx: 1.0}, jmax=6)
        plus = plane.apply_mode_operator(Op.Jplus, single)
        up = (idx.j - idx.m) * (idx.j + idx.m + 1)
        if up:
            ops_exact &= plus.get(idx.j, idx.m + 1) == float(SqrtSum.sqrt(up))
        else:
            ops_exact &= not plus.coeffs
        comm = plane.mode_commutator(Op.Jplus, Op.Jminus, single)
        ops_exact &= comm.get(idx.j, idx.m) == 2.0 * idx.m

    ok = gram_err < 1e-10 and de_err < 1e-9 and rt_err < 1e-10 and ops_exact
    _report(
        7,
        f"plane suite (gram {gram_err:.2e}, de {de_err:.2e}, roundtrip {rt_err:.2e})",
        ok,
        started,
    )
    assert ok


def test_criterion_8_so32_closure_and_killing_casimir():
    started = time.time()
    sc = opalgebra.derive_structure_constants()
    entries = {v for rows in sc.table for row in rows for v in row}
    killing = {v for row in sc.killing_form for v in row}
    values = {
        (n, p): opalgebra.killing_casimir(sc, (n, p)) for n in range(13) for p in range(13)
    }
    # The defect patches the label action, not the table: closure stays
    # clean, and the Killing Casimir on (1, 2) comes out wrong.
    with opalgebra.injected_defect("jplus-sign"):
        broken = opalgebra.derive_structure_constants()
        broken_value = opalgebra.killing_casimir(broken, (1, 2))
    ok = (
        len(sc.leftover) == 45
        and not any(sc.leftover.values())
        and all(gap == 0 for _, gap in sc.antisymmetry_gaps())
        and all(gap == 0 for _, gap in sc.jacobi_gaps())
        and entries == {0, 1, -1, 2, -2, 4, -4}
        and killing == {-24, -12, 0, 6, 12}
        and set(values.values()) == {Fraction(-5, 4)}
        and not any(broken.leftover.values())
        and broken_value != Fraction(-5, 4)
    )
    _report(
        8,
        f"so(3,2) closure (exact, {len(sc.leftover)} polynomial pairs, casimir "
        f"{values[0, 0]} vs -5/4 on {len(values)} states)",
        ok,
        started,
    )
    assert ok


def test_criterion_9_cli_contract():
    started = time.time()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    clean = subprocess.run(
        [sys.executable, "-m", "laguerre_ladder.cli", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
        env=env,
    )
    report = json.loads(clean.stdout) if clean.returncode in (0, 1) else {}

    broken = subprocess.run(
        [
            sys.executable,
            "-m",
            "laguerre_ladder.cli",
            "verify",
            "--suite",
            "all",
            "--defect",
            "jplus-sign",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    ok = (
        clean.returncode == 0
        and report.get("all_pass") is True
        and broken.returncode == 1
        and 'FAILED algebra/label-diff-consistency at {"op": "J+", "state": [1, 2]}'
        in broken.stderr.splitlines()
    )
    _report(9, "command-line verify contract", ok, started)
    assert ok
