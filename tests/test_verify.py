from fractions import Fraction

import pytest

from laguerre_ladder import verify
from laguerre_ladder.verify import _check


def _cases(residuals, calls=None):
    """(residual, where) pairs whose where() names the case index and logs the call."""
    for i, r in enumerate(residuals):
        def where(i=i):
            if calls is not None:
                calls.append(i)
            return {"case": i}

        yield r, where


def test_exact_check_passes_only_on_zero_residuals():
    assert _check(_cases([0, Fraction(0), 0.0])) == {
        "mode": "exact",
        "max_residual": 0.0,
        "tolerance": 0.0,
        "pass": True,
        "cases": 3,
    }
    failed = _check(_cases([0, 1e-300, 0]))
    assert failed["pass"] is False
    assert failed["max_residual"] == 1e-300
    assert failed["witness"] == {"case": 1}


def test_float_check_passes_within_tolerance():
    passed = _check(_cases([1e-13, 1e-12, 0.0]), 1e-12)
    assert passed == {
        "mode": "float",
        "max_residual": 1e-12,
        "tolerance": 1e-12,
        "pass": True,
        "cases": 3,
    }
    assert _check(_cases([1e-13, 2e-12]), 1e-12)["witness"] == {"case": 1}


def test_witness_is_the_first_failing_case_and_only_it_is_named():
    calls = []
    check = _check(_cases([0.0, 3.0, 5.0, 0.0, 4.0], calls), 1.0)
    assert check["max_residual"] == 5.0
    assert check["cases"] == 5
    assert check["witness"] == {"case": 1}
    assert calls == [1]


def test_a_passing_check_names_no_case():
    calls = []
    check = _check(_cases([0.0, 0.5], calls), 1.0)
    assert check["pass"] is True
    assert "witness" not in check
    assert calls == []


def test_a_nan_residual_fails_the_check():
    assert _check(_cases([0.0, float("nan")]), 1.0)["witness"] == {"case": 1}


@pytest.mark.parametrize("tolerance", [None, 1e-12])
def test_a_check_of_nothing_fails(tolerance):
    check = _check(iter(()), tolerance)
    assert check["pass"] is False
    assert check["cases"] == 0
    assert check["max_residual"] == 0.0
    assert "witness" not in check


def test_every_default_check_counts_its_cases_and_names_no_witness():
    report = verify.run_suites(list(verify.SUITE_NAMES))
    assert report["all_pass"] is True
    checks = [check for suite in report["suites"].values() for check in suite.values()]
    assert len(checks) == 39
    assert all(check["cases"] >= 1 and "witness" not in check for check in checks)
    assert report["suites"]["algebra"]["boson-commutators"]["cases"] == 1014
    assert report["suites"]["algebra"]["composite-definitions"]["cases"] == 676
    assert report["suites"]["so32"]["commutator-closure"]["cases"] == 45
    assert report["suites"]["quadrature"]["rule-exactness"]["cases"] == 214
    assert report["suites"]["plane"]["radial-equation"]["cases"] == 196
