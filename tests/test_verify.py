from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_ladder import basis, opalgebra, verify
from laguerre_ladder.basis import BasisIndex
from laguerre_ladder.opalgebra import OperatorName as Op
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
    assert len(checks) == 40
    assert all(check["cases"] >= 1 and "witness" not in check for check in checks)
    algebra = report["suites"]["algebra"]
    # Relations and the interchange count polynomial identities, the
    # Casimirs their {0..4}**2 comparison window; all hold on every state.
    assert algebra["boson-commutators"]["cases"] == 6
    assert algebra["composite-definitions"]["cases"] == 4
    assert algebra["interchange-symmetry"]["cases"] == 2
    assert algebra["casimir-su2"]["cases"] == 25
    assert {name for name, c in algebra.items() if c.get("scope") == "all n, p"} == (
        set(algebra) - {"label-diff-consistency"}
    )
    so32 = report["suites"]["so32"]
    assert so32["commutator-closure"]["cases"] == 45
    # Every state n, p <= 12: each against (0, 0), then J3 and K3 on each.
    assert so32["killing-casimir-constancy"]["cases"] == 168
    assert so32["killing-casimir-value"]["cases"] == 169
    assert so32["diagonal-weights"]["cases"] == 338
    assert report["suites"]["quadrature"]["rule-exactness"]["cases"] == 214
    assert report["suites"]["plane"]["radial-equation"]["cases"] == 196


# The checks that apply the label action to states; the rest are identities
# of the generator table, which a patch of the label action cannot reach.
PER_STATE = {
    "label-diff-consistency", "killing-casimir-constancy", "killing-casimir-value",
    "diagonal-weights",
}
PATCHED_STATE = (2, 3)


def _patches():
    for op in opalgebra.SO32_GENERATORS:
        yield op, "sign"
        if op in (Op.J3, Op.K3):
            yield op, "plus-one"


@pytest.mark.parametrize("op, patch", list(_patches()), ids=lambda v: getattr(v, "value", v))
def test_a_one_state_patch_of_the_label_action_fails_a_per_state_check(monkeypatch, op, patch):
    original = opalgebra._image
    assert all(original(op, *PATCHED_STATE, None).values())

    def patched(name, n, p, defect):
        image = original(name, n, p, defect)
        if name is not op or (n, p) != PATCHED_STATE:
            return image
        if patch == "sign":
            return {t: -e for t, e in image.items()}
        return {t: e + 1 for t, e in image.items()}

    monkeypatch.setattr(opalgebra, "_image", patched)
    report = verify.run_suites(["algebra", "so32"])
    failing = {
        name for suite in report["suites"].values() for name, c in suite.items() if not c["pass"]
    }
    assert failing and failing <= PER_STATE


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_casimirs_equal_their_closed_forms_at_large_labels(n, p):
    state = BasisIndex(n, p)
    for _, which, value in verify._CASIMIR_CHECKS:
        assert opalgebra.casimir_eigenvalue(which, state) == value(state)


def test_label_diff_consistency_takes_no_square_root(monkeypatch):
    # Its differential images are compared exactly: no carrier it builds is
    # evaluated or hashed, so none computes its norm.
    calls = []
    monkeypatch.setattr(basis, "float_sqrt", lambda q: calls.append(q) or 1.0)
    opalgebra.diff_image.cache_clear()
    basis.carrier_M.cache_clear()
    try:
        assert verify.label_diff_consistency(10)["pass"]
    finally:
        opalgebra.diff_image.cache_clear()
        basis.carrier_M.cache_clear()
    assert calls == []
