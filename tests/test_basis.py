import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_ladder.basis import (
    BasisIndex,
    carrier_L,
    carrier_M,
    derived_core,
    evaluate,
    evaluate_derivative,
)
from laguerre_ladder.exactpoly import LaurentPoly, laguerre

SAMPLE_X = (0.1, 0.3, 0.5, 1.0, 1.7, 2.0, 3.0, 5.0, 8.0, 10.0)
FD_X = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def test_ground_carrier():
    c = carrier_M(0, 0)
    assert (c.sign, c.norm_squared, c.half_power) == (1, 1, 0)
    assert c.core == LaurentPoly({0: 1})
    assert evaluate(c, 0.0) == 1.0


def test_carrier_examples():
    c = carrier_M(2, 2)
    assert c.norm_squared == 1
    assert c.core == laguerre(2, 0) == LaurentPoly({0: 1, 1: -2, 2: Fraction(1, 2)})
    assert evaluate(carrier_M(1, 1), 1.0) == 0.0
    assert evaluate(carrier_M(0, 2), 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2), rel=1e-15
    )


def test_swap_gives_same_function_with_alternating_sign():
    a, b = carrier_M(1, 2), carrier_M(2, 1)
    assert (a.norm_squared, a.half_power, a.core) == (b.norm_squared, b.half_power, b.core)
    assert a.sign == 1 and b.sign == -1


def test_swap_symmetry_exhaustive():
    for n in range(16):
        for p in range(16):
            a, b = carrier_M(n, p), carrier_M(p, n)
            assert (a.norm_squared, a.half_power, a.core) == (
                b.norm_squared,
                b.half_power,
                b.core,
            )
            expected_sign = -1 if (p - n) % 2 else 1
            assert a.sign == expected_sign * b.sign
            for x in SAMPLE_X:
                assert evaluate(a, x) == expected_sign * evaluate(b, x)


@given(st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_canonical_half_power(n, p):
    c = carrier_M(n, p)
    assert c.half_power == abs(p - n) >= 0
    assert c.label == BasisIndex(n, p)


def test_labels_validated():
    with pytest.raises(ValueError):
        carrier_M(-1, 0)
    with pytest.raises(ValueError):
        carrier_M(0, -2)


def test_carriers_are_cached_per_typed_label():
    c = carrier_M(1, 2)
    assert carrier_M(1, 2) is c
    assert carrier_L(Fraction(3, 2), Fraction(-1, 2)) is c
    # A float label is its own cache key, so it still reaches the check.
    with pytest.raises(ValueError):
        carrier_M(1.0, 2)
    with pytest.raises(ValueError):
        carrier_M(1, 2.0)


# -- spin labelling ------------------------------------------------------------


def test_spin_relabelling():
    assert carrier_L(0, 0) == carrier_M(0, 0)
    assert carrier_L(1, 1) == carrier_M(2, 0)
    assert carrier_L(Fraction(3, 2), Fraction(1, 2)) == carrier_M(2, 1)


def test_spin_degeneracy():
    for j in range(9):
        for m in range(0, j + 1):
            a, b = carrier_L(j, m), carrier_L(j, -m)
            # integer modes: the alternating sign (-1)**(2m) is always +1
            assert a == b
            for x in (0.3, 1.7):
                assert evaluate(a, x) == evaluate(b, x)


def test_spin_validation():
    with pytest.raises(ValueError):
        carrier_L(1, 2)
    with pytest.raises(ValueError):
        carrier_L(Fraction(3, 2), 0)


# -- evaluation ------------------------------------------------------------------


def test_eval_domain():
    c = carrier_M(0, 1)
    with pytest.raises(ValueError):
        evaluate(c, -0.5)
    assert evaluate(c, 0.0) == 0.0  # positive half power vanishes at the origin
    with pytest.raises(ValueError):
        evaluate_derivative(c, 0.0)


def test_derivative_examples():
    assert evaluate_derivative(carrier_M(0, 0), 2.0) == pytest.approx(
        -math.exp(-1.0) / 2, rel=1e-15
    )
    assert evaluate_derivative(carrier_M(0, 2), 2.0) == pytest.approx(0.0, abs=1e-16)


def test_derived_core_reproduces_exponential_derivative():
    # d/dx exp(-x/2) has core -1/2 at the same outer factors.
    out = derived_core(0, LaurentPoly({0: 1}))
    assert out == LaurentPoly({0: Fraction(-1, 2)})
    # Cached: an equal core gets the same object (and its built evaluator).
    assert derived_core(0, LaurentPoly({0: 1})) is out


def test_second_derivative_against_first():
    c = carrier_M(3, 5)
    h = 1e-6
    for x in (0.5, 1.0, 4.0):
        fd = (evaluate_derivative(c, x + h) - evaluate_derivative(c, x - h)) / (2 * h)
        exact = evaluate_derivative(c, x, order=2)
        assert abs(exact - fd) <= 1e-6 * max(abs(exact), abs(fd), 1.0)


def test_derivative_matches_central_differences():
    h = 1e-6
    for n in range(11):
        for p in range(11):
            c = carrier_M(n, p)
            exact = [evaluate_derivative(c, x) for x in FD_X]
            scale = max(map(abs, exact))  # zero crossings would defeat pointwise ratios
            for x, e in zip(FD_X, exact):
                fd = (evaluate(c, x + h) - evaluate(c, x - h)) / (2 * h)
                assert abs(e - fd) / scale < 1e-7, (n, p, x)


def test_eval_derivative_order_validation():
    with pytest.raises(ValueError):
        evaluate_derivative(carrier_M(0, 0), 1.0, order=3)


def test_extreme_label_gap_does_not_underflow():
    # norm_squared is sub-subnormal here but its square root is representable
    c = carrier_M(200, 0)
    value = evaluate(c, 1.0)
    assert 0.0 < abs(value) < 1e-150
