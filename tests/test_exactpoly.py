import functools
import math
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from laguerre_ladder.exactpoly import (
    LaurentPoly,
    alpha_ladder_check,
    combination,
    de_residual,
    laguerre,
    three_term_residual,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
terms = st.dictionaries(st.integers(-4, 8), rationals, max_size=6)
polys = terms.map(LaurentPoly)


# -- Laurent ring ------------------------------------------------------------


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_derivative_product_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(polys)
def test_no_stored_zeros(p):
    assert all(c != 0 for _, c in p.items())


# -- the integer form against an independent reference ------------------------
#
# The reference is a plain {exponent: Fraction} map, added, multiplied and
# differentiated term by term; LaurentPoly must agree with it through items()
# and keep its (integer numerators, one denominator) form canonical.


def _ref(d: dict) -> list[tuple[int, Fraction]]:
    return sorted((k, Fraction(c)) for k, c in d.items() if c)


def _ref_sum(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return out


def _ref_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def _assert_canonical(p: LaurentPoly) -> None:
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._coeffs.values())
    assert gcd(p._den, *p._coeffs.values()) == 1


@given(terms, terms, rationals, st.integers(-5, 5))
def test_ring_operations_match_the_fraction_reference(a, b, q, k):
    p, r = LaurentPoly(a), LaurentPoly(b)
    cases = [
        (p, a),
        (p + r, _ref_sum(a, b, 1)),
        (p - r, _ref_sum(a, b, -1)),
        (-p, {e: -c for e, c in a.items()}),
        (p * r, _ref_product(a, b)),
        (p * q, {e: c * q for e, c in a.items()}),
        (q * p, {e: c * q for e, c in a.items()}),
        (p * q.numerator, {e: c * q.numerator for e, c in a.items()}),
        (p.shift(k), {e + k: c for e, c in a.items()}),
        (p.derivative(), {e - 1: e * c for e, c in a.items()}),
    ]
    for got, want in cases:
        assert got.items() == _ref(want)
        _assert_canonical(got)


@given(polys, polys, rationals.filter(bool))
def test_two_routes_give_one_form(p, r, q):
    routes = [
        (p * Fraction(1, 3)) * 3,
        (p * q) * (1 / q),
        (p + r) - r,
        -(-p),
        p.shift(3).shift(-3),
        LaurentPoly(dict(p.items())),
        LaurentPoly({k: c * 6 for k, c in p.items()}) * Fraction(1, 6),
    ]
    for other in routes:
        assert other == p
        assert hash(other) == hash(p)
        assert (other._den, other._coeffs) == (p._den, p._coeffs)


# -- one combination over one denominator --------------------------------------

scales = st.one_of(st.integers(-30, 30), rationals, st.just(0), st.just(Fraction(0)))
combination_terms = st.lists(st.tuples(scales, polys, st.integers(-6, 6)), max_size=6)


def _operator_chain(terms) -> LaurentPoly:
    """The same sum through +, -, scalar * and shift, one operation at a time."""
    out = LaurentPoly()
    for scale, poly, shift in terms:
        if scale < 0:
            out = out - (-scale) * poly.shift(shift)
        else:
            out = out + scale * poly.shift(shift)
    return out


@given(combination_terms)
@example([])
@example([(1, LaurentPoly({0: 1, -2: Fraction(1, 3)}), 2),
          (-1, LaurentPoly({2: 1, 0: Fraction(1, 3)}), 0)])  # cancels to zero
@example([(Fraction(3, 4), LaurentPoly({1: Fraction(2, 3)}), -3),
          (2, LaurentPoly({-2: Fraction(-1, 4)}), 0)])  # cancels to zero
def test_combination_is_the_operator_chain(terms):
    got = combination(terms)
    want = _operator_chain(terms)
    assert got == want
    assert hash(got) == hash(want)
    assert got.items() == want.items()
    _assert_canonical(got)


def test_combination_edge_cases():
    p = LaurentPoly({-1: Fraction(1, 6), 3: Fraction(-5, 4)})
    assert combination([]) == LaurentPoly() and combination([])._den == 1
    assert combination([(0, p, 2), (Fraction(0), p, -1), (5, LaurentPoly(), 0)]).is_zero()
    # x**2 p - x p.shift(1) cancels; so does 1/2 p + (-1/2) p.
    cancelled = combination([(1, p, 2), (-1, p.shift(1), 1),
                             (Fraction(1, 2), p, 0), (Fraction(-1, 2), p, 0)])
    assert cancelled.is_zero() and (cancelled._den, cancelled._coeffs) == (1, {})
    # Over the common denominator 6, 1/2 (2/3) x + 2/3 x is x, stored over 1.
    whole = combination([(Fraction(1, 2), LaurentPoly({0: Fraction(2, 3)}), 1),
                         (Fraction(2, 3), LaurentPoly({1: 1}), 0)])
    assert (whole._den, whole._coeffs) == (1, {1: 1})
    assert combination([(Fraction(4, 3), p, -2)]) == Fraction(4, 3) * p.shift(-2)


@settings(max_examples=40)
@given(st.integers(0, 40), st.integers(-40, 20))
def test_laguerre_is_canonical(n, alpha):
    assume(n + alpha >= 0)
    _assert_canonical(laguerre(n, alpha))


def test_derivative_examples():
    assert LaurentPoly({0: 1, 1: -1}).derivative() == LaurentPoly({0: -1})
    assert LaurentPoly({2: Fraction(1, 2)}).derivative() == LaurentPoly({1: 1})
    assert LaurentPoly({-1: 1}).derivative() == LaurentPoly({-2: -1})


def test_render_ascending():
    assert LaurentPoly({1: -1, 2: Fraction(1, 2)}).render() == "-1*x^1 + 1/2*x^2"
    assert LaurentPoly().render() == "0"


def test_exact_eval_matches_float_path():
    p = LaurentPoly({-1: Fraction(1, 3), 0: 2, 3: Fraction(-7, 5)})
    x = 1.7
    assert p.eval_float(x) == pytest.approx(float(p.eval_exact(Fraction(x))), abs=0)


# Finite floats of every magnitude: subnormal, huge, negative and zero.
points = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-60, 60)


def _assert_matches_reference(p: LaurentPoly, x: float) -> None:
    """eval_float is the exact rational value rounded once, bit for bit."""
    try:
        expected = float(p.eval_exact(Fraction(x)))
    except (ZeroDivisionError, OverflowError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            p.eval_float(x)
        return
    assert p.eval_float(x).hex() == expected.hex()
    assert Fraction(*p.ratio_at(x)) == p.eval_exact(Fraction(x))


@given(polys, points)
@example(LaurentPoly({-3: 1, -1: Fraction(-2, 7)}), -1e-300)
@example(LaurentPoly({-2: Fraction(5, 3), 4: 1}), 5e-324)
@example(LaurentPoly({-1: 1, 0: 1}), -1.0)  # a root: +0.0, never -0.0
def test_eval_float_is_the_rounded_exact_value(p, x):
    _assert_matches_reference(p, x)


@given(polys)
def test_eval_float_at_zero_matches_reference(p):
    for x in (0.0, -0.0):
        _assert_matches_reference(p, x)


@settings(max_examples=40)
@given(st.integers(0, 40), st.integers(0, 20), st.floats(0, 300))
def test_eval_float_high_degree_laguerre(n, alpha, x):
    _assert_matches_reference(laguerre(n, alpha), x)


@pytest.mark.parametrize(
    "x, exc", [(math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)]
)
def test_non_finite_points_raise_like_the_reference(x, exc):
    for p in (laguerre(3, 1), LaurentPoly({-1: 2}), LaurentPoly()):
        with pytest.raises(exc):
            p.eval_exact(x)
        with pytest.raises(exc):
            p.eval_float(x)


@given(polys)
def test_equal_polynomials_hash_equal(p):
    assert hash(LaurentPoly(dict(p.items()))) == hash(p)


# -- Laguerre construction ----------------------------------------------------


def test_constant_solution():
    assert laguerre(0, 3) == LaurentPoly({0: 1})


def test_degree_one_solved_from_equation():
    # Unique degree-one polynomial a + b*x with zero equation residual and
    # constant term 1: (1 - x) b + (a + b x) = 0 forces b = -a, a = 1.
    candidate = LaurentPoly({0: 1, 1: -1})
    assert laguerre(1, 0) == candidate
    d1 = candidate.derivative()
    assert (d1.derivative().shift(1) + d1 - d1.shift(1) + candidate).is_zero()


def test_negative_parameter_example_two_routes():
    # Extension route: (gamma(2)/gamma(3)) * (-x) * L_1^(1).
    direct = Fraction(1, 2) * LaurentPoly({1: -1}) * laguerre(1, 1)
    assert laguerre(2, -1) == direct == LaurentPoly({1: -1, 2: Fraction(1, 2)})
    # Recurrence route run at the negative parameter from the usual seeds.
    prev = LaurentPoly({0: 1})
    cur = LaurentPoly({0: 0, 1: -1})  # 1 + alpha - x at alpha = -1
    k = 1
    nxt = Fraction(1, k + 1) * (
        (2 * k + 1 - 1) * cur - cur.shift(1) - (k - 1) * prev
    )
    assert nxt == laguerre(2, -1)


def test_negative_extension_lowest_degree():
    for n, a in [(3, -2), (5, -5), (10, -4)]:
        assert laguerre(n, a).low_degree() == -a


@functools.cache
def _reference_laguerre(n: int, alpha: int) -> LaurentPoly:
    """L_n^alpha built independently of the closed form.

    Non-negative parameters by the three-term recurrence
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}; negative ones by
    the extension (n+alpha)!/n! * (-x)**(-alpha) * L_{n+alpha}^(-alpha).
    """
    if alpha < 0:
        a = -alpha
        sign = -1 if a % 2 else 1
        scale = sign * Fraction(math.factorial(n - a), math.factorial(n))
        return scale * _reference_laguerre(n - a, a).shift(a)
    if n == 0:
        return LaurentPoly({0: 1})
    if n == 1:
        return LaurentPoly({0: 1 + alpha, 1: -1})
    k = n - 1
    cur, prev = _reference_laguerre(k, alpha), _reference_laguerre(k - 1, alpha)
    return Fraction(1, n) * ((2 * k + 1 + alpha) * cur - cur.shift(1) - (k + alpha) * prev)


def test_closed_form_matches_recurrence_reference():
    keys = [(n, alpha) for n in range(41) for alpha in range(-n, 21)]
    keys += [(n, 0) for n in (64, 65, 96, 97, 128, 200, 201)]
    assert len(keys) == 1688
    for n, alpha in keys:
        assert laguerre(n, alpha) == _reference_laguerre(n, alpha), (n, alpha)


def test_closed_form_examples():
    assert laguerre(0, 0) == LaurentPoly({0: 1})
    assert laguerre(3, -2) == LaurentPoly({2: Fraction(1, 2), 3: Fraction(-1, 6)})


laguerre_indices = st.integers(0, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-n, 40))
)


@given(laguerre_indices)
def test_value_at_zero_is_binomial(index):
    n, alpha = index
    assert laguerre(n, alpha).eval_exact(0) == math.comb(n + alpha, n)


@given(laguerre_indices)
def test_leading_coefficient(index):
    n, alpha = index
    p = laguerre(n, alpha)
    assert p.degree() == n
    assert p.coefficient(n) == Fraction((-1) ** n, math.factorial(n))


def test_invalid_indices():
    with pytest.raises(ValueError):
        laguerre(-1, 0)
    with pytest.raises(ValueError, match="n \\+ alpha"):
        laguerre(1, -5)


# -- differential equation and ladder identities -------------------------------


@pytest.mark.parametrize("n, alpha", [(2, 0), (7, 3), (3, -2), (0, 5)])
def test_de_residual_examples(n, alpha):
    assert de_residual(n, alpha).is_zero()


def test_de_residual_full_range():
    for n in range(13):
        for alpha in range(-n, 11):
            assert de_residual(n, alpha).is_zero(), (n, alpha)


@given(st.integers(13, 30), st.integers(-30, 10))
@settings(max_examples=30, deadline=None)
def test_de_residual_large_labels(n, alpha):
    if n + alpha < 0:
        alpha = -n
    assert de_residual(n, alpha).is_zero()


@pytest.mark.parametrize("n, alpha", [(1, 0), (0, 5), (4, 2)])
def test_ladder_examples(n, alpha):
    up, down = alpha_ladder_check(n, alpha)
    assert up.is_zero() and down.is_zero()


def test_ladder_full_range():
    for n in range(13):
        for alpha in range(1 - n, 11):
            up, down = alpha_ladder_check(n, alpha)
            assert up.is_zero() and down.is_zero(), (n, alpha)


def test_ladder_lowering_out_of_range():
    with pytest.raises(ValueError, match="lowering"):
        alpha_ladder_check(2, -2)


def test_three_term_recurrence_oracle():
    for n in range(1, 16):
        for alpha in range(1 - n, 8):
            assert three_term_residual(n, alpha).is_zero(), (n, alpha)


@given(st.integers(16, 29), st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_three_term_recurrence_large(n, alpha):
    assert three_term_residual(n, alpha).is_zero()


def test_negative_parameter_identity():
    from math import factorial

    for n in range(21):
        for a in range(n + 1):
            sign = -1 if a % 2 else 1
            rhs = (sign * Fraction(factorial(n - a), factorial(n))) * laguerre(
                n - a, a
            ).shift(a)
            assert laguerre(n, -a) == rhs, (n, a)
