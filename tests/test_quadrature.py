import dataclasses
import hashlib
import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_ladder.basis import Carrier, carrier_M, weightless_values
from laguerre_ladder.exactpoly import LaurentPoly, laguerre
from laguerre_ladder.quadrature import (
    QuadratureRule,
    gauss_laguerre,
    gram_matrix,
    inner_product,
    node_values,
    projection_convergence,
    weighted_inner_product,
)
from laguerre_ladder.radicals import float_sqrt


@pytest.fixture(scope="module")
def rule64():
    return gauss_laguerre(64)


# -- rule construction ---------------------------------------------------------


def test_order_one_is_forced():
    rule = gauss_laguerre(1)
    assert rule.nodes == (1.0,)
    assert rule.weights == (1.0,)


def test_order_two_closed_form():
    rule = gauss_laguerre(2)
    s = math.sqrt(2.0)
    assert rule.nodes[0] == pytest.approx(2 - s, rel=1e-15)
    assert rule.nodes[1] == pytest.approx(2 + s, rel=1e-15)
    assert rule.weights[0] == pytest.approx((2 + s) / 4, rel=1e-15)
    assert rule.weights[1] == pytest.approx((2 - s) / 4, rel=1e-15)


@pytest.mark.parametrize("order", [1, 2, 8, 32, 64])
def test_polynomial_exactness(order):
    rule = gauss_laguerre(order)
    for k in range(2 * order):
        approx = rule.integrate(lambda x, k=k: x**k)
        assert abs(Fraction(approx) / factorial(k) - 1) < 1e-12, (order, k)


@pytest.mark.parametrize("order", [1, 2, 8, 32, 64, 128])
def test_weights_sum_to_one(order):
    rule = gauss_laguerre(order)
    assert abs(math.fsum(rule.weights) - 1.0) < 1e-13
    assert all(w > 0 for w in rule.weights)
    assert all(b > a for a, b in zip(rule.nodes, rule.nodes[1:]))


def test_reference_library_agreement():
    for order in (8, 32):
        rule = gauss_laguerre(order)
        nodes, weights = np.polynomial.laguerre.laggauss(order)
        assert np.max(np.abs(np.array(rule.nodes) - nodes)) < 1e-12
        assert np.max(np.abs(np.array(rule.weights) - weights)) < 1e-12


def test_largest_supported_order_builds():
    rule = gauss_laguerre(200)
    assert rule.order == 200
    assert abs(math.fsum(rule.weights) - 1.0) < 1e-13
    assert rule.integrate(lambda x: x**3) == pytest.approx(6.0, rel=1e-12)


# sha256 of repr((nodes, weights)): every rule bit for bit, not to a tolerance.
RULE_DIGESTS = {
    1: "664c24caa912e75ff0db5baecda0963d9d22a6c9606ed51385beb140aaffa300",
    2: "cfcaeecf40ee37310129ef9a2a899681fc208ea94fe63301b0035f3ba7d3e5ab",
    3: "7b50036f145e8a648d21eb36136640ca99772ca3b73cb7cf823f31d72d9e0c57",
    8: "920249a0102cc02f559babc57bf3897dd7d632fb20125ceeab065cbc96719c8f",
    32: "17a21dac15aed04d24cec24319f0a77154c2db6502f2e6b92bad5406deceabb6",
    64: "2fb6fb013c5d361805be333a24a3c7a7c7dcd5811a12537cb3c7fb9274f57fe4",
    96: "76d4c34554718ce7fe90ea338787d770b83ca25933c1a946702f6e584df33c2e",
    128: "6c8bdfdc4dfc52ad939a11b62fbb98e04bffd9d2a3b57152cc3ed5c8ec5baa49",
    200: "bab4de63d6c29b6bcc9d3a2aa67b64277a047795840ed793795ff42479823b43",
}


@pytest.mark.parametrize("order", sorted(RULE_DIGESTS))
def test_rule_digest(order):
    rule = gauss_laguerre(order)
    digest = hashlib.sha256(repr((rule.nodes, rule.weights)).encode()).hexdigest()
    assert digest == RULE_DIGESTS[order]


def test_order_validation():
    for bad in (0, -3, 201, 2.5):
        with pytest.raises(ValueError):
            gauss_laguerre(bad)


def test_rules_are_cached_and_immutable():
    rule = gauss_laguerre(8)
    assert gauss_laguerre(8) is rule
    assert isinstance(rule.nodes, tuple) and isinstance(rule.weights, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.nodes = ()
    # A cached integer order does not answer an equal float.
    with pytest.raises(ValueError):
        gauss_laguerre(8.0)


# -- inner products ----------------------------------------------------------------


def test_orthonormality_examples(rule64):
    assert inner_product(carrier_M(3, 5), carrier_M(5, 7), rule64) == pytest.approx(
        0.0, abs=1e-12
    )
    assert inner_product(carrier_M(3, 5), carrier_M(3, 5), rule64) == pytest.approx(
        1.0, abs=1e-12
    )


def test_unnormalized_norm_example(rule64):
    poly = laguerre(2, 1)
    assert weighted_inner_product(poly, poly, 1, rule64) == pytest.approx(3.0, rel=1e-13)


def test_norm_formula(rule64):
    for alpha in range(4):
        for n in range(16):
            poly = laguerre(n, alpha)
            got = weighted_inner_product(poly, poly, alpha, rule64)
            want = Fraction(factorial(n + alpha), factorial(n))
            assert abs(got / float(want) - 1.0) < 1e-11, (alpha, n)


def test_node_values_are_the_carrier_values_read_only(rule64):
    c = carrier_M(3, 7)
    got = node_values(c, rule64)
    want = weightless_values(c, rule64.nodes)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert node_values(c, rule64) is got
    with pytest.raises(ValueError):
        got[0] = 0.0


def test_node_values_key_the_rule_by_value(rule64):
    c = carrier_M(2, 4)
    # Same order and weights, nodes scaled: another rule, so other samples.
    scaled = QuadratureRule(tuple(2 * x for x in rule64.nodes), rule64.weights)
    assert scaled.order == rule64.order
    assert node_values(c, scaled).tolist() == weightless_values(c, scaled.nodes).tolist()
    assert node_values(c, scaled).tolist() != node_values(c, rule64).tolist()
    # An equal rule built apart shares the cached samples.
    twin = QuadratureRule(rule64.nodes, rule64.weights)
    assert node_values(c, twin) is node_values(c, rule64)


@pytest.mark.parametrize("alpha", [0, 1, 2, 5])
def test_gram_identity(alpha, rule64):
    gram = gram_matrix(alpha, 20, rule64)
    assert np.max(np.abs(gram - np.eye(21))) < 1e-11


def test_cross_label_orthogonality(rule64):
    # same-parameter families restated in the two-label form
    for alpha in (0, 2):
        for n in range(5):
            for m in range(5):
                got = inner_product(
                    carrier_M(n, n + alpha), carrier_M(m, m + alpha), rule64
                )
                assert got == pytest.approx(float(n == m), abs=1e-12)


def test_odd_half_power_refused(rule64):
    with pytest.raises(ValueError, match="sqrt"):
        inner_product(carrier_M(0, 1), carrier_M(0, 0), rule64)


def test_insufficient_order_names_requirement():
    small = gauss_laguerre(2)
    with pytest.raises(ValueError, match="need at least"):
        inner_product(carrier_M(5, 5), carrier_M(5, 5), small)


@pytest.mark.parametrize(
    "call, need, message",
    [
        (lambda rule: inner_product(carrier_M(5, 5), carrier_M(5, 5), rule), 6, "degree 10"),
        (lambda rule: gram_matrix(2, 12, rule), 14, "the family"),
        (lambda rule: projection_convergence(carrier_M(4, 6), 2, 8, rule), 10, "the projection"),
    ],
)
def test_each_integral_is_refused_one_order_short(call, need, message):
    # An order-n rule is exact through degree 2n - 1; one node fewer is refused.
    with pytest.raises(ValueError) as refused:
        call(gauss_laguerre(need - 1))
    assert str(refused.value) == (
        f"rule order {need - 1} insufficient for {message}; need at least {need}"
    )
    call(gauss_laguerre(need))


_LAGUERRE = st.tuples(st.integers(0, 10), st.integers(-3, 6)).filter(lambda t: sum(t) >= 0)


def _product_reference(a, b, shift, rule):
    """The integral through the product polynomial, each node value rounded once."""
    product = (a * b).shift(shift)
    return math.fsum(w * product.eval_float(x) for x, w in zip(rule.nodes, rule.weights))


@settings(max_examples=150, deadline=None)
@given(first=_LAGUERRE, second=_LAGUERRE, shift=st.integers(0, 5),
       order=st.sampled_from([8, 32, 64]))
def test_integrals_equal_the_product_polynomial_reference(first, second, shift, order):
    rule = gauss_laguerre(order)
    a, b = laguerre(*first), laguerre(*second)
    ca, cb = carrier_M(first[0], sum(first)), carrier_M(second[0], sum(second))
    scale = ca.sign * cb.sign * float_sqrt(ca.norm_squared * cb.norm_squared)
    combined = ca.half_power + cb.half_power
    calls = [
        (weighted_inner_product, (a, b, shift), a, b, shift, 1.0),
        (weighted_inner_product, (a, a, shift), a, a, shift, 1.0),  # a square
    ]
    if combined % 2 == 0:
        calls.append((inner_product, (ca, cb), ca.core, cb.core, combined // 2, scale))
    for call, args, p, q, s, factor in calls:
        degree = p.degree() + q.degree() + s
        if degree >= 2 * order:
            with pytest.raises(ValueError) as refused:
                call(*args, rule)
            assert str(refused.value) == (
                f"rule order {order} insufficient for degree {degree}; "
                f"need at least {degree // 2 + 1}"
            )
            continue
        want = factor * _product_reference(p, q, s, rule)
        with pytest.MonkeyPatch.context() as patch:
            # No product polynomial is built on the way.
            patch.setattr(LaurentPoly, "__mul__", None)
            patch.setattr(LaurentPoly, "__rmul__", None)
            got = call(*args, rule)
        assert got.hex() == want.hex(), call


def test_integral_of_a_zero_factor_is_zero_and_negative_powers_are_refused(rule64):
    assert weighted_inner_product(LaurentPoly(), laguerre(3, 0), 0, rule64) == 0.0
    message = r"^integrand is not polynomial \(negative powers remain\)$"
    with pytest.raises(ValueError, match=message):
        weighted_inner_product(laguerre(2, -2), LaurentPoly({-3: 1}), 0, rule64)


# -- projections ----------------------------------------------------------------------


def test_projection_of_family_member(rule64):
    residuals = projection_convergence(carrier_M(4, 6), 2, 8, rule64)
    assert all(r > 0.9 for r in residuals[:4])
    assert all(r < 1e-12 for r in residuals[4:])


def test_projection_two_term_oracle(rule64):
    # x (1 + x) exp(-x/2), normalized: squared norm 38 by moment integrals
    # 2 + 2*6 + 24.  Expansion is finite: c0 = 8/sqrt(76), c1 = -6/sqrt(228)
    # against the first two members, and c0^2 + c1^2 = 1 exactly.
    target = Carrier(
        sign=1, norm_squared=Fraction(1, 38), half_power=2, core=LaurentPoly({0: 1, 1: 1})
    )
    assert inner_product(target, target, rule64) == pytest.approx(1.0, rel=1e-13)
    c0 = inner_product(target, carrier_M(0, 2), rule64)
    c1 = inner_product(target, carrier_M(1, 3), rule64)
    assert c0 == pytest.approx(8 / math.sqrt(76), rel=1e-13)
    assert c1 == pytest.approx(-6 / math.sqrt(228), rel=1e-13)
    residuals = projection_convergence(target, 2, 4, rule64)
    assert residuals[0] == pytest.approx(abs(c1), rel=1e-10)
    assert all(r < 1e-12 for r in residuals[1:])


@given(st.integers(0, 6), st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_projection_residuals_never_increase(n, alpha):
    rule = gauss_laguerre(48)
    residuals = projection_convergence(carrier_M(n, n + alpha), alpha, 8, rule)
    assert all(b <= a + 1e-14 for a, b in zip(residuals, residuals[1:]))


def test_projection_parity_mismatch(rule64):
    with pytest.raises(ValueError, match="parity"):
        projection_convergence(carrier_M(0, 1), 2, 4, rule64)
