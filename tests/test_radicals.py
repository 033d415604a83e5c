import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laguerre_ladder.radicals import SqrtSum, squarefree_split


@given(st.integers(1, 20000))
def test_squarefree_split_reconstructs(k):
    outer, inner = squarefree_split(k)
    assert outer * outer * inner == k
    # inner has no square divisor
    d = 2
    while d * d <= inner:
        assert inner % (d * d) != 0
        d += 1


@given(st.integers(0, 500), st.integers(0, 500))
def test_sqrt_products_collapse(a, b):
    lhs = SqrtSum.sqrt(a) * SqrtSum.sqrt(b)
    assert float(lhs) == pytest.approx(math.sqrt(a * b), rel=1e-12, abs=1e-12)
    assert (SqrtSum.sqrt(a) * SqrtSum.sqrt(a)).as_fraction() == a


def test_mixed_sum_arithmetic():
    v = SqrtSum.sqrt(2) + SqrtSum.of(Fraction(1, 3))
    w = v * v  # 2 + 1/9 + (2/3) sqrt(2)
    assert w - SqrtSum.of(Fraction(19, 9)) == Fraction(2, 3) * SqrtSum.sqrt(2)
    assert not w.is_rational()
    with pytest.raises(ValueError):
        w.as_fraction()


def test_radicand_reduction():
    assert SqrtSum.sqrt(18) == 3 * SqrtSum.sqrt(2)
    assert SqrtSum.sqrt(36) == SqrtSum.of(6)
    assert SqrtSum.sqrt(0) == SqrtSum.of(0)
    assert SqrtSum.sqrt(Fraction(3, 8)) == Fraction(1, 4) * SqrtSum.sqrt(6)


def test_zero_and_negation():
    v = SqrtSum.sqrt(5) - SqrtSum.sqrt(5)
    assert not v
    assert v == 0
    assert float(-SqrtSum.sqrt(5)) == -math.sqrt(5)
