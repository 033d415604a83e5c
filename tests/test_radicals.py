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
    # Merging two radicals through the gcd of their radicands gives the
    # same unique form as splitting the product.
    assert SqrtSum.sqrt(a) * SqrtSum.sqrt(b) == SqrtSum.sqrt(a * b)
    assert SqrtSum.sqrt(a) * SqrtSum.sqrt(a) == SqrtSum(a)


def test_radicand_reduction():
    assert SqrtSum.sqrt(18) == SqrtSum.sqrt(2) * 3
    assert SqrtSum.sqrt(36) == SqrtSum(6)
    assert SqrtSum.sqrt(0) == SqrtSum(0) == SqrtSum.sqrt(5) * 0
    assert SqrtSum.sqrt(Fraction(3, 8)) == SqrtSum.sqrt(6) * Fraction(1, 4)
    assert float(SqrtSum.sqrt(5) * -1) == -math.sqrt(5)


# Primes near 10**6 and near 2**53 leave each cofactor shape that trial
# division up to the cube root hands to isqrt.
@pytest.mark.parametrize("k, split", [
    (999983, (1, 999983)),  # a prime
    (72 * 999983, (6, 2 * 999983)),
    (9007199254740881, (1, 9007199254740881)),
    (999983 * 999979, (1, 999983 * 999979)),  # two distinct primes
    (12 * 999983 * 999979, (2, 3 * 999983 * 999979)),
    (94906249 * 94906297, (1, 94906249 * 94906297)),
    (999983**2, (999983, 1)),  # a prime squared
    (50 * 999983**2, (5 * 999983, 2)),
    (94906249**2, (94906249, 1)),
])
def test_squarefree_split_cofactor_shapes(k, split):
    assert squarefree_split(k) == split
