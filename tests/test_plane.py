import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_ladder import plane
from laguerre_ladder.basis import carrier_M
from laguerre_ladder.opalgebra import OperatorName as Op, apply_diff
from laguerre_ladder.plane import (
    Field2D,
    ModeCoefficients,
    ModeIndex,
    PolarGrid,
    apply_mode_operator,
    decompose,
    eval_Z,
    gram_2d,
    mode_commutator,
    modes_up_to,
    radial_de_relative,
    reconstruct,
)
from laguerre_ladder.radicals import SqrtSum


@pytest.fixture(scope="module")
def grid():
    return PolarGrid.build(64, 64)


# -- mode evaluation --------------------------------------------------------------


def test_ground_mode_is_gaussian():
    for r, phi in [(0.0, 0.0), (1.2, 2.0), (2.5, -3.0)]:
        assert eval_Z(ModeIndex(0, 0), r, phi) == pytest.approx(
            math.exp(-(r * r) / 2), rel=1e-15
        )


def test_phase_rotation():
    a = eval_Z(ModeIndex(1, 1), 0.9, 0.0)
    b = eval_Z(ModeIndex(1, 1), 0.9, math.pi / 2)
    assert abs(a) == pytest.approx(abs(b), rel=1e-15)
    assert b == pytest.approx(1j * a, rel=1e-12)


def test_opposite_angular_labels_degenerate():
    for j in range(4):
        for m in range(j + 1):
            a = eval_Z(ModeIndex(j, m), 1.1, 0.0)
            b = eval_Z(ModeIndex(j, -m), 1.1, 0.0)
            assert a == pytest.approx(b, rel=1e-14)


def test_mode_index_validation():
    with pytest.raises(ValueError):
        eval_Z(ModeIndex(1, 2), 1.0, 0.0)
    with pytest.raises(ValueError):
        eval_Z(ModeIndex(-1, 0), 1.0, 0.0)
    with pytest.raises(ValueError):
        eval_Z(ModeIndex(1, 1), -0.5, 0.0)


def test_radial_carrier_is_the_cached_label_carrier():
    for j, m in [(0, 0), (2, -1), (3, 3)]:
        assert plane.radial_carrier(ModeIndex(j, m)) is carrier_M(j + m, j - m)
    with pytest.raises(ValueError, match="mode index"):
        plane.radial_carrier(ModeIndex(1, 2))


# -- radial equation -----------------------------------------------------------------


@pytest.mark.parametrize("j, m", [(0, 0), (3, 2), (6, -5), (5, 0)])
def test_radial_equation_residual(j, m):
    for r in (0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0):
        assert radial_de_relative(ModeIndex(j, m), r) < 1e-10, (j, m, r)


def test_radial_equation_needs_positive_radius():
    for r in (0.0, -0.5):
        with pytest.raises(ValueError, match="r must be positive"):
            radial_de_relative(ModeIndex(1, 0), r)


# -- grids and inner products ----------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError, match="power of two"):
        PolarGrid.build(8, 12)
    with pytest.raises(ValueError, match="radial order"):
        PolarGrid.build(4, 32).require_support(4)
    with pytest.raises(ValueError, match="angular nodes"):
        PolarGrid.build(16, 8).require_support(4)


def test_inner_product_examples(grid):
    index = {idx: k for k, idx in enumerate(modes_up_to(3))}
    gram = gram_2d(3, grid)

    def entry(a, b):
        return gram[index[ModeIndex(*a)], index[ModeIndex(*b)]]

    assert entry((2, 1), (2, 1)) == pytest.approx(1.0, abs=1e-11)
    assert abs(entry((2, 1), (3, 1))) < 1e-11
    assert entry((2, 1), (2, -1)) == 0


def test_gram_identity(grid):
    gram = gram_2d(6, grid)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


# -- decomposition and synthesis ---------------------------------------------------------


def test_single_mode_roundtrip(grid):
    field = reconstruct(ModeCoefficients(coeffs={ModeIndex(2, 1): 1.0}, jmax=2), grid)
    got = decompose(field, 4)
    assert got.get(2, 1) == pytest.approx(1.0, abs=1e-10)
    others = [abs(v) for k, v in got.coeffs.items() if k != ModeIndex(2, 1)]
    assert max(others, default=0.0) < 1e-10


def test_linearity(grid):
    coeffs = ModeCoefficients(
        coeffs={ModeIndex(1, 0): 1.0, ModeIndex(3, -2): 2.0}, jmax=3
    )
    got = decompose(reconstruct(coeffs, grid), 3)
    assert got.get(1, 0) == pytest.approx(1.0, abs=1e-10)
    assert got.get(3, -2) == pytest.approx(2.0, abs=1e-10)


def test_out_of_span_mode_is_invisible(grid):
    field = reconstruct(ModeCoefficients(coeffs={ModeIndex(5, 0): 1.0}, jmax=5), grid)
    got = decompose(field, 3)
    assert max((abs(v) for v in got.coeffs.values()), default=0.0) < 1e-10


def test_reconstruct_matches_pointwise_evaluation(grid):
    field = reconstruct(ModeCoefficients(coeffs={ModeIndex(0, 0): 1.0}, jmax=0), grid)
    for k in (0, 10, 30):
        r = grid.radial_nodes[k]
        for q in (0, 7):
            phi = grid.angular_nodes[q]
            assert field.values[k, q] == pytest.approx(
                eval_Z(ModeIndex(0, 0), r, phi), rel=1e-13
            )


def test_empty_coefficients_give_zero_field(grid):
    field = reconstruct(ModeCoefficients(coeffs={}, jmax=2), grid)
    assert np.all(field.values == 0)


def test_roundtrip_random_coefficients(grid):
    rng = np.random.default_rng(11)
    coeffs = ModeCoefficients(
        coeffs={
            idx: complex(rng.standard_normal(), rng.standard_normal())
            for idx in modes_up_to(8)
        },
        jmax=8,
    )
    got = decompose(reconstruct(coeffs, grid), 8)
    assert coeffs.max_abs_diff(got) < 1e-10


def test_negative_jmax_refused(grid):
    field = reconstruct(ModeCoefficients(coeffs={ModeIndex(0, 0): 1.0}, jmax=0), grid)
    calls = (lambda: grid.require_support(-1), lambda: decompose(field, -1),
             lambda: gram_2d(-1, grid))
    for call in calls:
        with pytest.raises(ValueError, match=r"^jmax must be non-negative \(got -1\)$"):
            call()


def test_insufficient_grid_named(grid):
    with pytest.raises(ValueError, match="angular"):
        decompose(Field2D(grid=PolarGrid.build(16, 8), values=np.zeros((16, 8))), 6)


# -- amplitude-space ladder action ----------------------------------------------------------


def test_raising_example():
    out = apply_mode_operator(
        Op.Jplus, ModeCoefficients(coeffs={ModeIndex(1, 0): 1.0}, jmax=1)
    )
    assert out.coeffs == {ModeIndex(1, 1): float(SqrtSum.sqrt(2))}


def test_raising_at_large_j_matches_the_factorial_form():
    # The element sqrt(j (j + 1)) at j = 10**6, bit for bit the float that
    # t!/s! formed from full factorials rounds to.
    j = 10**6
    out = apply_mode_operator(Op.Jplus, ModeCoefficients(coeffs={ModeIndex(j, 0): 1.0}, jmax=j))
    assert list(out.coeffs) == [ModeIndex(j, 1)]
    assert out.get(j, 1).real.hex() == "0x1.e8480fffffbcfp+19"
    assert out.get(j, 1).imag == 0.0


def test_raising_annihilates_at_band_edge():
    out = apply_mode_operator(
        Op.Jplus, ModeCoefficients(coeffs={ModeIndex(1, 1): 1.0}, jmax=1)
    )
    assert out.coeffs == {}


def test_commutator_is_twice_diagonal():
    c = ModeCoefficients(coeffs={ModeIndex(2, 1): 1.0}, jmax=2)
    out = mode_commutator(Op.Jplus, Op.Jminus, c)
    assert out.coeffs == {ModeIndex(2, 1): (2 + 0j)}


@given(st.integers(0, 8), st.integers(-8, 8))
@settings(max_examples=60, deadline=None)
def test_spin_algebra_exact_on_amplitudes(j, m):
    if abs(m) > j:
        m = j if m > j else -j
    single = ModeCoefficients(coeffs={ModeIndex(j, m): 1.0}, jmax=j)
    comm = mode_commutator(Op.Jplus, Op.Jminus, single)
    assert comm.get(j, m) == 2.0 * m
    for op, shift, sign in ((Op.Jplus, 1, 1.0), (Op.Jminus, -1, -1.0)):
        lhs = mode_commutator(Op.J3, op, single)
        rhs = apply_mode_operator(op, single)
        assert lhs.get(j, m + shift) == sign * rhs.get(j, m + shift)


def test_spin_casimir_on_amplitudes():
    for j in range(9):
        for m in range(-j, j + 1):
            single = ModeCoefficients(coeffs={ModeIndex(j, m): 2.0 - 1.0j}, jmax=j)
            out = plane.mode_casimir(single)
            assert out.get(j, m) == (2.0 - 1.0j) * (j * (j + 1))


def test_naive_float_casimir_close_but_not_exact():
    # composing the float actions directly squares rounded radicals; the
    # exact route exists precisely because this path picks up ulps
    j, m = 3, 1
    single = ModeCoefficients(coeffs={ModeIndex(j, m): 1.0}, jmax=j)
    jj = apply_mode_operator(Op.J3, apply_mode_operator(Op.J3, single))
    pm = apply_mode_operator(Op.Jplus, apply_mode_operator(Op.Jminus, single))
    mp = apply_mode_operator(Op.Jminus, apply_mode_operator(Op.Jplus, single))
    value = jj.get(j, m) + 0.5 * (pm.get(j, m) + mp.get(j, m))
    assert value == pytest.approx(j * (j + 1), rel=1e-14)


def test_mode_operator_rejects_others():
    c = ModeCoefficients(coeffs={ModeIndex(1, 0): 1.0}, jmax=1)
    with pytest.raises(ValueError):
        apply_mode_operator(Op.Kplus, c)
    with pytest.raises(ValueError):
        mode_commutator(Op.Jplus, Op.Kplus, c)


def test_amplitude_action_consistent_with_pointwise(grid):
    small = PolarGrid.build(16, 16)
    for idx in [ModeIndex(1, 0), ModeIndex(3, -2), ModeIndex(2, 2)]:
        single = ModeCoefficients(coeffs={idx: 1.0}, jmax=4)
        raised = reconstruct(apply_mode_operator(Op.Jplus, single), small)
        carrier = plane.radial_carrier(idx)
        worst = 0.0
        for k, x in enumerate(small.radial_x):
            radial = apply_diff(Op.Jplus, carrier, x)
            for q, phi in enumerate(small.angular_nodes):
                direct = radial * cmath.exp(1j * (idx.m + 1) * phi)
                worst = max(worst, abs(direct - raised.values[k, q]))
        assert worst < 1e-8, idx
