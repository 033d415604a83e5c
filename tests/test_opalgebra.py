import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_ladder import opalgebra as oa
from laguerre_ladder import verify
from laguerre_ladder.basis import BasisIndex, carrier_M, evaluate
from laguerre_ladder.opalgebra import OperatorName as Op
from laguerre_ladder.radicals import SqrtSum

labels = st.tuples(st.integers(0, 12), st.integers(0, 12))


# -- elementary actions ----------------------------------------------------------


def test_raising_example():
    v = oa.apply_label(Op.Aplus, {(0, 0): 1.0})
    assert v == {BasisIndex(1, 0): 1.0}


def test_spin_raising_example():
    v = oa.apply_label(Op.Jplus, {(1, 2): 1.0})
    assert v == {BasisIndex(2, 1): 2.0}


def test_double_raising_composed_matrix_element():
    # Hand expansion of the defining commutator: (p+1)sqrt((n+1)(n+2)) from
    # one ordering minus p sqrt((n+1)(n+2)) from the other.
    for n, p in [(0, 0), (3, 5), (7, 2)]:
        v = oa.apply_label(Op.Rplus, {(n, p): 1.0})
        assert set(v) == {BasisIndex(n + 2, p)}
        assert v[BasisIndex(n + 2, p)] == pytest.approx(
            math.sqrt((n + 1) * (n + 2)), rel=1e-14
        )


def test_boundary_annihilation():
    assert oa.apply_label(Op.Kminus, {(0, 5): 1.0}) == {}
    assert oa.apply_label(Op.Aminus, {(0, 3): 1.0}) == {}
    assert oa.apply_label(Op.Jplus, {(4, 0): 1.0}) == {}


def test_diagonal_operators():
    v = {(3, 1): 1.0}
    assert oa.apply_label(Op.J3, v) == {BasisIndex(3, 1): 1.0}
    assert oa.apply_label(Op.K3, v) == {BasisIndex(3, 1): 2.5}
    assert oa.apply_label(Op.R3, v) == {BasisIndex(3, 1): 3.5}
    assert oa.apply_label(Op.S3, v) == {BasisIndex(3, 1): 1.5}
    assert oa.apply_label(Op.E, v) == {}


def test_position_operator_tridiagonal():
    v = oa.apply_label(Op.X, {(2, 3): 1.0})
    assert v[BasisIndex(2, 3)] == pytest.approx(6.0)
    assert v[BasisIndex(3, 4)] == pytest.approx(-math.sqrt(12), rel=1e-14)
    assert v[BasisIndex(1, 2)] == pytest.approx(-math.sqrt(6), rel=1e-14)


def _closed_forms(n, p):
    """Normalised image of the state (n, p) under each label operator."""
    r, q = SqrtSum.sqrt, SqrtSum.of
    return {
        Op.Aplus: {(n + 1, p): r(n + 1)},
        Op.Aminus: {(n - 1, p): r(n)},
        Op.Bplus: {(n, p + 1): r(p + 1)},
        Op.Bminus: {(n, p - 1): r(p)},
        Op.Jplus: {(n + 1, p - 1): r((n + 1) * p)},
        Op.Jminus: {(n - 1, p + 1): r(n * (p + 1))},
        Op.Kplus: {(n + 1, p + 1): r((n + 1) * (p + 1))},
        Op.Kminus: {(n - 1, p - 1): r(n * p)},
        Op.Rplus: {(n + 2, p): r((n + 1) * (n + 2))},
        Op.Rminus: {(n - 2, p): r(n * (n - 1))},
        Op.Splus: {(n, p + 2): r((p + 1) * (p + 2))},
        Op.Sminus: {(n, p - 2): r(p * (p - 1))},
        Op.X: {
            (n + 1, p + 1): -r((n + 1) * (p + 1)),
            (n - 1, p - 1): -r(n * p),
            (n, p): q(n + p + 1),
        },
        Op.N: {(n, p): q(n)},
        Op.P: {(n, p): q(p)},
        Op.J3: {(n, p): q(Fraction(n - p, 2))},
        Op.K3: {(n, p): q(Fraction(n + p + 1, 2))},
        Op.R3: {(n, p): q(Fraction(2 * n + 1, 2))},
        Op.S3: {(n, p): q(Fraction(2 * p + 1, 2))},
        Op.E: {},
    }


def test_label_actions_pinned_to_closed_forms():
    # Bit for bit, including which targets appear: a zero closed form
    # (annihilation at a boundary) must leave no term.
    for n in range(13):
        for p in range(13):
            state = {(n, p): 1.0}
            for op, image in _closed_forms(n, p).items():
                expected = {t: float(v).hex() for t, v in image.items() if v}
                got = {tuple(t): v.hex() for t, v in oa.apply_label(op, state).items()}
                assert got == expected, (op, n, p)


def test_exact_action_stays_in_integer_gauge():
    for n in range(9):
        for p in range(9):
            for op in Op:
                if op is Op.Dx:
                    continue
                image = oa.apply_exact(op, oa.exact_state(n, p))
                assert all(type(v) in (int, Fraction) for v in image.values()), (op, n, p)
            comm = oa.commutator_exact(Op.Rplus, Op.Sminus, oa.exact_state(n, p))
            assert all(type(v) in (int, Fraction) for v in comm.values())


def test_memoised_images_follow_the_injected_defect():
    state = oa.exact_state(1, 2)

    def images():
        return oa.commutator_exact(Op.Jplus, Op.Jminus, state), oa.apply_exact(Op.Rplus, state)

    def fresh():
        oa._image.cache_clear()
        return images()

    before = images()
    assert before == fresh()
    with oa.injected_defect("jplus-sign"):
        inside = images()
        assert inside == fresh()
    assert inside != before
    after = images()
    assert after == fresh() == before


def test_returned_vectors_do_not_alias_the_memo():
    state = oa.exact_state(1, 2)
    first = oa.apply_exact(Op.Rplus, state)
    expected = dict(first)
    first[next(iter(first))] += 1
    first[BasisIndex(9, 9)] = 5
    assert oa.apply_exact(Op.Rplus, state) == expected
    with pytest.raises(TypeError):
        oa._terms(Op.Rplus, 1, 2)[BasisIndex(9, 9)] = 5


# The single-step generators and the shift each one makes on (n, p).
_SINGLE_STEPS = {
    Op.Aplus: (1, 0),
    Op.Aminus: (-1, 0),
    Op.Bplus: (0, 1),
    Op.Bminus: (0, -1),
    Op.Jplus: (1, -1),
    Op.Jminus: (-1, 1),
    Op.Kplus: (1, 1),
    Op.Kminus: (-1, -1),
}


def test_single_steps_annihilate_exactly_off_the_lattice():
    for n in range(13):
        for p in range(13):
            for op, (dn, dp) in _SINGLE_STEPS.items():
                target = BasisIndex(n + dn, p + dp)
                image = oa.apply_exact(op, oa.exact_state(n, p))
                if min(target) < 0:
                    assert image == {}, (op, n, p)
                else:
                    assert list(image) == [target], (op, n, p)
                if dn >= 0 and dp >= 0:
                    assert image, (op, n, p)  # raising generators never annihilate
                assert all(min(t) >= 0 for t in image), (op, n, p)


def test_derivative_has_no_label_action():
    with pytest.raises(ValueError, match="label-space"):
        oa.apply_label(Op.Dx, {(1, 1): 1.0})


# -- commutators -------------------------------------------------------------------


@given(labels)
@settings(max_examples=50, deadline=None)
def test_boson_commutator_is_identity(label):
    n, p = label
    v = {(n, p): 1.0}
    assert oa.commutator_label(Op.Bminus, Op.Bplus, v) == {BasisIndex(n, p): 1.0}
    assert oa.commutator_label(Op.Aminus, Op.Aplus, v) == {BasisIndex(n, p): 1.0}


@given(labels)
@settings(max_examples=50, deadline=None)
def test_spin_commutator_is_twice_diagonal(label):
    n, p = label
    got = oa.commutator_label(Op.Jplus, Op.Jminus, {(n, p): 1.0})
    if n == p:
        assert got == {}
    else:
        assert got == {BasisIndex(n, p): float(n - p)}


@given(labels)
@settings(max_examples=50, deadline=None)
def test_cross_family_commutators_vanish(label):
    v = {label: 1.0}
    assert oa.commutator_label(Op.Rplus, Op.Sminus, v) == {}
    assert oa.commutator_label(Op.Rplus, Op.Splus, v) == {}
    assert oa.commutator_label(Op.Aplus, Op.Bminus, v) == {}


def test_ladder_relations_derived_from_the_triples():
    # The relations the algebra suite checked before they were derived from
    # SL2_TRIPLES, written out by hand.
    hand_written = {
        "boson-commutators": [
            (Op.Bminus, Op.Bplus, {None: 1}),
            (Op.Aminus, Op.Aplus, {None: 1}),
            (Op.Aplus, Op.Bplus, {}),
            (Op.Aplus, Op.Bminus, {}),
            (Op.Aminus, Op.Bplus, {}),
            (Op.Aminus, Op.Bminus, {}),
        ],
        "su2-commutators": [
            (Op.J3, Op.Jplus, {Op.Jplus: 1}),
            (Op.J3, Op.Jminus, {Op.Jminus: -1}),
            (Op.Jplus, Op.Jminus, {Op.J3: 2}),
        ],
        "su11-commutators": [
            (Op.K3, Op.Kplus, {Op.Kplus: 1}),
            (Op.K3, Op.Kminus, {Op.Kminus: -1}),
            (Op.Kplus, Op.Kminus, {Op.K3: -2}),
        ],
        "r-ladder-commutators": [
            (Op.R3, Op.Rplus, {Op.Rplus: 2}),
            (Op.R3, Op.Rminus, {Op.Rminus: -2}),
            (Op.Rplus, Op.Rminus, {Op.R3: -4}),
        ],
        "s-ladder-commutators": [
            (Op.S3, Op.Splus, {Op.Splus: 2}),
            (Op.S3, Op.Sminus, {Op.Sminus: -2}),
            (Op.Splus, Op.Sminus, {Op.S3: -4}),
        ],
        "r-s-cross-commutators": [
            (Op.Rplus, Op.Splus, {}),
            (Op.Rplus, Op.Sminus, {}),
            (Op.Rminus, Op.Splus, {}),
            (Op.Rminus, Op.Sminus, {}),
        ],
    }
    assert list(verify._LADDER_RELATIONS.items()) == list(hand_written.items())


def test_commutators_exact_on_block():
    # Ladder relations hold with zero tolerance in the exact channel.
    for n in range(6):
        for p in range(6):
            vec = oa.exact_state(n, p)
            got = oa.commutator_exact(Op.Kplus, Op.Kminus, vec)
            assert got == ({BasisIndex(n, p): SqrtSum.of(-(n + p + 1))} if n + p + 1 else {})
            got = oa.commutator_exact(Op.Rplus, Op.Rminus, vec)
            assert got == {BasisIndex(n, p): SqrtSum.of(-2 * (2 * n + 1))}
            lhs = oa.commutator_exact(Op.K3, Op.Kplus, vec)
            assert lhs == oa.apply_exact(Op.Kplus, vec)


def _signed_swap(v):
    """The state (n, p) to (-1)**(p - n) times (p, n)."""
    return {(p, n): -c if (p - n) % 2 else c for (n, p), c in v.items()}


def test_interchange_symmetry():
    for n in range(8):
        for p in range(8):
            v = {(n, p): 1.0}
            for op_a, op_b in ((Op.Aplus, Op.Bplus), (Op.Aminus, Op.Bminus)):
                direct = oa.apply_label(op_a, v)
                swapped = _signed_swap(oa.apply_label(op_b, _signed_swap(v)))
                assert direct == {t: -c for t, c in swapped.items()}, (n, p, op_a)


def test_interchange_check_detects_a_broken_generator(monkeypatch):
    dn, dp, _ = oa._SHIFTS[Op.Bplus]
    assert verify.suite_algebra(nmax=3)["interchange-symmetry"]["pass"] is True
    monkeypatch.setitem(oa._SHIFTS, Op.Bplus, (dn, dp, lambda n, p: 2))
    oa._image.cache_clear()
    try:
        check = verify.suite_algebra(nmax=3)["interchange-symmetry"]
    finally:
        monkeypatch.undo()
        oa._image.cache_clear()
    assert check["pass"] is False
    assert check["max_residual"] > 0
    assert verify.suite_algebra(nmax=3)["interchange-symmetry"]["pass"] is True


# -- Casimir eigenvalues ---------------------------------------------------------


def test_casimir_examples():
    assert oa.casimir_eigenvalue("Cp", (4, 7)) == 0
    assert oa.casimir_eigenvalue("Csu11", (3, 1)) == Fraction(3, 4)
    assert oa.casimir_eigenvalue("Csu2", (2, 0)) == 2
    assert oa.casimir_eigenvalue("CR", (5, 9)) == Fraction(-3, 4)
    assert oa.casimir_eigenvalue("CS", (0, 0)) == Fraction(-3, 4)


@given(labels)
@settings(max_examples=60, deadline=None)
def test_casimir_values_everywhere(label):
    n, p = label
    j, m = Fraction(n + p, 2), Fraction(n - p, 2)
    assert oa.casimir_eigenvalue("Cp", label) == 0
    assert oa.casimir_eigenvalue("Csu2", label) == j * (j + 1)
    assert oa.casimir_eigenvalue("Csu11", label) == m * m - Fraction(1, 4)
    assert oa.casimir_eigenvalue("CR", label) == Fraction(-3, 4)
    assert oa.casimir_eigenvalue("CS", label) == Fraction(-3, 4)


def test_unknown_casimir_rejected():
    with pytest.raises(ValueError):
        oa.casimir_eigenvalue("Cnope", (0, 0))


# -- symbolic annihilation ---------------------------------------------------------


@pytest.mark.parametrize("n, p", [(0, 0), (3, 1), (2, 5)])
def test_equation_operator_annihilates_examples(n, p):
    assert oa.e_residual_symbolic(n, p).is_zero()


def test_equation_operator_annihilates_block():
    for n in range(0, 21, 4):
        for p in range(0, 21, 3):
            assert oa.e_residual_symbolic(n, p).is_zero(), (n, p)


# -- differential forms -------------------------------------------------------------


def test_lowering_differential_example():
    c = carrier_M(0, 1)
    for x in (0.5, 1.0, 3.0):
        assert oa.apply_diff(Op.Bminus, c, x) == pytest.approx(
            evaluate(carrier_M(0, 0), x), rel=1e-13
        )
    assert oa.apply_diff(Op.Bminus, c, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-13)


def test_equation_operator_differential_vanishes():
    for n, p in [(0, 0), (2, 5), (4, 1)]:
        c = carrier_M(n, p)
        for x in (0.3, 1.0, 7.0):
            assert oa.apply_diff(Op.E, c, x) == pytest.approx(0.0, abs=1e-10)


def test_double_step_differential_example():
    c = carrier_M(1, 1)
    got = oa.apply_diff(Op.Kplus, c, 2.0)
    assert got == pytest.approx(2.0 * evaluate(carrier_M(2, 2), 2.0), rel=1e-12)


def test_unsupported_differential_forms():
    c = carrier_M(1, 1)
    for op in (Op.Aplus, Op.Aminus, Op.Rplus, Op.Sminus):
        with pytest.raises(ValueError, match="differential"):
            oa.apply_diff(op, c, 1.0)
    with pytest.raises(ValueError):
        oa.apply_diff(Op.Kplus, c, 0.0)


def test_symbolic_forms_are_exact_images():
    # K+ |1,1> = 2 |2,2> on normalised states; both carriers have
    # norm_squared 1, so the image's core is twice the target's.
    image = oa.diff_image(Op.Kplus, 1, 1)
    target = carrier_M(2, 2)
    assert (image.sign, image.norm_squared, image.half_power) == (1, 1, target.half_power)
    assert image.core == 2 * target.core
    # B- |0,1> = |0,0>: the half power moves by +1 through sqrt(x), so the
    # core carries x**-1.
    image = oa.diff_image(Op.Bminus, 0, 1)
    assert image.half_power == 2
    assert image.core == carrier_M(0, 0).core.shift(-1)
    assert oa.diff_image(Op.E, 4, 1).core.is_zero()
    assert oa.diff_image(Op.Jplus, 2, 3) is oa.diff_image(Op.Jplus, 2, 3)


def test_differential_forms_need_the_label_carrier():
    c = dataclasses.replace(carrier_M(1, 2), core=carrier_M(0, 1).core)
    with pytest.raises(ValueError, match="basis function of its label"):
        oa.apply_diff(Op.Jplus, c, 1.0)


def test_label_diff_witness_is_the_first_mismatch(monkeypatch):
    # K+ with one extra unit in b breaks K+ on every state; the report
    # names the first, (0, 0).
    kplus = oa._FIRST_ORDER_FORMS[Op.Kplus]

    def broken(n, p):
        shift, a, b = kplus(n, p)
        return shift, a, {**b, 0: b[0] + 1}

    monkeypatch.setitem(oa._FIRST_ORDER_FORMS, Op.Kplus, broken)
    oa.diff_image.cache_clear()
    try:
        check = verify.label_diff_consistency(2)
    finally:
        oa.diff_image.cache_clear()
    assert check["pass"] is False
    assert check["cases"] == 54
    assert check["witness"] == {"op": "K+", "state": [0, 0]}


def test_label_and_differential_realizations_agree():
    xs = np.logspace(math.log10(0.05), math.log10(20.0), 20)
    ops = (Op.Bplus, Op.Bminus, Op.Jplus, Op.Jminus, Op.Kplus, Op.Kminus)
    for n in range(0, 11, 2):
        for p in range(0, 11, 2):
            c = carrier_M(n, p)
            state = {(n, p): 1.0}
            floor = max(abs(evaluate(c, float(x))) for x in xs)
            for op in ops:
                image = oa.apply_label(op, state)
                for x in xs:
                    lhs = oa.apply_diff(op, c, float(x))
                    rhs = sum(
                        coeff * evaluate(carrier_M(*lbl), float(x))
                        for lbl, coeff in image.items()
                    )
                    scale = max(abs(lhs), abs(rhs), floor)
                    assert abs(lhs - rhs) / scale < 1e-9, (op, n, p, x)


# -- structure constants and the Killing form -----------------------------------------


@pytest.fixture(scope="module")
def constants():
    return oa.derive_structure_constants()


def test_closure_residual(constants):
    assert constants.closure_residual == 0
    assert constants.witness is None
    assert constants.cases == 45 * len(oa.SAMPLE_STATES) == 540


def test_antisymmetry_and_jacobi(constants):
    assert constants.antisymmetry_residual() == 0
    assert constants.jacobi_residual() == 0


def _row(constants, op_a, op_b):
    gens = constants.generators
    return dict(zip(gens, constants.table[gens.index(op_a)][gens.index(op_b)]))


def test_fitted_pairs_match_known_relations(constants):
    zero = dict.fromkeys(constants.generators, 0)
    assert _row(constants, Op.Kplus, Op.Kminus) == zero | {Op.K3: -2}
    # The double-step diagonal is not a basis member; it appears as its
    # decomposition over the two diagonal generators.
    assert _row(constants, Op.Rplus, Op.Rminus) == zero | {Op.J3: -4, Op.K3: -4}
    assert _row(constants, Op.Rplus, Op.Splus) == zero


def test_table_and_killing_entries_are_exact_integers(constants):
    entries = {v for rows in constants.table for row in rows for v in row}
    assert all(isinstance(v, Fraction) for v in entries)
    assert entries == {0, 1, -1, 2, -2, 4, -4}
    killing = {v for row in oa.killing_form(constants) for v in row}
    assert killing == {-24, -12, 0, 6, 12}


def test_table_reproduces_every_commutator_beyond_the_sample_states(constants):
    gens = constants.generators
    for n in range(13):
        for p in range(13):
            state = oa.exact_state(n, p)
            images = [oa.apply_exact(g, state) for g in gens]
            for a in range(len(gens)):
                for b in range(a + 1, len(gens)):
                    expansion: dict = {}
                    for c, image in zip(constants.table[a][b], images):
                        for t, v in image.items():
                            expansion[t] = expansion.get(t, 0) + c * v
                    expansion = {t: v for t, v in expansion.items() if v}
                    assert oa.commutator_exact(gens[a], gens[b], state) == expansion, (a, b, n, p)


def test_exact_inverse(constants):
    killing = oa.killing_form(constants)
    inverse = oa._inverse(killing)
    size = len(killing)
    for i in range(size):
        for j in range(size):
            assert sum(killing[i][k] * inverse[k][j] for k in range(size)) == (i == j)
    with pytest.raises(RuntimeError, match="singular"):
        oa._inverse([[1, 2], [2, 4]])


def test_killing_block_proportional_to_spin_form(constants):
    assert oa.su2_block_scale(constants) == (3, 0)


def test_killing_casimir_value_and_constancy(constants):
    for n in range(13):
        for p in range(13):
            assert oa.killing_casimir(constants, (n, p)) == Fraction(-5, 4), (n, p)


def test_killing_casimir_names_leakage(constants):
    sc = dataclasses.replace(constants)
    # sum_a X_a X_a is not a Casimir: J+ J+ moves (2, 2) to (4, 0).
    sc.casimir_metric = [[int(a == b) for b in range(10)] for a in range(10)]
    with pytest.raises(RuntimeError, match=r"not diagonal on \(2, 2\): leakage onto \("):
        oa.killing_casimir(sc, (2, 2))


def test_injected_defect_breaks_closure_detection():
    with oa.injected_defect("jplus-sign"):
        sc = oa.derive_structure_constants()
        assert sc.witness == ((Op.Jplus, Op.Rminus), BasisIndex(3, 2))
        assert sc.closure_residual > 0
        with pytest.raises(ValueError, match="closure"):
            oa.killing_casimir(sc, (2, 2))
    sc = oa.derive_structure_constants()
    assert sc.witness is None


def test_unknown_defect_rejected():
    with pytest.raises(ValueError, match="unknown defect"):
        with oa.injected_defect("nope"):
            pass
    assert oa._injected_defect is None
