import ast
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_ladder import cli, radicals
from laguerre_ladder import opalgebra as oa
from laguerre_ladder import verify
from laguerre_ladder.basis import BasisIndex, carrier_M, evaluate, evaluate_derivative
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
    # E's polynomial is empty, but E is no number operator: its differential
    # form is the equation operator's, not an eigenvalue.
    assert oa._DIAGONAL == (Op.N, Op.P, Op.J3, Op.K3, Op.R3, Op.S3)


def test_position_operator_tridiagonal():
    v = oa.apply_label(Op.X, {(2, 3): 1.0})
    assert v[BasisIndex(2, 3)] == pytest.approx(6.0)
    assert v[BasisIndex(3, 4)] == pytest.approx(-math.sqrt(12), rel=1e-14)
    assert v[BasisIndex(1, 2)] == pytest.approx(-math.sqrt(6), rel=1e-14)


def _closed_forms(n, p):
    """Normalised image of the state (n, p) under each label operator."""
    r, q = SqrtSum.sqrt, SqrtSum
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
            (n + 1, p + 1): r((n + 1) * (p + 1)) * -1,
            (n - 1, p - 1): r(n * p) * -1,
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
                expected = {t: float(v).hex() for t, v in image.items() if v != SqrtSum(0)}
                got = {tuple(t): v.hex() for t, v in oa.apply_label(op, state).items()}
                assert got == expected, (op, n, p)


def _falling_ratio(top: int, bottom: int) -> Fraction:
    """top!/bottom! as one falling factorial or its reciprocal."""
    if top >= bottom:
        return Fraction(math.perm(top, top - bottom))
    return 1 / Fraction(math.perm(bottom, bottom - top))


@given(st.integers(0, 1999), st.integers(0, 1999))
@settings(max_examples=60, deadline=None)
def test_factor_radicals_equal_the_whole_ratio(n, p):
    # The product of the per-factor radicals is the unique q*sqrt(s) of
    # c*sqrt(t!/s!), so it rounds to the float the whole ratio rounds to.
    # [R+, S+] vanishes; the product R+ S+ shifts both labels by two, the
    # most factors any element has.
    state = oa.exact_state(n, p)
    images = [oa.apply_exact(op, state) for op in Op if op is not Op.Dx]
    images.append(oa.apply_exact(Op.Rplus, oa.apply_exact(Op.Splus, state)))
    for image in images:
        got = oa.normalised((n, p), image)
        for t, c in image.items():
            ratio = _falling_ratio(t.n, n) * _falling_ratio(t.p, p)
            assert got[t] == SqrtSum.sqrt(ratio) * c, (n, p, t)


def test_raising_at_prime_large_j_splits_only_label_factors(monkeypatch, tmp_path, capsys):
    # j and (j + 1)/2 are prime: splitting the radicand j (j + 1) whole would
    # trial-divide about 3.5e8 candidates, so any radicand beyond a single
    # label factor fails at once instead of hanging.
    j = 1_000_000_453
    split = radicals.squarefree_split

    def factor_only(k):
        assert k <= j + 2, f"radicand {k} is a product of label factors"
        return split(k)

    monkeypatch.setattr(radicals, "squarefree_split", factor_only)
    out = oa.apply_label(Op.Jplus, {(j, j): 1.0})
    assert {tuple(t): v.hex() for t, v in out.items()} == {
        (j + 1, j - 1): math.sqrt(j * (j + 1)).hex()
    }
    path = tmp_path / "modes.csv"
    path.write_text(f"j,m,re,im\n{j},0,1,0\n")
    assert cli.main(["modes", "--input", str(path), "--apply", "Jplus"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{j},1,")


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


def test_image_memo_builds_each_image_once():
    # The Killing Casimir on every state n, p <= 30 reads thousands of
    # images, many of them more than once; none is built twice.
    oa._image.cache_clear()
    verify.suite_so32(nmax=30)
    info = oa._image.cache_info()
    assert info.maxsize is None
    assert info.misses == info.currsize


def test_returned_vectors_do_not_alias_the_memo():
    state = oa.exact_state(1, 2)
    first = oa.apply_exact(Op.Rplus, state)
    expected = dict(first)
    first[next(iter(first))] += 1
    first[BasisIndex(9, 9)] = 5
    assert oa.apply_exact(Op.Rplus, state) == expected


def test_single_state_with_zero_coefficient_has_empty_image():
    for zero in (0, Fraction(0)):
        assert oa.apply_exact(Op.X, {BasisIndex(2, 2): zero}) == {}
        assert oa.apply_exact(Op.J3, {BasisIndex(2, 1): zero}) == {}


def test_single_state_image_is_a_fresh_dict():
    for op, state in ((Op.J3, (3, 1)), (Op.X, (2, 2)), (Op.Kminus, (1, 1))):
        first = oa.apply_exact(op, oa.exact_state(*state))
        expected = dict(first)
        first.clear()
        first[BasisIndex(9, 9)] = 5
        assert oa.apply_exact(op, oa.exact_state(*state)) == expected, op


def test_integral_elements_are_ints_and_half_integers_fractions():
    def element(op, n, p):
        [value] = oa.apply_exact(op, oa.exact_state(n, p)).values()
        return value

    assert type(element(Op.J3, 3, 1)) is int and element(Op.J3, 3, 1) == 1
    assert type(element(Op.K3, 1, 2)) is int and element(Op.K3, 1, 2) == 2
    assert type(element(Op.J3, 2, 1)) is Fraction and element(Op.J3, 2, 1) == Fraction(1, 2)
    assert type(element(Op.R3, 0, 5)) is Fraction and element(Op.R3, 0, 5) == Fraction(1, 2)


def _reference_image(op, n, p, defect):
    """The label image summed in Fraction arithmetic, straight from the table."""
    out = {}
    for (i, j, k, l), coeff in oa._BILINEARS[op].items():
        target = BasisIndex(n - j + i, p - l + k)
        out[target] = out.get(target, 0) + Fraction(coeff) * math.perm(n, j) * math.perm(p, l)
    if op is Op.Jplus and defect == "jplus-sign" and (n, p) == (1, 2):
        out = {t: -e for t, e in out.items()}
    return {t: e.numerator if e.denominator == 1 else e for t, e in out.items() if e}


def test_images_are_built_in_integers_and_match_the_fraction_reference(monkeypatch):
    ops = [op for op in Op if op is not Op.Dx]
    keys = [(op, n, p, defect) for op in ops for n in range(7) for p in range(7)
            for defect in (None, "jplus-sign")]
    want = [_reference_image(*key) for key in keys]
    products = []

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(self, other):
            products.append(name)
            return original(self, other)

        return wrapper

    oa._image.cache_clear()
    with monkeypatch.context() as patch:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            patch.setattr(Fraction, name, counted(name))
        got = [oa._image(*key) for key in keys]
    oa._image.cache_clear()
    assert products == []
    assert [[(t, type(e)) for t, e in g.items()] for g in got] == [
        [(t, type(e)) for t, e in w.items()] for w in want
    ]
    assert got == want


def test_multi_state_vectors_sum_their_images_exactly():
    # X sends (0, 0) and (2, 2) both onto (1, 1), with -1 and -4: these cancel.
    vec = {BasisIndex(0, 0): 4, BasisIndex(2, 2): -1}
    assert oa.apply_exact(Op.X, vec) == {
        BasisIndex(0, 0): 4, BasisIndex(2, 2): -5, BasisIndex(3, 3): 1,
    }
    vec = {BasisIndex(1, 2): 1, BasisIndex(2, 1): Fraction(1, 2), BasisIndex(0, 3): -3}
    for op in Op:
        if op is Op.Dx:
            continue
        parts = [(c, oa.apply_exact(op, {s: 1})) for s, c in vec.items()]
        assert oa.apply_exact(op, vec) == oa.combine(parts), op


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
        "composite-definitions": [
            (Op.Jplus, Op.Kplus, {Op.Rplus: 1}),
            (Op.Jminus, Op.Kminus, {Op.Rminus: -1}),
            (Op.Jminus, Op.Kplus, {Op.Splus: 1}),
            (Op.Jplus, Op.Kminus, {Op.Sminus: -1}),
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
            assert got == {BasisIndex(n, p): -(n + p + 1)}
            got = oa.commutator_exact(Op.Rplus, Op.Rminus, vec)
            assert got == {BasisIndex(n, p): -2 * (2 * n + 1)}
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
    assert verify.suite_algebra(nmax=3)["interchange-symmetry"]["pass"] is True
    monkeypatch.setitem(oa._BILINEARS, Op.Bplus, {(0, 0, 1, 0): 2})
    oa._image.cache_clear()
    oa._casimir_polynomial.cache_clear()
    try:
        check = verify.suite_algebra(nmax=3)["interchange-symmetry"]
    finally:
        monkeypatch.undo()
        oa._image.cache_clear()
        oa._casimir_polynomial.cache_clear()
    assert check["pass"] is False
    assert check["max_residual"] > 0
    assert verify.suite_algebra(nmax=3)["interchange-symmetry"]["pass"] is True


# -- Casimir eigenvalues ---------------------------------------------------------


def test_casimir_polynomial_names_a_monomial_that_moves_a_state(monkeypatch):
    # An a+ term in J3 makes H**2 of the su(2) Casimir move n by one.
    monkeypatch.setitem(oa._BILINEARS, Op.J3, {**oa._BILINEARS[Op.J3], (1, 0, 0, 0): 1})
    oa._casimir_polynomial.cache_clear()
    try:
        with pytest.raises(RuntimeError) as info:
            oa.casimir_eigenvalue("Csu2", (2, 3))
        assert oa.casimir_eigenvalue("Cp", (2, 3)) == 0
    finally:
        monkeypatch.undo()
        oa._casimir_polynomial.cache_clear()
    message = str(info.value)
    prefix = "Casimir Csu2 is not diagonal: it has the monomial "
    assert message.startswith(prefix)
    i, j, k, l = ast.literal_eval(message[len(prefix):])
    assert i != j or k != l
    assert oa.casimir_eigenvalue("Csu2", (2, 3)) == Fraction(35, 4)  # j = 5/2


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
    kplus = oa._FORMS[Op.Kplus]

    def broken(n, p):
        shift, parts = kplus(n, p)
        return shift, {**parts, 0: {**parts[0], 0: parts[0][0] + 1}}

    monkeypatch.setitem(oa._FORMS, Op.Kplus, broken)
    oa.diff_image.cache_clear()
    try:
        check = verify.label_diff_consistency(2)
    finally:
        oa.diff_image.cache_clear()
    assert check["pass"] is False
    assert check["cases"] == 54
    assert check["witness"] == {"op": "K+", "state": [0, 0]}


def test_position_form_is_the_label_action(monkeypatch):
    # X's form (the core times x) against X = N + P + 1 - K+ - K-, exactly.
    monkeypatch.setattr(oa, "FIRST_ORDER", (Op.X,))
    check = verify.label_diff_consistency(10)
    assert check["pass"] is True
    assert check["cases"] == 121


_EIGENVALUES = {
    Op.N: lambda n, p: n,
    Op.P: lambda n, p: p,
    Op.J3: lambda n, p: Fraction(n - p, 2),
    Op.K3: lambda n, p: Fraction(n + p + 1, 2),
    Op.R3: lambda n, p: n + Fraction(1, 2),
    Op.S3: lambda n, p: p + Fraction(1, 2),
}


@pytest.mark.parametrize("op", list(_EIGENVALUES))
def test_number_operator_forms_scale_the_carrier(op):
    for n, p in itertools.product(range(7), repeat=2):
        c, image = carrier_M(n, p), oa.diff_image(op, n, p)
        assert (image.sign, image.norm_squared, image.half_power) == (
            c.sign, c.norm_squared, c.half_power
        )
        assert image.core == _EIGENVALUES[op](n, p) * c.core, (n, p)


def test_derivative_form_is_evaluate_derivative():
    for n, p in itertools.product(range(7), repeat=2):
        c = carrier_M(n, p)
        for x in (0.05, 0.7, 3.3, 17.0, 60.0):
            assert oa.apply_diff(Op.Dx, c, x).hex() == evaluate_derivative(c, x, 1).hex()


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


# -- the bilinear table ----------------------------------------------------------------


def _bracket(f, g):
    return oa.combine([(1, oa._product(f, g)), (-1, oa._product(g, f))])


def _monomial_action(poly, n, p):
    """a+**i a-**j b+**k b-**l on the state (n, p), written out term by term."""
    out = {}
    for (i, j, k, l), c in poly.items():
        if j <= n and l <= p:
            elem = c * (math.factorial(n) // math.factorial(n - j))
            elem *= math.factorial(p) // math.factorial(p - l)
            target = BasisIndex(n - j + i, p - l + k)
            out[target] = out.get(target, 0) + elem
    return {t: v for t, v in out.items() if v}


def test_normal_ordering_examples():
    a_minus, a_plus = oa._BILINEARS[Op.Aminus], oa._BILINEARS[Op.Aplus]
    assert oa._product(a_minus, a_plus) == {(1, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    assert oa._product(a_plus, a_minus) == {(1, 1, 0, 0): 1}
    # a-**2 a+**2 = a+**2 a-**2 + 4 a+ a- + 2
    r_minus, r_plus = oa._BILINEARS[Op.Rminus], oa._BILINEARS[Op.Rplus]
    assert oa._product(r_minus, r_plus) == {(2, 2, 0, 0): 1, (1, 1, 0, 0): 4, (0, 0, 0, 0): 2}


def test_normal_ordered_products_act_as_the_composed_label_action():
    table = oa._BILINEARS
    for op_a in table:
        for op_b in table:
            prod = oa._product(table[op_a], table[op_b])
            for n in range(9):
                for p in range(9):
                    composed = oa.apply_exact(op_a, oa.apply_exact(op_b, oa.exact_state(n, p)))
                    assert _monomial_action(prod, n, p) == composed, (op_a, op_b, n, p)


def test_ladder_relations_are_polynomial_identities():
    # Every relation of the algebra suite, the four composite definitions
    # included, holds in the table itself; G None is the identity.
    table = {**oa._BILINEARS, None: {(0, 0, 0, 0): 1}}
    for name, relations in verify._LADDER_RELATIONS.items():
        for op_a, op_b, rhs in relations:
            expected = oa.combine((factor, table[g]) for g, factor in rhs.items())
            assert _bracket(table[op_a], table[op_b]) == expected, (name, op_a, op_b)


def _casimir_polynomial(name):
    h, plus, minus, _, sign = oa.SL2_TRIPLES[name]
    t, half = oa._BILINEARS, Fraction(sign, 2)
    return oa.combine([
        (1, oa._product(t[h], t[h])),
        (half, oa._product(t[plus], t[minus])),
        (half, oa._product(t[minus], t[plus])),
    ])


def test_casimirs_normal_order_to_their_closed_forms():
    assert _casimir_polynomial("CR") == {(0, 0, 0, 0): Fraction(-3, 4)}
    assert _casimir_polynomial("CS") == {(0, 0, 0, 0): Fraction(-3, 4)}
    n, p = oa._BILINEARS[Op.N], oa._BILINEARS[Op.P]
    j = oa.combine([(Fraction(1, 2), n), (Fraction(1, 2), p)])
    m = oa.combine([(Fraction(1, 2), n), (Fraction(-1, 2), p)])
    assert _casimir_polynomial("Csu2") == oa.combine([(1, oa._product(j, j)), (1, j)])
    assert _casimir_polynomial("Csu11") == oa.combine(
        [(1, oa._product(m, m)), (Fraction(-1, 4), {(0, 0, 0, 0): 1})]
    )


def test_killing_casimir_normal_orders_to_a_constant(constants):
    polys = [oa._BILINEARS[g] for g in constants.generators]
    g = constants.casimir_metric
    casimir = oa.combine(
        (g[a][b], oa._product(polys[a], polys[b]))
        for a in range(len(polys)) for b in range(len(polys)) if g[a][b]
    )
    assert casimir == {(0, 0, 0, 0): Fraction(-5, 4)}


def test_structure_constants_use_no_label_action(monkeypatch):
    def no_label_action(*args):
        raise AssertionError("label action called")

    monkeypatch.setattr(oa, "_image", no_label_action)
    monkeypatch.setattr(oa, "apply_exact", no_label_action)
    sc = oa.derive_structure_constants()
    assert len(sc.leftover) == 45 and not any(sc.leftover.values())


def test_closure_names_the_first_pair_that_leaves_the_span(monkeypatch):
    # With R+ = a+**3, [J+, K+] = a+**2 is the first bracket out of the span.
    monkeypatch.setitem(oa._BILINEARS, Op.Rplus, {(3, 0, 0, 0): 1})
    gaps = list(oa.derive_structure_constants().closure_gaps())
    assert next(pair for pair, gap in gaps if gap) == (Op.Jplus, Op.Kplus)
    # The largest leftover: [R+, R-] = -6 a+**2 a- - 6 a+.
    assert max(gap for _, gap in gaps) == 6
    assert dict(gaps)[Op.Rplus, Op.Rminus] == 6
    assert len(gaps) == 45


# -- structure constants and the Killing form -----------------------------------------


@pytest.fixture(scope="module")
def constants():
    return oa.derive_structure_constants()


def test_closure_residual(constants):
    gaps = list(constants.closure_gaps())
    assert [pair for pair, _ in gaps] == list(itertools.combinations(constants.generators, 2))
    assert all(gap == 0 for _, gap in gaps)


def test_antisymmetry_and_jacobi(constants):
    assert all(gap == 0 for _, gap in constants.antisymmetry_gaps())
    assert all(gap == 0 for _, gap in constants.jacobi_gaps())


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
    assert all(type(v) is int for v in entries)
    assert entries == {0, 1, -1, 2, -2, 4, -4}
    assert all(type(v) is int for v in constants.leftover.values())
    killing = {v for row in constants.killing_form for v in row}
    assert all(type(v) is int for v in killing)
    assert killing == {-24, -12, 0, 6, 12}
    parts, den = constants.casimir_parts
    assert den == 4 and len(parts) == 10 and all(type(v) is int for v, _, _ in parts)


def test_table_reproduces_every_commutator_on_every_state(constants):
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
    killing = constants.killing_form
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


def _killing_reference(sc, idx):
    """g^{ab} X_a X_b on the state with Fraction metric entries, one combine:
    (diagonal element, the leaked vector)."""
    gens, g = sc.generators, sc.casimir_metric
    parts = [(g[a][b], gens[a], gens[b]) for b in range(len(gens)) for a in range(len(gens))
             if g[a][b]]
    key = BasisIndex(*idx)
    state = oa.exact_state(*key)
    images = {b: oa.apply_exact(b, state) for b in dict.fromkeys(b for _, _, b in parts)}
    acc = oa.combine((Fraction(v), oa.apply_exact(a, images[b])) for v, a, b in parts)
    return Fraction(acc.pop(key, 0)), acc


thirds = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(labels, st.lists(thirds, min_size=10, max_size=10))
def test_killing_casimir_matches_the_fraction_reference(constants, idx, weights):
    # Each X_a X_b that steps out and back (J+ J-, J3 J3, ...) is diagonal
    # on its own, so any weights on those ten pairs give an eigenvalue.
    sc = dataclasses.replace(constants)
    gens = sc.generators
    metric = [[Fraction(v, 3) for v in row] for row in constants.casimir_metric]
    for (_, a, b), w in zip(constants.casimir_parts[0], weights):
        metric[gens.index(a)][gens.index(b)] += w
    sc.casimir_metric = metric
    want, leak = _killing_reference(sc, idx)
    assert not leak
    assert oa.killing_casimir(sc, idx) == want
    with oa.injected_defect("jplus-sign"):
        assert oa.killing_casimir(sc, idx) == _killing_reference(sc, idx)[0]


def test_killing_casimir_leak_matches_the_fraction_reference(constants):
    sc = dataclasses.replace(constants)
    gens = sc.generators
    metric = [list(row) for row in constants.casimir_metric]
    metric[gens.index(Op.Kplus)][gens.index(Op.J3)] = Fraction(1, 3)  # K+ J3 moves (n, p)
    sc.casimir_metric = metric
    assert sc.casimir_parts[1] == 12
    _, leak = _killing_reference(sc, (2, 3))
    assert list(leak) == [(3, 4)]
    with pytest.raises(RuntimeError, match=r"not diagonal on \(2, 3\): leakage onto \(3, 4\)"):
        oa.killing_casimir(sc, (2, 3))


def test_killing_casimir_names_leakage(constants):
    sc = dataclasses.replace(constants)
    # sum_a X_a X_a is not a Casimir: J+ J+ moves (2, 2) to (4, 0).
    sc.casimir_metric = [[int(a == b) for b in range(10)] for a in range(10)]
    with pytest.raises(RuntimeError, match=r"not diagonal on \(2, 2\): leakage onto \("):
        oa.killing_casimir(sc, (2, 2))


def test_injected_defect_breaks_closure_detection():
    # The defect patches one element of the label action; no polynomial
    # carries it, so the constants still close and only the Killing Casimir,
    # taken through the label action, sees the broken state.
    clean = oa.derive_structure_constants()
    with oa.injected_defect("jplus-sign"):
        sc = oa.derive_structure_constants()
        assert sc.leftover == clean.leftover and not any(sc.leftover.values())
        assert sc.table == clean.table
        assert oa.killing_casimir(sc, (2, 2)) == Fraction(-5, 4)
        assert oa.killing_casimir(sc, (1, 2)) != Fraction(-5, 4)
    broken = dataclasses.replace(clean, leftover={**clean.leftover, (0, 7): Fraction(1)})
    with pytest.raises(ValueError, match="closure"):
        oa.killing_casimir(broken, (2, 2))


def test_unknown_defect_rejected():
    with pytest.raises(ValueError, match="unknown defect"):
        with oa.injected_defect("nope"):
            pass
    assert oa._injected_defect is None
