"""Differential operators: coefficient and factored forms."""

import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expode import (
    ExpPoly,
    FactoredOp,
    Factorization,
    LinOp,
    Poly,
    compose_check,
    factor_op,
    homogeneous_solution,
    real_homogeneous_solution,
)
from strategies import (apply_reference, edge_exppolys, edge_linops,
                        ep_close, exppolys, factored_ops,
                        homogeneous_reference, outcome,
                        real_homogeneous_walk_reference)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import exact  # noqa: E402


# ----------------------------------------------------------- coefficients

def test_char_poly_transcription():
    # y'' - 2y' + y  <->  r^2 - 2r + 1
    op = LinOp((-2 + 0j, 1 + 0j))
    assert op.order == 2
    assert op.char_poly().coeffs == (1 + 0j, -2 + 0j, 1 + 0j)


def test_from_char_poly_normalizes_leading():
    p = Poly([2, -4, 2])  # 2(r-1)^2
    op = LinOp.from_char_poly(p)
    assert op.coeffs == (-2 + 0j, 1 + 0j)


def test_from_char_poly_rejects_constants():
    with pytest.raises(ValueError):
        LinOp.from_char_poly(Poly([3]))


def test_char_poly_round_trip():
    op = LinOp((1j, -2 + 0j, 0.5 + 0j))
    assert LinOp.from_char_poly(op.char_poly()) == op


@given(coeffs=st.lists(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
                       min_size=1, max_size=5))
def test_char_poly_bijection(coeffs):
    op = LinOp(tuple(coeffs))
    assert LinOp.from_char_poly(op.char_poly()).coeffs == op.coeffs


# ----------------------------------------------------------- application

def test_apply_annihilates_repeated_root_solution():
    # (d/dx - 1)^2 kills x e^x
    op = LinOp((-2 + 0j, 1 + 0j))
    y = ExpPoly.term(1 + 0j, Poly([0, 1]))
    assert op.apply(y).is_zero


def test_apply_eigen_relation():
    # (y'' + y) on e^{2x} multiplies by P(2) = 5
    op = LinOp((0j, 1 + 0j))
    y = ExpPoly.term(2 + 0j, Poly([1]))
    assert ep_close(op.apply(y), y.scale(5), 1e-12)


def test_apply_first_order():
    # y' + y on x: derivative 1 plus x
    op = LinOp((1 + 0j,))
    y = ExpPoly.from_poly(Poly([0, 1]))
    assert op.apply(y) == ExpPoly.from_poly(Poly([1, 1]))


def test_factored_apply_matches_annihilation():
    fac = FactoredOp(((1 + 0j, 3),))
    y = ExpPoly.term(1 + 0j, Poly([0, 0, 1]))  # x^2 e^x
    assert fac.apply(y).is_zero


def test_factored_op_validation():
    with pytest.raises(ValueError):
        FactoredOp(((1 + 0j, 0),))
    with pytest.raises(ValueError):
        FactoredOp(((1 + 0j, 1), (1 + 1e-12 + 0j, 1)))
    with pytest.raises(ValueError):
        FactoredOp(())


def test_factored_op_separation_does_not_overflow():
    fac = FactoredOp(((1.5e308 + 0j, 1), (1.5e308j, 1)))
    assert fac.order == 2
    with pytest.raises(ValueError, match="merge tolerance"):
        FactoredOp(((1.5e308j, 1), (1e-12 + 1.5e308j, 1)))


def test_factored_to_linop():
    fac = FactoredOp(((1 + 0j, 2),))
    assert fac.to_linop() == LinOp((-2 + 0j, 1 + 0j))
    assert fac.order == 2


def test_factor_op_recovers_multiplicities():
    op = LinOp((-3 + 0j, 3 + 0j, -1 + 0j))  # (r-1)^3
    fac = factor_op(op)
    assert fac.factors == ((1 + 0j, 3),)


def test_factor_op_complex_pair():
    op = LinOp((0j, 1 + 0j))  # r^2 + 1
    fac = factor_op(op)
    assert fac.factors == ((-1j, 1), (1j, 1))


def test_multiplicity_far_past_the_double_range():
    # |1.5e308i - 1.5e308| is past the double range: not a resonance, and
    # no OverflowError
    assert FactoredOp(((1.5e308 + 0j, 1),)).multiplicity(1.5e308j) == 0


@settings(max_examples=60, deadline=None)
@given(fac=factored_ops(), y=exppolys)
def test_path_agreement(fac, y):
    via_factors = fac.apply(y)
    via_coeffs = fac.to_linop().apply(y)
    assert ep_close(via_factors, via_coeffs, 1e-9)


@settings(max_examples=300, deadline=None)
@given(op=edge_linops, y=edge_exppolys)
@example(op=LinOp((1e308, 1e308)), y=ExpPoly.term(2.0, Poly((1.0,))))
@example(op=LinOp((1.5e308j,)), y=ExpPoly.term(1.5e308, Poly((1.0,))))
@example(op=LinOp((1.5e308j,)),
         y=ExpPoly(((-1.5e308, Poly((1.0,))), (1e300, Poly((1e10,))))))
def test_apply_matches_reference_bits(op, y):
    # the Taylor kernel on coefficient tuples: the same bits, signed zeros
    # included, or the same exception class and message.  The examples
    # overflow a product (ValueError), a modulus (OverflowError of abs) and
    # both, where every term is checked before any is cleaned, so the
    # second term's ValueError wins
    assert outcome(op.apply, y) == outcome(apply_reference, op, y)


# Gaussian dyadics: on these roots, exponents and small Gaussian integer
# coefficients every double product and sum below is exact
_DYADICS = (0j, 1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 1j, -1j, 1 + 1j, 1 - 1j,
            0.5 + 0j, -0.5 + 0j)
_small_ints = st.integers(-4, 4)
_small_coeffs = st.builds(complex, _small_ints, _small_ints).filter(
    lambda c: abs(c) <= 4)
_dyadic_exppolys = st.lists(
    st.tuples(st.sampled_from(_DYADICS),
              st.lists(_small_coeffs, min_size=1, max_size=4).map(Poly)),
    max_size=3).map(lambda terms: ExpPoly(tuple(terms)))


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(_DYADICS), st.integers(1, 2)),
                      min_size=1, max_size=3, unique_by=lambda rm: rm[0]),
       y=_dyadic_exppolys, data=st.data())
def test_one_evaluator_is_exact_on_dyadics(pairs, y, data):
    # LinOp.apply, and FactoredOp.apply in any factor order, run the one
    # kernel: on exact inputs both give the exact L[y], not just a close one
    a = exact.poly_from_roots(pairs)
    want = exact.apply(a, exact.EP.from_program(y)).terms
    op = LinOp.from_char_poly(Poly(tuple(map(complex, a))))
    assert exact.EP.from_program(op.apply(y)).terms == want
    fac = FactoredOp(tuple(data.draw(st.permutations(pairs))))
    assert exact.EP.from_program(fac.apply(y)).terms == want


@settings(max_examples=60, deadline=None)
@given(fac=factored_ops(),
       z=st.sampled_from((0.5 + 0.5j, 3 + 0j, -3 + 1j, 0.25j)))
def test_eigen_relation_off_roots(fac, z):
    y = ExpPoly.term(z, Poly([1]))
    scale = fac.char_poly()(z)
    assert ep_close(fac.apply(y), y.scale(scale), 1e-9)


# ---------------------------------------------------------- commutation

def test_compose_check_passes_on_permutation():
    a = FactoredOp(((0j, 2), (1j, 1)))
    b = FactoredOp(((1j, 1), (0j, 2)))
    y = ExpPoly.from_poly(Poly([0, 0, 0, 1]))  # x^3
    assert compose_check(a, b, y)


def test_compose_check_rejects_different_factors():
    a = FactoredOp(((0j, 2),))
    b = FactoredOp(((0j, 1), (1 + 0j, 1)))
    with pytest.raises(ValueError):
        compose_check(a, b, ExpPoly.constant(1))


@settings(max_examples=60, deadline=None)
@given(fac=factored_ops(max_order=5), y=exppolys, data=st.data())
def test_factor_order_never_matters(fac, y, data):
    perm = data.draw(st.permutations(fac.factors))
    other = FactoredOp(tuple(perm))
    assert compose_check(fac, other, y)


@settings(max_examples=100, deadline=None)
@given(fs=factored_ops().flatmap(lambda f: st.permutations(f.factors)))
# 1+1j has no conjugate among the roots, so there is no real basis
@example(fs=[(1 + 1j, 1), (0j, 2), (-1 + 0j, 1)])
@example(fs=[(1j, 2), (-2 + 0j, 1), (-1j, 2)])
def test_pairs_are_the_factors_in_factorization_order(fs):
    fac = FactoredOp(tuple(fs))
    assert fac.factors == tuple(fs)
    assert fac.pairs == Factorization(tuple(fs)).pairs
    # pairs is no field: repr, == and hash read the given order alone
    assert repr(fac) == f"FactoredOp(factors={tuple(fs)!r})"
    sorted_op = FactoredOp(fac.pairs)
    assert (fac == sorted_op) == (fac.factors == fac.pairs)
    assert hash(fac) == hash((fac.factors,))
    assert (outcome(homogeneous_solution, fac)
            == outcome(homogeneous_reference, fac))
    assert (outcome(real_homogeneous_solution, fac)
            == outcome(real_homogeneous_walk_reference, fac))


# ------------------------------------------------------ shifted operator

@settings(max_examples=60, deadline=None)
@given(y=exppolys,
       a=st.sampled_from((0j, 1 + 0j, -2 + 0j, 1j, 1 + 1j, 0.5 - 0.25j)),
       m=st.integers(1, 4))
def test_conjugation_by_exponential_is_plain_differentiation(y, a, m):
    # m-fold derivative of e^{-ax} y equals e^{-ax} ((d/dx - a)^m y)
    lhs = y.shift_exponent(-a)
    for _ in range(m):
        lhs = lhs.derivative()
    rhs = FactoredOp(((a, m),)).apply(y).shift_exponent(-a)
    assert ep_close(lhs, rhs, 1e-9)
