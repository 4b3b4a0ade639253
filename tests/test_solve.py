"""Solution pipeline: homogeneous bases, particular solutions, fitting,
verification."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expode import (
    ExpPoly,
    FactoredOp,
    FullSolution,
    LinOp,
    NotConjugateClosed,
    Poly,
    SingularSystem,
    ansatz_form,
    compile_equation,
    factor_op,
    fit_initial_conditions,
    homogeneous_solution,
    particular_solution,
    real_homogeneous_solution,
    render,
    verify_solution,
    wronskian_determinant,
)
from strategies import ep_close, exppolys, factored_ops, pointwise_value


# ------------------------------------------------------ homogeneous basis

def test_basis_for_double_zero_root():
    hom = homogeneous_solution(FactoredOp(((0j, 2),)))
    assert [render(b) for b in hom.basis] == ["1", "x"]
    assert hom.constants == ("C1", "C2")


def test_basis_order_is_canonical():
    hom = homogeneous_solution(FactoredOp(((1 + 0j, 1), (-1 + 0j, 1))))
    assert [render(b) for b in hom.basis] == ["exp(-x)", "exp(x)"]
    # same basis regardless of the factor order handed in
    hom2 = homogeneous_solution(FactoredOp(((-1 + 0j, 1), (1 + 0j, 1))))
    assert hom.basis == hom2.basis


def test_basis_shapes_with_multiplicity():
    hom = homogeneous_solution(FactoredOp(((2 + 0j, 3),)))
    assert [render(b) for b in hom.basis] == \
        ["exp(2*x)", "x*exp(2*x)", "x^2*exp(2*x)"]


def test_basis_annihilated():
    fac = FactoredOp(((1 + 1j, 2), (-2 + 0j, 1)))
    op = fac.to_linop()
    for b in homogeneous_solution(fac).basis:
        assert op.apply(b).max_coeff() <= 1e-9


def test_real_basis_simple_pair():
    rb = real_homogeneous_solution(FactoredOp(((1j, 1), (-1j, 1))))
    assert [render(b, realify=True) for b in rb.basis] == ["cos(x)", "sin(x)"]


def test_real_basis_repeated_pair():
    rb = real_homogeneous_solution(FactoredOp(((2j, 2), (-2j, 2))))
    assert [render(b, realify=True) for b in rb.basis] == \
        ["cos(2*x)", "sin(2*x)", "x*cos(2*x)", "x*sin(2*x)"]


def test_real_basis_mixed_roots():
    rb = real_homogeneous_solution(FactoredOp(((0j, 1), (2j, 1), (-2j, 1))))
    assert [render(b, realify=True) for b in rb.basis] == \
        ["cos(2*x)", "sin(2*x)", "1"]


def test_real_basis_requires_conjugate_closure():
    with pytest.raises(NotConjugateClosed):
        real_homogeneous_solution(FactoredOp(((1j, 1),)))
    with pytest.raises(NotConjugateClosed):
        real_homogeneous_solution(FactoredOp(((1j, 2), (-1j, 1))))


def test_real_basis_still_annihilated():
    fac = FactoredOp(((1 + 2j, 1), (1 - 2j, 1), (-1 + 0j, 1)))
    op = fac.to_linop()
    for b in real_homogeneous_solution(fac).basis:
        assert op.apply(b).max_coeff() <= 1e-9


# ----------------------------------------------------- particular solution

def test_particular_double_integration():
    part = particular_solution(FactoredOp(((0j, 2),)), ExpPoly.constant(1))
    assert part == ExpPoly.from_poly(Poly([0, 0, 0.5]))


def test_particular_nonresonant_exponential():
    # y'' - y = e^{3x}; P(3) = 8
    fac = FactoredOp(((1 + 0j, 1), (-1 + 0j, 1)))
    part = particular_solution(fac, ExpPoly.term(3 + 0j, Poly([1])))
    assert ep_close(part, ExpPoly.term(3 + 0j, Poly([0.125])), 1e-12)


def test_particular_simple_resonance():
    # y' - y = e^x resonates into x e^x
    fac = FactoredOp(((1 + 0j, 1),))
    part = particular_solution(fac, ExpPoly.term(1 + 0j, Poly([1])))
    assert ep_close(part, ExpPoly.term(1 + 0j, Poly([0, 1])), 1e-12)


def test_particular_strips_homogeneous_component():
    # y'' - y' = 1: the raw factor sweep produces -x - 1, and the constant
    # is a homogeneous solution that must not appear
    fac = FactoredOp(((0j, 1), (1 + 0j, 1)))
    part = particular_solution(fac, ExpPoly.constant(1))
    assert part == ExpPoly.from_poly(Poly([0, -1]))


def test_particular_resonant_with_spectators():
    # ((d-1)^2 (d+1)) y = x e^x: solved by e^x (x^3/12 - x^2/8)
    fac = FactoredOp(((1 + 0j, 2), (-1 + 0j, 1)))
    f = ExpPoly.term(1 + 0j, Poly([0, 1]))
    part = particular_solution(fac, f)
    want = ExpPoly.term(1 + 0j, Poly([0, 0, -0.125, 1 / 12]))
    assert ep_close(part, want, 1e-12)
    assert verify_solution(fac.to_linop(), f, part).within(1e-10)


def test_particular_zero_rhs():
    assert particular_solution(FactoredOp(((1 + 0j, 1),)),
                               ExpPoly.zero()).is_zero


def test_particular_superposition():
    fac = FactoredOp(((1 + 0j, 2), (0j, 1)))
    f = ExpPoly.term(2 + 0j, Poly([1, 1]))
    g = ExpPoly.term(-1j, Poly([3]))
    lhs = particular_solution(fac, f + g)
    rhs = particular_solution(fac, f) + particular_solution(fac, g)
    assert ep_close(lhs, rhs, 1e-9)


def test_particular_independent_of_factor_order():
    base = ((0j, 1), (1 + 0j, 2), (-1j, 1))
    f = ExpPoly.term(1 + 0j, Poly([1])) + ExpPoly.constant(1)
    results = []
    for perm in itertools.permutations(base):
        fac = FactoredOp(tuple(perm))
        part = particular_solution(fac, f)
        assert verify_solution(fac.to_linop(), f, part).within(1e-9)
        results.append(part)
    for other in results[1:]:
        assert ep_close(results[0], other, 1e-9)


@settings(max_examples=50, deadline=None)
@given(fac=factored_ops(), f=exppolys)
def test_particular_always_verifies(fac, f):
    part = particular_solution(fac, f)
    assert verify_solution(fac.to_linop(), f, part).within(1e-8)


# ------------------------------------------------------------ ansatz form

def test_ansatz_nonresonant():
    fac = FactoredOp(((1 + 0j, 2),))
    af = ansatz_form(fac, 5 + 0j, 3)
    assert (af.exponent, af.resonance_order, af.degree) == (5 + 0j, 0, 3)


def test_ansatz_resonant():
    fac = FactoredOp(((1 + 0j, 2), (0j, 1)))
    af = ansatz_form(fac, 1 + 0j, 3)
    assert (af.resonance_order, af.degree) == (2, 5)
    af0 = ansatz_form(fac, 0j, 0)
    assert (af0.resonance_order, af0.degree) == (1, 1)


def test_ansatz_rejects_negative_degree():
    with pytest.raises(ValueError):
        ansatz_form(FactoredOp(((0j, 1),)), 0j, -1)


def test_particular_matches_ansatz_degrees():
    fac = FactoredOp(((1 + 0j, 2), (-2 + 0j, 1)))
    for b, j in [(1 + 0j, 0), (1 + 0j, 2), (-2 + 0j, 1), (3 + 0j, 2), (1j, 3)]:
        f = ExpPoly.term(b, Poly((0j,) * j + (1 + 0j,)))
        part = particular_solution(fac, f)
        af = ansatz_form(fac, b, j)
        poly = part.term_at(b)
        assert poly is not None
        assert poly.degree == af.degree
        assert poly.lowest_power >= af.resonance_order
        assert len(part.terms) == 1


@pytest.mark.parametrize("equation", [
    "y'' + 3*y' + 5*y = exp(0.1*x)*sin(3*x)",
    "y^(4) + y = exp(i*x)",
])
def test_particular_keeps_forcing_exponents_exactly(equation):
    op, rhs = compile_equation(equation)
    part = particular_solution(factor_op(op), rhs)
    assert [lam for lam, _ in part.terms] == [lam for lam, _ in rhs.terms]


# -------------------------------------------------------------- fitting

def test_fit_recovers_sine():
    fac = FactoredOp(((1j, 1), (-1j, 1)))
    full = FullSolution(homogeneous_solution(fac), ExpPoly.zero())
    fitted = fit_initial_conditions(full, ((0, 0.0, 0), (1, 0.0, 1)))
    assert ep_close(fitted, ExpPoly.term(1j, Poly([-0.5j]))
                    + ExpPoly.term(-1j, Poly([0.5j])), 1e-10)
    for x in (0.0, 0.5, 1.2):
        assert abs(fitted(x) - math.sin(x)) < 1e-12


def test_fit_includes_particular():
    # y' - y = e^x with y(0) = 2: y = x e^x + 2 e^x
    fac = FactoredOp(((1 + 0j, 1),))
    part = particular_solution(fac, ExpPoly.term(1 + 0j, Poly([1])))
    full = FullSolution(homogeneous_solution(fac), part)
    fitted = fit_initial_conditions(full, ((0, 0.0, 2),))
    assert ep_close(fitted, ExpPoly.term(1 + 0j, Poly([2, 1])), 1e-10)


def test_fit_away_from_origin():
    fac = FactoredOp(((1 + 0j, 1), (-1 + 0j, 1)))
    full = FullSolution(homogeneous_solution(fac), ExpPoly.zero())
    fitted = fit_initial_conditions(full, ((0, 1.0, math.cosh(1.0)),
                                           (1, 1.0, math.sinh(1.0))))
    for x in (0.0, 0.4, 1.5):
        assert abs(fitted(x) - math.cosh(x)) < 1e-10


def test_fit_validates_conditions():
    fac = FactoredOp(((1j, 1), (-1j, 1)))
    full = FullSolution(homogeneous_solution(fac), ExpPoly.zero())
    with pytest.raises(ValueError):
        fit_initial_conditions(full, ((0, 0.0, 1),))  # too few
    with pytest.raises(ValueError):
        fit_initial_conditions(full, ((0, 0.0, 1), (1, 1.0, 0)))  # two points
    with pytest.raises(ValueError):
        fit_initial_conditions(full, ((0, 0.0, 1), (0, 0.0, 2)))  # dup order
    with pytest.raises(ValueError):
        fit_initial_conditions(full, ((0, 0.0, 1), (5, 0.0, 0)))  # bad order


def test_fit_singular_system():
    from expode.solve import HomogeneousSolution
    e = ExpPoly.term(1 + 0j, Poly([1]))
    degenerate = HomogeneousSolution(basis=(e, e), constants=("C1", "C2"))
    full = FullSolution(degenerate, ExpPoly.zero())
    with pytest.raises(SingularSystem):
        fit_initial_conditions(full, ((0, 0.0, 1), (1, 0.0, 0)))


# ---------------------------------------------------------- verification

def test_verify_accepts_true_solution():
    op = LinOp((0j, 1 + 0j))  # y'' + y
    f = ExpPoly.term(2 + 0j, Poly([5]))
    y = ExpPoly.term(2 + 0j, Poly([1]))
    rep = verify_solution(op, f, y)
    assert rep.within(1e-8)
    assert rep.symbolic <= 1e-12 and rep.pointwise <= 1e-12


def test_verify_rejects_perturbed_solution():
    op = LinOp((0j, 1 + 0j))
    f = ExpPoly.term(2 + 0j, Poly([5]))
    y = ExpPoly.term(2 + 0j, Poly([1])) + ExpPoly.term(5 + 0j, Poly([1e-3]))
    assert not verify_solution(op, f, y).within(1e-8)


def test_verify_ignores_homogeneous_offsets():
    op = LinOp((0j, 1 + 0j))
    f = ExpPoly.term(2 + 0j, Poly([5]))
    y = ExpPoly.term(2 + 0j, Poly([1])) + ExpPoly.term(1j, Poly([3 - 2j]))
    assert verify_solution(op, f, y).within(1e-8)


def test_verify_point_count_validation():
    op = LinOp((1 + 0j,))
    with pytest.raises(ValueError):
        verify_solution(op, ExpPoly.zero(), ExpPoly.zero(), points=1)


@settings(max_examples=100)
@given(fac=factored_ops(), f=exppolys, y=exppolys, points=st.integers(2, 60))
def test_pointwise_residual_matches_point_by_point_grid(fac, f, y, points):
    residual = fac.apply(y) - f
    want = max(abs(pointwise_value(residual, x)) / (1.0 + abs(pointwise_value(f, x)))
               for x in (-1.0 + 2.0 * k / (points - 1) for k in range(points)))
    assert verify_solution(fac, f, y, points=points).pointwise == want


def test_verify_works_with_factored_operator():
    fac = FactoredOp(((1 + 0j, 1),))
    f = ExpPoly.term(1 + 0j, Poly([1]))
    y = ExpPoly.term(1 + 0j, Poly([0, 1]))
    assert verify_solution(fac, f, y).within(1e-10)


# ------------------------------------------------------------- wronskian

def test_wronskian_of_independent_basis():
    hom = homogeneous_solution(FactoredOp(((1 + 0j, 1), (-1 + 0j, 1),
                                           (2 + 0j, 1))))
    assert wronskian_determinant(hom.basis) > 1e-9


def test_elimination_pivots_and_returns_determinant():
    from expode.solve import _eliminate
    matrix = [[0, 2, 1], [1, 1, 0], [0, 0, 3j]]  # one row swap
    det, x = _eliminate(matrix, [1, 2, 3])
    assert abs(det - (-6j)) < 1e-12
    for row, b in zip(matrix, [1, 2, 3]):
        assert abs(sum(a * c for a, c in zip(row, x)) - b) < 1e-12
    with pytest.raises(SingularSystem):
        _eliminate([[1, 2], [2, 4]], [1, 1])


def test_wronskian_of_dependent_set_vanishes():
    e = ExpPoly.term(1 + 0j, Poly([1]))
    assert wronskian_determinant((e, e)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(fac=factored_ops())
def test_wronskian_nonsingular_for_solution_bases(fac):
    hom = homogeneous_solution(fac)
    assert wronskian_determinant(hom.basis) > 1e-9
