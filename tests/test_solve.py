"""Solution pipeline: homogeneous bases, particular solutions, fitting,
verification."""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expode import (
    EXP_MERGE_TOL,
    ExpPoly,
    FactoredOp,
    Factorization,
    FullSolution,
    LinOp,
    NotConjugateClosed,
    Poly,
    SingularSystem,
    ansatz_form,
    compile_equation,
    factor_op,
    find_roots,
    fit_initial_conditions,
    homogeneous_solution,
    monomial,
    particular_solution,
    real_homogeneous_solution,
    render,
    verify_solution,
    wronskian_determinant,
)
from strategies import (OP_GRID, complex_coeffs, ep_close, exppolys,
                        factored_ops, kernel_exppolys, kernel_factored_ops,
                        particular_reference, pointwise_value,
                        verify_reference)


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
    # the distance to the other root's conjugate is past the double range
    with pytest.raises(NotConjugateClosed):
        real_homogeneous_solution(
            FactoredOp(((1.5e308 + 1.5e308j, 1), (-1e-5j, 1))))


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


@settings(max_examples=300, deadline=None)
@given(fac=kernel_factored_ops(), f=kernel_exppolys)
def test_particular_matches_reference_bits(fac, f):
    # the old code differs only where two roots lie within EXP_MERGE_TOL of
    # one exponent; everywhere else the shared inverse gives the same bits
    assume(all(sum(abs(lam - r) <= EXP_MERGE_TOL for r, _ in fac.factors) < 2
               for lam, _ in f.terms))
    assert repr(particular_solution(fac, f)) == repr(particular_reference(fac, f))


def test_particular_counts_every_root_in_the_band():
    # two simple roots 1.5e-9 apart, forced at their midpoint: both count as
    # the exponent, so the answer is x^2/6 * e^(lam*x), resonance order 2
    fac = FactoredOp(((1, 1), (1 + 1.5e-9, 1), (-2, 1)))
    lam = 1 + 0.75e-9
    f = ExpPoly.term(lam, Poly([1]))
    part = particular_solution(fac, f)
    assert verify_solution(fac.to_linop(), f, part).within(1e-12)
    assert part.term_at(lam).degree == 2
    af = ansatz_form(fac, lam, 0)
    assert (af.resonance_order, af.degree) == (2, 2)
    assert fac.multiplicity(lam) == 2


@st.composite
def _band_pairs(draw, max_mult):
    """(FactoredOp, lam, j, m, f): two roots 1.01-1.99 EXP_MERGE_TOL apart
    around lam, of total multiplicity m, maybe one root of OP_GRID far from
    lam, and f = e^(lam*x) q with deg q = j <= 3."""
    lam = draw(st.sampled_from(OP_GRID))
    gap = draw(st.floats(1.01, 1.99)) * EXP_MERGE_TOL
    turn = draw(st.sampled_from((1, 1j, (1 + 1j) / abs(1 + 1j))))
    pairs = [(lam - 0.5 * gap * turn, draw(st.integers(1, max_mult))),
             (lam + 0.5 * gap * turn, draw(st.integers(1, max_mult)))]
    far = draw(st.sampled_from([None] + [r for r in OP_GRID
                                         if abs(r - lam) > 0.5]))
    if far is not None:
        pairs.append((far, draw(st.integers(1, 2))))
    j = draw(st.integers(0, 3))
    lead = draw(st.sampled_from((1, -2.5, 1j)))
    q = Poly(tuple(draw(st.lists(complex_coeffs, min_size=j, max_size=j)))
             + (complex(lead),))
    m = pairs[0][1] + pairs[1][1]
    return FactoredOp(tuple(pairs)), lam, j, m, ExpPoly.term(lam, q)


@settings(max_examples=100, deadline=None)
@given(case=_band_pairs(max_mult=1))
def test_simple_root_pair_in_the_band_verifies(case):
    fac, lam, j, _, f = case
    part = particular_solution(fac, f)
    assert verify_solution(fac.to_linop(), f, part).within(1e-8)
    assert part.term_at(lam).degree == j + 2


@settings(max_examples=100, deadline=None)
@given(case=_band_pairs(max_mult=3))
def test_band_degree_law_matches_ansatz(case):
    fac, lam, j, m, f = case
    af = ansatz_form(fac, lam, j)
    assert (af.resonance_order, af.degree) == (m, j + m)
    assert particular_solution(fac, f).term_at(lam).degree == af.degree


# ------------------------------------------------------------ ansatz form

def test_ansatz_nonresonant():
    fac = FactoredOp(((1 + 0j, 2),))
    af = ansatz_form(fac, 5 + 0j, 3)
    assert (af.exponent, af.resonance_order, af.degree) == (5 + 0j, 0, 3)
    # |1.5e308i - 1.5e308| is past the double range: not resonant
    fac = FactoredOp(((1.5e308 + 0j, 1),))
    assert ansatz_form(fac, 1.5e308j, 0).resonance_order == 0


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


@pytest.mark.parametrize("points", [2, 5, 50])
@settings(max_examples=20, deadline=None)
@given(fac=factored_ops(), f=exppolys)
def test_verify_matches_reference_bits(points, fac, f):
    # the cached grid, L[y] - 0 as L[y] itself and the unit scale of f = 0
    # skip work, not bits: every basis element and the particular solution
    op = fac.to_linop()
    checks = [(ExpPoly.zero(), b) for b in homogeneous_solution(fac).basis]
    checks.append((f, particular_solution(fac, f)))
    for rhs, y in checks:
        assert (repr(verify_solution(op, rhs, y, points))
                == repr(verify_reference(op, rhs, y, points)))


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


def test_wronskian_forms_only_the_rows_it_uses():
    # two rows; the second derivative of exp(1e155i*x) would overflow
    basis = (ExpPoly.constant(1), ExpPoly.term(1e155j, Poly([1])))
    assert wronskian_determinant(basis) == 1.0


def test_wronskian_of_dependent_set_vanishes():
    e = ExpPoly.term(1 + 0j, Poly([1]))
    assert wronskian_determinant((e, e)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(fac=factored_ops())
def test_wronskian_nonsingular_for_solution_bases(fac):
    hom = homogeneous_solution(fac)
    assert wronskian_determinant(hom.basis) > 1e-9


@pytest.mark.parametrize("call, message", [
    (lambda: monomial(-1), "power must be nonnegative"),
    (lambda: Factorization(((complex(math.inf, 0.0), 1),)),
     "roots must be finite"),
    (lambda: Factorization(((1.0, 1),), 0.0),
     "leading coefficient must be finite and nonzero"),
    (lambda: LinOp(()), "operator order must be >= 1"),
    (lambda: LinOp((math.inf,)), "operator coefficients must be finite"),
    (lambda: ExpPoly.term(1.0, Poly((1.0,))).nth_antiderivative(0),
     "m must be >= 1"),
    (lambda: wronskian_determinant([]), "basis must be nonempty"),
], ids=["monomial", "infinite-root", "zero-leading", "empty-operator",
        "infinite-operator", "antiderivative-0", "empty-basis"])
def test_library_input_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
