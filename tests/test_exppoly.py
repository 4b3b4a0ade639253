"""Exponential-polynomial algebra, calculus, and realification."""

import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expode import (
    EXP_MERGE_TOL,
    ExpPoly,
    NotConjugateClosed,
    Poly,
    coeff_distance,
    realify,
)
from expode.exppoly import _canonical, _sampled
from strategies import (
    GRID,
    antiderivative_reference,
    canonical_reference,
    complex_coeffs,
    derivative_reference,
    edge_coeffs,
    edge_exppolys,
    edge_points,
    ep_close,
    exppoly_pairs,
    exppolys,
    kernel_exppolys,
    nonzero_polys,
    outcome,
    pointwise_value,
    sample_reference,
    sum_reference,
    trusted_reference,
)


# ------------------------------------------------------- representation

def test_canonical_merges_nearby_exponents():
    f = ExpPoly(((0j, Poly([1])), (1e-12 + 0j, Poly([1]))))
    assert len(f.terms) == 1
    assert f.terms[0][1].coeffs == (2 + 0j,)


def test_canonical_drops_zero_polys():
    f = ExpPoly(((1 + 0j, Poly([0])), (0j, Poly([3]))))
    assert len(f.terms) == 1
    assert f.terms[0][0] == 0j


def test_terms_sorted_by_exponent():
    f = ExpPoly(((2 + 0j, Poly([1])), (-1 + 0j, Poly([1])), (1j, Poly([1]))))
    assert [lam for lam, _ in f.terms] == [-1 + 0j, 1j, 2 + 0j]


def test_relative_coefficient_cleanup():
    # dust far below the term's own scale disappears
    f = ExpPoly.term(1 + 0j, Poly([1e-15, 1.0]))
    assert f.terms[0][1].coeffs == (0j, 1 + 0j)


def test_constructors():
    assert ExpPoly.zero().is_zero
    assert ExpPoly.constant(0).is_zero
    assert ExpPoly.constant(2 + 1j).terms == ((0j, Poly([2 + 1j])),)
    assert ExpPoly.from_poly(Poly([0, 1])).terms == ((0j, Poly([0, 1])),)


def test_term_at():
    f = ExpPoly.term(1 + 0j, Poly([2])) + ExpPoly.constant(5)
    assert f.term_at(1 + 0j) == Poly([2])
    assert f.term_at(1 + 1e-12) == Poly([2])
    assert f.term_at(3 + 0j) is None
    # |-1.5e308i - 1.5e308| is past the double range: no term, no error
    assert ExpPoly.term(1.5e308, Poly([1])).term_at(-1.5e308j) is None


def test_equality_is_canonical():
    a = ExpPoly.term(1 + 0j, Poly([1])) + ExpPoly.term(2 + 0j, Poly([1]))
    b = ExpPoly.term(2 + 0j, Poly([1])) + ExpPoly.term(1 + 0j, Poly([1]))
    assert a == b


# exponents on a grid of step 0.35e-9..1.46e-9 (a multiple of 2^-34, so
# differences are exact and equal distances really tie): chains of entries
# within EXP_MERGE_TOL of each other and of two slots at once
_merge_steps = st.integers(6, 25).map(lambda k: k * 2.0 ** -34)
_dust = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-13, -3e-14, 1e-300])
_parts = st.lists(st.builds(complex, _dust | st.floats(-3, 3), _dust),
                  min_size=1, max_size=4)


@st.composite
def merge_chains(draw):
    base = draw(st.sampled_from([0j, 1 + 0j, -0.5 + 2j]))
    h = draw(_merge_steps)
    grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return [(base + complex(a * h, b * h), draw(_parts))
            for a, b in draw(st.lists(grid, min_size=1, max_size=8))]


def _hex_terms(terms):
    return [((lam.real.hex(), lam.imag.hex()),
             [(c.real.hex(), c.imag.hex()) for c in p.coeffs])
            for lam, p in terms]


@settings(max_examples=300)
@given(raw=merge_chains())
# fewer than two nonzero entries skip the sort and the merge: none, one whose
# exponent's signed zeros must survive, one whose dust is cleaned, and one
# whose polynomial is zero; a non-finite exponent is still refused
@example(raw=[])
@example(raw=[(-0j, [1.0])])
@example(raw=[(0.5 - 0j, [1.0, 1e-13])])
@example(raw=[(1 + 0j, [0.0])])
@example(raw=[(complex(math.inf, 0.0), [1.0])]).xfail(
    raises=ValueError, reason="exponents must be finite")
def test_merge_scan_matches_quadratic_search(raw):
    assert _hex_terms(_canonical(raw)) == _hex_terms(canonical_reference(raw))


# ------------------------------------------------------------- algebra

def test_product_expands_exponents():
    # (exp(x) + x) * exp(-x) = 1 + x*exp(-x)
    f = ExpPoly.term(1 + 0j, Poly([1])) + ExpPoly.from_poly(Poly([0, 1]))
    g = ExpPoly.term(-1 + 0j, Poly([1]))
    prod = f * g
    assert prod.term_at(0j) == Poly([1])
    assert prod.term_at(-1 + 0j) == Poly([0, 1])


@given(f=exppolys)
def test_sum_with_zero_is_the_canonical_operand(f):
    want, zero = repr(ExpPoly(f.terms)), ExpPoly.zero()
    assert repr(f + zero) == repr(zero + f) == repr(f - zero) == want


@settings(max_examples=300)
@given(pair=exppoly_pairs())
def test_sum_matches_the_constructor(pair):
    # the term-by-term sum of aligned operands included
    a, b = pair
    assert repr(a + b) == repr(ExpPoly(a.terms + b.terms))
    assert repr(a - b) == repr(ExpPoly(a.terms + (-b).terms))


# (0.7e308+0.7e308i)*exp(x) + 1e308*exp(2*x): doubled, the first term's
# modulus and the second term leave the double range
_PAST_RANGE = ExpPoly(((1 + 0j, Poly((complex(0.7e308, 0.7e308),))),
                       (2 + 0j, Poly((1e308,)))))


@settings(max_examples=300)
@given(pair=st.tuples(edge_exppolys, edge_exppolys) | exppoly_pairs(),
       c=st.sampled_from((0, -0.0, 0.5, 1e308, -0.5j)) | edge_coeffs)
@example(pair=(_PAST_RANGE, _PAST_RANGE), c=2)
def test_results_are_built_by_the_constructor(pair, c):
    # -f, f.scale(c), f + g and f - g are ExpPoly on their term lists: the
    # same bits, or the same exception, since every term is checked before
    # any is cleaned (in the example, the second term's ValueError wins over
    # the first's OverflowError of abs, in scale and in the aligned sum).
    # Where both succeed, the bits are also those of the shortcuts that
    # only cleaned: a zero operand, aligned exponents, unchanged exponents.
    f, g = pair
    neg = lambda h: tuple((lam, -p) for lam, p in h.terms)
    scaled = lambda: ((lam, p.scale(complex(c))) for lam, p in f.terms)
    cases = [
        (lambda: -f, lambda: ExpPoly(neg(f)),
         lambda: trusted_reference(neg(f))),
        (lambda: f.scale(c), lambda: ExpPoly(tuple(scaled())),
         lambda: trusted_reference(scaled())),
        (lambda: f + g, lambda: ExpPoly(f.terms + g.terms),
         lambda: sum_reference(f, g)),
        (lambda: f - g, lambda: ExpPoly(f.terms + (-g).terms),
         lambda: sum_reference(f, trusted_reference(neg(g)))),
    ]
    for result, built, shortcut in cases:
        got = outcome(result)
        assert got == outcome(built)
        old = outcome(shortcut)
        if isinstance(got, str) and isinstance(old, str):
            assert got == old


@settings(max_examples=200)
@given(pair=exppoly_pairs(),
       xs=st.lists(st.floats(-1, 1), min_size=1, max_size=4))
def test_shared_rows_give_each_function_its_own_values(pair, xs):
    # signed zero exponents included: 0j and -0j share one row
    rows, hexed = {}, lambda vs: [(v.real.hex(), v.imag.hex()) for v in vs]
    for f in pair:
        terms = [(lam, p.coeffs) for lam, p in f.terms]
        assert hexed(_sampled(terms, xs, rows)) == hexed(f.values(xs))


def test_scale_by_zero():
    assert ExpPoly.constant(3).scale(0).is_zero


def test_shift_exponent():
    f = ExpPoly.term(1 + 0j, Poly([0, 1]))
    g = f.shift_exponent(-1 - 1j)
    assert g.terms[0][0] == -1j
    assert g.terms[0][1] == Poly([0, 1])


@given(f=exppolys, g=exppolys, x=st.floats(-1, 1))
def test_eval_respects_ring_ops(f, g, x):
    scale = 1 + abs(f(x)) + abs(g(x))
    assert abs((f + g)(x) - (f(x) + g(x))) <= 1e-9 * scale
    assert abs((f * g)(x) - f(x) * g(x)) <= 1e-7 * (1 + abs(f(x)) * abs(g(x)))


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@settings(max_examples=200)
@given(f=exppolys, xs=st.lists(
    st.one_of(st.floats(-3, 3), complex_coeffs), min_size=1, max_size=8))
def test_values_match_pointwise_evaluation_bit_for_bit(f, xs):
    # the sign of a zero counts, so compare the bits
    want = [_bits(pointwise_value(f, x)) for x in xs]
    assert [_bits(v) for v in f.values(xs)] == want
    assert [_bits(f(x)) for x in xs] == want


@settings(max_examples=300)
@given(fs=st.lists(edge_exppolys, min_size=1, max_size=3),
       xs=st.lists(edge_points | st.floats(-1, 1), min_size=1, max_size=4))
def test_sample_matches_reference_bits(fs, xs):
    # the Horner kernel on coefficient tuples, one dict of rows shared by
    # every function as the verifier shares it: the same bits, signed zeros
    # included, or the same exception class and message
    rows, old_rows = {}, {}
    for f in fs:
        terms = [(lam, p.coeffs) for lam, p in f.terms]
        assert (outcome(_sampled, terms, xs, rows)
                == outcome(sample_reference, f, xs, old_rows))


@settings(max_examples=300)
@given(f=edge_exppolys)
@example(f=ExpPoly.term(1e300, Poly((1.0, 1e10))))
@example(f=ExpPoly(((-1.5e308, Poly((1 + 1j,))), (1e300, Poly((1e10,))))))
@example(f=ExpPoly.term(0j, Poly((1.0, complex(-0.0, 2.0)))))
def test_derivative_matches_reference_bits(f):
    # the step lam*p + p' on coefficient tuples.  Examples: lam*p leaves the
    # double range (ValueError); every term is checked before any is
    # cleaned, so the second term's ValueError wins over the first's
    # OverflowError of abs; at lam = 0 the empty lam*p adds no 0.0 to p'
    # (which would turn -0.0 into 0.0)
    assert outcome(f.derivative) == outcome(derivative_reference, f)


def test_values_of_zero_are_zero():
    assert ExpPoly.zero().values([-1.0, 0.5]) == [0j, 0j]


def test_eval_against_cmath():
    # f = (2+i) x^2 e^{(1+i)x} at x = 0.7
    f = ExpPoly.term(1 + 1j, Poly([0, 0, 2 + 1j]))
    x = 0.7
    want = (2 + 1j) * x * x * cmath.exp((1 + 1j) * x)
    assert abs(f(x) - want) <= 1e-12 * abs(want)


# ------------------------------------------------------------ calculus

def test_derivative_of_monomial_times_exp():
    # d/dx [x e^x] = (1+x) e^x
    f = ExpPoly.term(1 + 0j, Poly([0, 1]))
    assert f.derivative() == ExpPoly.term(1 + 0j, Poly([1, 1]))


def test_antiderivative_resonant_example():
    # integral of x e^x is (x-1) e^x, constant dropped
    f = ExpPoly.term(1 + 0j, Poly([0, 1]))
    g = f.antiderivative()
    assert ep_close(g, ExpPoly.term(1 + 0j, Poly([-1, 1])), 1e-12)
    assert ep_close(g.derivative(), f, 1e-12)


def test_antiderivative_zero_exponent():
    # integral of x^2 is x^3/3
    f = ExpPoly.from_poly(Poly([0, 0, 1]))
    g = f.antiderivative()
    assert g == ExpPoly.from_poly(Poly([0, 0, 0, 1 / 3]))


def test_nth_antiderivative():
    f = ExpPoly.term(1 + 0j, Poly([1]))
    assert ep_close(f.nth_antiderivative(3), f, 1e-12)
    g = ExpPoly.constant(2)
    assert g.nth_antiderivative(2) == ExpPoly.from_poly(Poly([0, 0, 1]))


def test_antiderivative_of_zero():
    assert ExpPoly.zero().antiderivative().is_zero


@given(f=exppolys)
def test_derivative_then_antiderivative_is_identity(f):
    assert ep_close(f.antiderivative().derivative(), f, 1e-10)


@given(lam=st.sampled_from(GRID), j=st.integers(0, 4),
       c=complex_coeffs.filter(lambda z: abs(z) > 1e-3))
def test_antiderivative_degree_law(lam, j, c):
    # single monomial term c x^j e^{lam x}
    f = ExpPoly.term(lam, Poly((0j,) * j + (c,)))
    g = f.antiderivative()
    assert len(g.terms) == 1
    glam, gp = g.terms[0]
    assert abs(glam - lam) <= EXP_MERGE_TOL
    if abs(lam) <= EXP_MERGE_TOL:
        assert gp.degree == j + 1
    else:
        assert gp.degree == j


@settings(max_examples=300)
@given(f=kernel_exppolys)
def test_antiderivative_matches_reference_bits(f):
    # the factor D, root 0, through the shared inverse: (w - (k+1)*0j)/(lam - 0j)
    # is w/lam bit for bit, signed zeros included
    assert repr(f.antiderivative()) == repr(antiderivative_reference(f))


def test_inverse_checks_each_term_as_it_is_formed():
    # the first term's w overflows to inf and the second's |lam| is past the
    # double range: the first term's ValueError comes before abs() raises
    f = ExpPoly(((1e-8, Poly((1e308,))), (1.5e308 + 1.5e308j, Poly((1.0,)))))
    want = ("ValueError", "polynomial coefficients must be finite")
    assert outcome(f.antiderivative) == want
    assert outcome(antiderivative_reference, f) == want


@given(f=exppolys, g=exppolys, a=complex_coeffs, b=complex_coeffs)
def test_antiderivative_linearity(f, g, a, b):
    lhs = (f.scale(a) + g.scale(b)).antiderivative()
    rhs = f.antiderivative().scale(a) + g.antiderivative().scale(b)
    assert ep_close(lhs, rhs, 1e-10)


@settings(max_examples=40)
@given(f=exppolys, x=st.floats(-1, 1))
def test_derivative_matches_central_difference(f, x):
    h = 1e-5
    numeric = (f(x + h) - f(x - h)) / (2 * h)
    exact = f.derivative()(x)
    assert abs(exact - numeric) <= 1e-4 * (1 + abs(exact))


# ---------------------------------------------------------- realification

def test_realify_sin_pair():
    # (e^{(1+2i)x} - e^{(1-2i)x}) / 2i = e^x sin(2x)
    f = (ExpPoly.term(1 + 2j, Poly([1])) -
         ExpPoly.term(1 - 2j, Poly([1]))).scale(1 / 2j)
    t = realify(f)
    assert len(t.entries) == 1
    alpha, beta, cos_part, sin_part = t.entries[0]
    assert alpha == 1.0 and beta == 2.0
    assert cos_part.is_zero
    assert sin_part == Poly([1])
    for x in (0.1, 0.7, 1.3):
        assert abs(t(x) - math.exp(x) * math.sin(2 * x)) < 1e-12


def test_realify_cos_pair():
    f = (ExpPoly.term(1j, Poly([1])) + ExpPoly.term(-1j, Poly([1]))).scale(0.5)
    t = realify(f)
    assert len(t.entries) == 1
    alpha, beta, cos_part, sin_part = t.entries[0]
    assert alpha == 0.0 and beta == 1.0
    assert cos_part == Poly([1])
    assert sin_part.is_zero


def test_realify_passes_real_terms_through():
    f = ExpPoly.from_poly(Poly([0, 0, 1])) + ExpPoly.term(1 + 0j, Poly([2]))
    t = realify(f)
    assert [(e[0], e[1]) for e in t.entries] == [(0.0, 0.0), (1.0, 0.0)]
    assert t.entries[0][2] == Poly([0, 0, 1])
    assert t.entries[1][2] == Poly([2])


def test_realify_rejects_lone_complex_exponent():
    with pytest.raises(NotConjugateClosed):
        realify(ExpPoly.term(1j, Poly([1])))
    # the distance to the other term's conjugate is past the double range
    f = ExpPoly(((1.5e308 + 1.5e308j, Poly([1])), (-1e-5j, Poly([1]))))
    with pytest.raises(NotConjugateClosed):
        realify(f)


def test_realify_rejects_imaginary_coefficient_at_real_exponent():
    with pytest.raises(NotConjugateClosed):
        realify(ExpPoly.term(1 + 0j, Poly([1j])))


def test_realify_rejects_mismatched_pair():
    f = ExpPoly.term(1j, Poly([1])) + ExpPoly.term(-1j, Poly([0, 1]))
    with pytest.raises(NotConjugateClosed):
        realify(f)
    # coefficients whose difference has a modulus past the double range
    f = ExpPoly(((1j, Poly([1.5e308])), (-1j, Poly([1.5e308j]))))
    with pytest.raises(NotConjugateClosed):
        realify(f)


def test_realify_zero():
    assert realify(ExpPoly.zero()).entries == ()


@given(f=exppolys, x=st.floats(-1, 1))
def test_realified_sum_with_conjugate_evaluates_real(f, x):
    conj_terms = tuple((lam.conjugate(),
                        Poly(tuple(c.conjugate() for c in p.coeffs)))
                       for lam, p in f.terms)
    closed = f + ExpPoly(conj_terms)
    t = realify(closed)
    want = closed(x)
    assert abs(want.imag) <= 1e-9 * (1 + abs(want))
    assert abs(t(x) - want.real) <= 1e-9 * (1 + abs(want))


def test_coeff_distance():
    f = ExpPoly.constant(1)
    g = ExpPoly.constant(1 + 1e-12)
    assert coeff_distance(f, g) <= 1e-11
    assert coeff_distance(f, ExpPoly.constant(2)) == pytest.approx(1.0)
