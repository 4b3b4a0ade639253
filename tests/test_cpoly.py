"""Polynomial arithmetic and multiplicity-aware root finding."""

import cmath

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expode import (
    Factorization,
    NonConvergence,
    Poly,
    coefficients_match,
    compile_equation,
    find_roots,
    monomial,
)
import strategies
from expode import cpoly
from expode.cli import main
from expode.cpoly import (_aberth, _add, _checked, _mul, _neg, _refined,
                          _scale, _start_points)
from strategies import (OP_GRID, aberth_reference, complex_coeffs,
                        edge_coeffs, expand_reference, factored_ops, outcome,
                        poly_trusted_reference, polys, refined_reference)


# ------------------------------------------------------------ arithmetic

def test_add_mul_eval():
    p = Poly([1, 1])   # 1 + x
    q = Poly([1, -1])  # 1 - x
    assert (p * q).coeffs == (1 + 0j, 0j, -1 + 0j)
    assert (p + q).coeffs == (2 + 0j,)
    assert (p * q)(2.0) == -3 + 0j


def _expanded(fact: Factorization) -> tuple:
    """The tuple that Factorization.expand builds its Poly from."""
    acc = (fact.leading,)
    for r, m in fact.pairs:
        for _ in range(m):
            acc = _checked(tuple(0j + a + b * -r
                                 for a, b in zip((0j,) + acc, acc + (0j,))))
    return acc


_edge_polys = st.lists(edge_coeffs, max_size=4).map(lambda cs: Poly(tuple(cs)))


@settings(max_examples=300, deadline=None)
@given(p=_edge_polys, q=_edge_polys, c=edge_coeffs,
       pairs=st.lists(st.tuples(edge_coeffs, st.integers(1, 3)), max_size=3),
       lead=edge_coeffs)
# a product past the double range, and signed zeros in every slot
@example(p=Poly((1e308, -0.0)), q=Poly((1e308j,)), c=1.5e308 + 0j,
         pairs=[(1e308 + 0j, 2)], lead=1e308 + 0j)
@example(p=Poly((complex(-0.0, 0.0), 1.0)), q=Poly((complex(0.0, -0.0), -1.0)),
         c=complex(-0.0, -0.0), pairs=[(complex(0.0, -0.0), 3)],
         lead=complex(2.0, -0.0))
def test_results_are_built_by_the_constructor(p, q, c, pairs, lead):
    # +, -, negation, *, scale, derivative and expand are Poly on the tuple
    # their kernel forms: the same bits, or the same ValueError past the
    # double range, as the constructor that skipped the conversion
    cases = [
        (lambda: p + q, lambda: _add(p.coeffs, q.coeffs)),
        (lambda: p - q, lambda: _add(p.coeffs, _neg(q.coeffs))),
        (lambda: -p, lambda: _neg(p.coeffs)),
        (lambda: p * q, lambda: _mul(p.coeffs, q.coeffs)),
        (lambda: p.scale(c), lambda: _scale(p.coeffs, c)),
        (p.derivative, lambda: tuple(k * a for k, a in enumerate(p.coeffs))[1:]),
    ]
    try:
        fact = Factorization(tuple(pairs), lead)
    except ValueError:
        pass
    else:
        cases.append((fact.expand, lambda: _expanded(fact)))
    for result, kernel in cases:
        got = outcome(result)
        assert got == outcome(lambda: Poly(kernel()))
        assert got == outcome(lambda: poly_trusted_reference(kernel()))


def test_sub_and_neg():
    p = Poly([3, 2, 1])
    assert (p - p).is_zero
    assert (-p).coeffs == (-3 + 0j, -2 + 0j, -1 + 0j)


def test_trailing_zeros_stripped():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p.degree == 1


def test_zero_poly():
    z = Poly([0, 0])
    assert z.is_zero
    assert z.coeffs == ()
    assert z.lowest_power is None
    assert z.degree == -1
    assert z(5.0) == 0j


def test_lowest_power():
    assert Poly([0, 0, 7]).lowest_power == 2
    assert Poly([1]).lowest_power == 0


def test_monomial():
    m = monomial(3, 2.0)
    assert m.coeffs == (0j, 0j, 0j, 2 + 0j)


def test_derivative():
    p = Poly([0, 0, 0, 1])  # x^3
    assert p.derivative().coeffs == (0j, 0j, 3 + 0j)
    assert Poly([5]).derivative().is_zero


def test_scale():
    assert Poly([1, 2]).scale(2j).coeffs == (2j, 4j)
    assert Poly([1, 2]).scale(0).is_zero


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        Poly([1, float("inf")])
    # arithmetic that overflows raises the same error as the constructor
    big = Poly([1e308, 1e308])
    overflows = [lambda: big + big, lambda: big * big,
                 lambda: big.scale(10.0), lambda: Poly([0, 0, 1e308]).derivative()]
    for make in overflows:
        with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
            make()


@given(p=polys, q=polys, x=complex_coeffs)
def test_eval_is_ring_morphism(p, q, x):
    scale = 1 + abs(p(x)) + abs(q(x))
    assert abs((p + q)(x) - (p(x) + q(x))) <= 1e-9 * scale
    assert abs((p * q)(x) - p(x) * q(x)) <= 1e-6 * (1 + abs(p(x)) * abs(q(x)))


@given(p=polys, q=polys)
def test_mul_degree(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree <= p.degree + q.degree


# ---------------------------------------------------------- factorization

def test_factorization_expand():
    # (r-1)^2 (r+2) = r^3 - 3r + 2
    f = Factorization(((1 + 0j, 2), (-2 + 0j, 1)))
    assert f.degree == 3
    assert f.expand().coeffs == (2 + 0j, -3 + 0j, 0j, 1 + 0j)


def test_factorization_rejects_duplicates():
    with pytest.raises(ValueError):
        Factorization(((1 + 0j, 1), (1 + 0j, 2)))


def test_from_pairs_rejects_near_duplicates():
    with pytest.raises(ValueError):
        Factorization.from_pairs([(0j, 1), (1e-9 + 0j, 1)])


def test_from_pairs_accepts_separated_roots():
    f = Factorization.from_pairs([(1j, 1), (0j, 2), (-1j, 1)], 2.0)
    assert f == Factorization(((-1j, 1), (0j, 2), (1j, 1)), 2.0)
    assert repr(f) == ("Factorization(pairs=(((-0-1j), 1), (0j, 2), "
                       "(1j, 1)), leading=(2+0j))")


def test_separation_check_does_not_overflow():
    # |1.5e308 - 1.5e308i| leaves the double range; the parts tell the two
    # roots apart without it
    f = Factorization.from_pairs([(1.5e308 + 0j, 1), (1.5e308j, 1)])
    assert f.degree == 2
    with pytest.raises(ValueError, match="clustering tolerance"):
        Factorization.from_pairs([(1.5e308 + 0j, 1), (1.5e308 + 1e-9j, 1)])


def test_coefficients_match_tolerances():
    p = Poly([1, 1])
    assert coefficients_match(p, Poly([1 + 1e-10, 1]))
    assert not coefficients_match(p, Poly([1.01, 1]))
    # absolute floor handles near-zero coefficients
    assert coefficients_match(Poly([0, 1]), Poly([1e-11, 1]))


# ----------------------------------------------------------- root finding

def test_linear_fast_path():
    fac = find_roots(Poly([-(2 + 3j), 1]))
    assert fac.pairs == (((2 + 3j), 1),)


def test_exact_triple_root():
    fac = find_roots(Poly([-1, 3, -3, 1]))  # (r-1)^3
    assert fac.pairs == ((1 + 0j, 3),)


def test_perturbed_triple_root_reclusters():
    # coefficient noise of 1e-12 scatters a triple root by ~1e-4; the
    # finder must still report one root of multiplicity 3
    p = Poly([-1 + 1e-12, 3 + 1e-12, -3 + 1e-12, 1 + 1e-12])
    fac = find_roots(p)
    assert len(fac.pairs) == 1
    root, mult = fac.pairs[0]
    assert mult == 3
    assert abs(root - 1) < 1e-3
    assert coefficients_match(fac.expand(), p)


def test_mixed_multiplicities():
    fac = find_roots(Poly([2, -3, 0, 1]))  # (r-1)^2 (r+2)
    assert fac.pairs == ((-2 + 0j, 1), (1 + 0j, 2))


def test_conjugate_pair_is_exact():
    fac = find_roots(Poly([1, 0, 1]))  # r^2 + 1
    assert fac.pairs == ((-1j, 1), (1j, 1))


def test_real_quartic_conjugate_closure():
    # (r^2+1)(r^2+4) has two exact conjugate pairs
    p = Poly([4, 0, 5, 0, 1])
    fac = find_roots(p)
    roots = {r for r, _ in fac.pairs}
    assert roots == {1j, -1j, 2j, -2j}


def test_multiplicity_conservation():
    f = Factorization(((1 + 1j, 2), (-2 + 0j, 1), (1j, 1)))
    fac = find_roots(f.expand())
    assert sum(m for _, m in fac.pairs) == 4
    assert sorted(m for _, m in fac.pairs) == [1, 1, 2]


def test_start_points_follow_the_newton_polygon():
    # one start circle per group of roots of like modulus, not one circle
    # of radius 1 + max|a_k| for all of them
    from expode.cpoly import _start_points
    p = Factorization(((1e-3, 1), (1.0, 1), (1e3, 1))).expand()
    radii = sorted(abs(z) for z in _start_points(p.coeffs))
    for r, want in zip(radii, (1e-3, 1.0, 1e3)):
        assert want / 2 <= r <= want * 2


@pytest.mark.parametrize("roots", [
    [10.0 ** k for k in range(-4, 5)],
    [float(j) for j in range(1, 13)],
    [2.0 ** k for k in range(-10, 11)],
], ids=["powers-of-ten", "one-to-twelve", "powers-of-two"])
def test_wide_root_spreads_certify(roots):
    p = Factorization(tuple((r, 1) for r in roots)).expand()
    fac = find_roots(p)
    assert [m for _, m in fac.pairs] == [1] * len(roots)
    got = sorted((r for r, _ in fac.pairs), key=lambda r: r.real)
    for g, want in zip(got, sorted(roots)):
        assert abs(g - want) <= 1e-8 * want
    assert coefficients_match(fac.expand(), p)


def _aberth_outcome(aberth, p: Poly) -> str:
    """The repr of what the sweep returns for p, made monic as find_roots
    makes it, or of the exception it raises."""
    monic = tuple(c / p.coeffs[-1] for c in p.coeffs)
    try:
        return repr(aberth(monic, Poly(monic).derivative()))
    except (NonConvergence, OverflowError, ValueError) as exc:
        return repr(exc)


@settings(max_examples=80, deadline=None)
@given(fac=factored_ops(max_roots=8, max_order=12))
def test_aberth_matches_reference_bits(fac):
    # sweeping only the live roots drops evaluations, not bits
    p = fac.char_poly()
    assert _aberth_outcome(_aberth, p) == _aberth_outcome(aberth_reference, p)


def _flat_start_poly() -> Poly:
    """z^4 + a3 z^3 + a2 z^2 + a1 z + 1 with P'(z0) == 0 exactly at the first
    start point z0: the start circle comes from the hull vertices 1 and z^4
    alone, |a_k| < 1 keeps a1..a3 under it, and a1 cancels the rest of P'."""
    z0 = _start_points((1 + 0j, 0j, 0j, 0j, 1 + 0j))[0]
    head = (1 + 0j, 0j, -0.6 * z0 * z0, -0.9 * z0, 1 + 0j)
    dp = 0j
    for c in Poly(head).derivative().coeffs[:0:-1]:
        dp = dp * z0 + c
    p = Poly((1, -(dp * z0)) + head[2:])
    assert _start_points(p.coeffs)[0] == z0
    assert p.derivative()(z0) == 0
    return p


@pytest.mark.parametrize("p", [
    Poly((-1,) + (0,) * 28 + (1,)),
    Factorization(tuple((float(j), 1) for j in range(1, 14))).expand(),
    Factorization(((1.5, 6), (-2.0, 1))).expand(),
    _flat_start_poly(),
], ids=["y29-minus-y", "roots-1-to-13", "mult-6-and-1", "flat-start"])
def test_aberth_matches_reference_bits_at_the_edges(p):
    assert _aberth_outcome(_aberth, p) == _aberth_outcome(aberth_reference, p)


@pytest.mark.parametrize("starts", [
    lambda n: [0.5 + 0.25j] * n,
    lambda n: [0.3 + 0.1j, 0.3 + 0.1j] + [complex(0.0, k) for k in range(n - 2)],
], ids=["all-coincide", "two-coincide"])
def test_aberth_matches_reference_bits_from_coincident_starts(
        monkeypatch, starts):
    # z - zj == 0 on the first sweep: the sum restarts with the difference
    # nudged off zero, as the reference nudges it in its one loop
    p = Factorization(((1.0, 1), (2.0, 1), (-1.0, 1), (1j, 1), (-1j, 1))).expand()
    for module in (cpoly, strategies):
        monkeypatch.setattr(module, "_start_points",
                            lambda monic: starts(len(monic) - 1))
    assert _aberth_outcome(_aberth, p) == _aberth_outcome(aberth_reference, p)


def _outcome(f, *args) -> str:
    """The repr of f(*args), or of the exception it raises."""
    try:
        return repr(f(*args))
    except (OverflowError, ValueError) as exc:
        return repr(exc)


# every double, overflowing ones included, and the zeros of either sign
_wide = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e308, -1e308)))
_wide_complex = st.builds(complex, _wide, _wide)


@st.composite
def _refine_inputs(draw):
    """(monic, centroid, mult, cut): a centroid near a root of a product,
    with that root's multiplicity, or any monic input and centroid,
    overflowing ones included."""
    cut = draw(st.sampled_from((1e-6, 1e-5, 1e-3, 1e-2)))
    if draw(st.booleans()):
        fac = draw(factored_ops(max_roots=4, max_order=8))
        r, mult = draw(st.sampled_from(fac.factors))
        return fac.char_poly().coeffs, r + cut * draw(complex_coeffs), mult, cut
    lead = draw(_wide_complex | complex_coeffs)
    coeffs = draw(st.lists(_wide_complex | complex_coeffs, min_size=2,
                           max_size=9))
    try:
        monic = Poly(tuple(c / lead for c in coeffs + [lead])).coeffs
    except (ValueError, ZeroDivisionError):
        assume(False)
    mult = draw(st.integers(1, len(monic) - 1))
    return monic, draw(_wide_complex | complex_coeffs), mult, cut


@settings(max_examples=150, deadline=None)
@given(inputs=_refine_inputs())
@example(inputs=((1 + 0j, 1 + 0j, 1e308 + 0j, 1 + 0j), 0.5 + 0j, 1, 1e-6))
@example(inputs=((-1 + 0j, 0j, 1 + 0j), 0j, 1, 1e-6))
def test_refined_matches_reference_bits(inputs):
    # q and q' in one pass: the same Newton iterates, the same overflow (in
    # the first example, P' = q' has the coefficient 2e308; in the second,
    # P' = 2r vanishes at the start, which ends the iteration at once)
    monic, centroid, mult, cut = inputs
    ours, theirs = [Poly(monic)], [Poly(monic)]
    got = _outcome(_refined, ours, centroid, mult, cut)
    assert got == _outcome(refined_reference, theirs, centroid, mult, cut)
    assert ours == theirs


_roots = st.one_of(st.sampled_from(OP_GRID), complex_coeffs, _wide_complex)


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(_roots, st.integers(1, 4)), max_size=6,
                      unique_by=lambda rm: rm[0]),
       lead=st.sampled_from((1.0, -0.5j, 1e300, 1.7e308)) | _wide_complex)
@example(pairs=[(1e200 + 0j, 2)], lead=1.0 + 0j)
@example(pairs=[(2 + 0j, 1)], lead=1.7e308 + 0j)
@example(pairs=[(complex(-0.0, 0.0), 1), (complex(1.0, -0.0), 2)],
         lead=complex(-0.0, 1.0))
# every slot below the top a signed zero
@example(pairs=[(complex(0.0, -0.0), 3)], lead=1.0 + 0j)
# 0j*(-r) brings a negative zero into the top slot
@example(pairs=[(complex(1.0, 1.0), 2)], lead=complex(2.0, -0.0))
def test_expand_matches_reference_bits(pairs, lead):
    # the product on tuples forms every slot as Poly's _mul does, signed
    # zeros included, and raises the same ValueError past the double range
    try:
        fact = Factorization(tuple(pairs), lead)
    except ValueError:
        return
    assert _outcome(fact.expand) == _outcome(expand_reference, fact)


def test_order_28_roots_of_unity_certify():
    # y^(28) - y: well-conditioned roots that must keep certifying
    fac = find_roots(Poly((-1,) + (0,) * 27 + (1,)))
    assert len(fac.pairs) == 28
    for r, m in fac.pairs:
        assert m == 1
        assert abs(r ** 28 - 1) <= 1e-12


def test_rejects_constant_poly():
    with pytest.raises(ValueError):
        find_roots(Poly([3]))
    with pytest.raises(ValueError):
        find_roots(Poly([0]))


def test_nonconvergence_when_tolerance_too_coarse(monkeypatch):
    # a cut of 10 merges the well-separated roots of r^3 - r into one
    # cluster, which cannot reproduce the coefficients
    monkeypatch.setattr(cpoly, "_CUTS", (10.0,))
    with pytest.raises(NonConvergence):
        find_roots(Poly([0, -1, 0, 1]))


def test_candidate_with_coinciding_roots_is_skipped(monkeypatch):
    # refining both roots of r^2 - 3r + 2 to 1.5 makes every candidate
    # repeat a root; each is skipped, so no grouping certifies
    monkeypatch.setattr(cpoly, "_refined", lambda *args: 1.5 + 0j)
    with pytest.raises(NonConvergence) as exc:
        find_roots(Poly((2, -3, 1)))
    assert str(exc.value) == (
        "no root clustering reproduces the input coefficients")


def test_cluster_cuts_are_fixed():
    # DEFAULT_CLUSTER_TOL and four steps of * 10.0, each product rounded
    assert list(cpoly._CUTS) == [1e-06, 9.999999999999999e-06,
                                 9.999999999999999e-05, 0.001, 0.01]


def test_sweep_cap_ends_in_nonconvergence(monkeypatch):
    # (r - 1)^2 (r + 2) takes more than one sweep; at the cap the library
    # raises, and the command line exits 3
    monkeypatch.setattr(cpoly, "_MAX_SWEEPS", 1)
    with pytest.raises(NonConvergence) as exc:
        find_roots(Poly([2, -3, 0, 1]))
    assert str(exc.value) == (
        "root iteration missed its residual target within 1 sweeps")
    assert main(["solve", "y''' - 3y' + 2y = 0"]) == 3


@st.composite
def grid_factorizations(draw, max_degree=8):
    k = draw(st.integers(1, 3))
    roots = draw(st.permutations(OP_GRID))[:k]
    pairs = []
    budget = max_degree
    for r in roots:
        m = draw(st.integers(1, min(3, budget)))
        pairs.append((r, m))
        budget -= m
        if budget == 0:
            break
    return Factorization(tuple(pairs))


@settings(max_examples=60, deadline=None)
@given(f=grid_factorizations())
def test_grid_factorization_recovery(f):
    p = f.expand()
    fac = find_roots(p)
    assert sorted(m for _, m in fac.pairs) == sorted(m for _, m in f.pairs)
    # pair reported roots with true ones by proximity, never by sort order:
    # dust in the real part can flip (re, im) ordering between the two lists
    pool = list(fac.pairs)
    for r, m in f.pairs:
        hit = next((i for i, (s, mm) in enumerate(pool)
                    if mm == m and abs(s - r) <= 1e-6), None)
        assert hit is not None, (r, m, pool)
        pool.pop(hit)
    assert not pool
    assert coefficients_match(fac.expand(), p)
    # evaluation residual stays small at every reported root
    bound = 1e-6 * (1 + p.max_abs())
    assert all(abs(p(r)) <= bound for r, _ in fac.pairs)


@st.composite
def real_polys(draw, max_degree=6):
    deg = draw(st.integers(1, max_degree))
    coeffs = draw(st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=deg + 1, max_size=deg + 1))
    lead = coeffs[-1]
    coeffs[-1] = lead + (1.0 if lead >= 0 else -1.0)
    return Poly(tuple(complex(c) for c in coeffs))


@settings(max_examples=60, deadline=None)
@given(p=real_polys())
# snapping the triple root's real part -8.3e-11 to 0 fails to certify; the
# set left unsnapped certified with -1.9999999997508962+1.75e-46i unpaired
@example(p=Poly((0, 0, 4.982075351826279e-10, 2, 1)))
def test_real_coefficients_give_conjugate_closed_roots(p):
    fac = find_roots(p)
    pool = list(fac.pairs)
    while pool:
        r, m = pool.pop()
        if abs(r.imag) == 0:
            continue
        match = next((i for i, (s, mm) in enumerate(pool)
                      if mm == m and abs(s - r.conjugate()) <= 1e-6), None)
        assert match is not None, (r, fac.pairs)
        pool.pop(match)


@settings(max_examples=60, deadline=None)
@given(p=real_polys())
def test_find_roots_always_reconstructs(p):
    fac = find_roots(p)
    assert sum(m for _, m in fac.pairs) == p.degree
    assert coefficients_match(fac.expand(), p)


def test_horner_matches_cmath_on_exponential_series():
    # sanity anchor for evaluation: truncated exp series at x=0.5
    import math
    coeffs = [1 / math.factorial(k) for k in range(12)]
    p = Poly(coeffs)
    assert abs(p(0.5) - cmath.exp(0.5)) < 1e-9


# find_roots on four inputs, pinned bit for bit: (real part, imaginary part,
# multiplicity) of every pair in float.hex, as the Aberth sweep and the
# cluster refinement produce them
FIND_ROOTS_PINS = {
    "prod_1_12": (
        ("0x1.000000000000ap+0", "0x0.0p+0", 1),
        ("0x1.ffffffffffa1dp+0", "0x0.0p+0", 1),
        ("0x1.800000000120cp+1", "0x0.0p+0", 1),
        ("0x1.0000000000fccp+2", "0x0.0p+0", 1),
        ("0x1.3ffffffffaa8ap+2", "0x0.0p+0", 1),
        ("0x1.7fffffff64fd6p+2", "0x0.0p+0", 1),
        ("0x1.c0000000f5069p+2", "0x0.0p+0", 1),
        ("0x1.fffffffde2ed8p+2", "0x0.0p+0", 1),
        ("0x1.20000002fb113p+3", "0x0.0p+0", 1),
        ("0x1.3fffffffec964p+3", "0x0.0p+0", 1),
        ("0x1.60000002d7625p+3", "0x0.0p+0", 1),
        ("0x1.800000001ff9cp+3", "0x0.0p+0", 1),
    ),
    "r20_minus_1": (
        ("-0x1.0000000000000p+0", "0x0.0p+0", 1),
        ("-0x1.e6f0e134454ffp-1", "-0x1.3c6ef372fe950p-2", 1),
        ("-0x1.e6f0e134454ffp-1", "0x1.3c6ef372fe950p-2", 1),
        ("-0x1.9e3779b97f4a8p-1", "-0x1.2cf2304755a5ep-1", 1),
        ("-0x1.9e3779b97f4a8p-1", "0x1.2cf2304755a5ep-1", 1),
        ("-0x1.2cf2304755a5ep-1", "-0x1.9e3779b97f4a8p-1", 1),
        ("-0x1.2cf2304755a5ep-1", "0x1.9e3779b97f4a8p-1", 1),
        ("-0x1.3c6ef372fe94fp-2", "-0x1.e6f0e134454ffp-1", 1),
        ("-0x1.3c6ef372fe94fp-2", "0x1.e6f0e134454ffp-1", 1),
        ("0x0.0p+0", "-0x1.0000000000000p+0", 1),
        ("0x0.0p+0", "0x1.0000000000000p+0", 1),
        ("0x1.3c6ef372fe950p-2", "-0x1.e6f0e134454ffp-1", 1),
        ("0x1.3c6ef372fe950p-2", "0x1.e6f0e134454ffp-1", 1),
        ("0x1.2cf2304755a5ep-1", "-0x1.9e3779b97f4a8p-1", 1),
        ("0x1.2cf2304755a5ep-1", "0x1.9e3779b97f4a8p-1", 1),
        ("0x1.9e3779b97f4a8p-1", "-0x1.2cf2304755a5ep-1", 1),
        ("0x1.9e3779b97f4a8p-1", "0x1.2cf2304755a5ep-1", 1),
        ("0x1.e6f0e134454ffp-1", "-0x1.3c6ef372fe950p-2", 1),
        ("0x1.e6f0e134454ffp-1", "0x1.3c6ef372fe950p-2", 1),
        ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ),
    "mult_3_2": (
        ("-0x1.0000000000000p+1", "0x0.0p+0", 2),
        ("0x1.8000000000000p+0", "0x0.0p+0", 3),
    ),
    "complex_013": (
        ("-0x1.8000000000000p-1", "-0x1.8000000000000p-1", 2),
        ("0x1.fffffffffffffp-3", "0x1.fffffffffffffp-2", 1),
        ("0x1.0000000000000p-2", "0x1.0000000000000p+0", 1),
        ("0x1.0000000000001p-2", "-0x1.6ca34e78d79c4p-56", 2),
        ("0x1.8000000000000p-1", "-0x1.fffffffffffffp-2", 1),
        ("0x1.0000000000000p+0", "0x1.0000000000000p-2", 1),
    ),
}

_OP_013 = ("y^(8) + (-1.25+0.25i)*y^(7) + (0.625-1.6875i)*y^(6) "
           "+ (-0.28125+2.71875i)*y^(5) + (-0.53515625-1.9296875i)*y^(4) "
           "+ (1.3662109375+0.5908203125i)*y^(3) "
           "+ (-1.0947265625-0.370849609375i)*y'' "
           "+ (0.328125+0.151611328125i)*y' "
           "+ (-0.032684326171875-0.0186767578125i)*y = 0")


def _pinned_input(name):
    if name == "prod_1_12":  # prod (r - j), j = 1..12
        return Factorization(tuple((complex(j), 1) for j in range(1, 13))).expand()
    if name == "r20_minus_1":
        return Poly((-1,) + (0,) * 19 + (1,))
    if name == "mult_3_2":  # (r - 1.5)^3 (r + 2)^2
        return Factorization(((1.5, 3), (-2.0, 2))).expand()
    return compile_equation(_OP_013)[0].char_poly()  # high_order seed 1, op 13


@pytest.mark.parametrize("name", sorted(FIND_ROOTS_PINS))
def test_find_roots_bits_are_pinned(name):
    fact = find_roots(_pinned_input(name))
    got = tuple((r.real.hex(), r.imag.hex(), m) for r, m in fact.pairs)
    assert got == FIND_ROOTS_PINS[name]


@pytest.mark.parametrize("coeffs", [
    (1e-308, 1e-308, 1e308, 1.0),                # P' has 2 * 1e308
    (1.7e308 + 1.7e308j, 1e-308, 1.0),           # |a_0| in the start points
    (1.7e308 + 1.7e308j, 1.0),                   # |root| in the refinement
])
def test_overflow_inside_root_finding_is_nonconvergence(coeffs):
    with pytest.raises(NonConvergence, match="root finding overflows"):
        find_roots(Poly(coeffs))
