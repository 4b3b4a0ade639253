"""Conjugate pairing: one matching rule (cpoly._conjugate_pairs) behind the
root-finder's symmetrization, realify and the real homogeneous basis, each
compared with the partner search it replaced (tests/strategies.py)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expode import (ExpPoly, FactoredOp, NotConjugateClosed,
                    Poly, real_homogeneous_solution, realify)
from expode.cpoly import _conjugate_pairs, _symmetrized
from strategies import (real_homogeneous_reference, realify_reference,
                        symmetrized_reference)

# Points of the upper half plane on a grid of step 1/4, so two of them, or
# their conjugates, lie at least 1/4 apart.  A partner sits at a dyadic
# offset from a point's conjugate, inside or outside every bound used below
# (1e-9 up to 1e-2 times 1 + |z|), so each item has at most one candidate.
_upper = st.builds(lambda a, b: complex(a / 4, b / 4),
                   st.integers(-8, 8), st.integers(1, 8))
_offsets = st.sampled_from([0j, 2.0**-40, -(2.0**-40) * 1j, 2.0**-32,
                            (2.0**-32) * 1j, 2.0**-28, 2.0**-8j])
_dust = st.sampled_from([0.0, 2.0**-40, -(2.0**-40)])


def _hex(z):
    return (z.real.hex(), z.imag.hex())


def _hex_poly(p):
    return [_hex(c) for c in p.coeffs]


@st.composite
def _root_sets(draw):
    """(root, multiplicity) pairs: each grid point alone, with its partner
    (of equal or other multiplicity), or as its lone conjugate, plus real
    roots; imaginary and real dust below the snap threshold on some."""
    out = []
    points = draw(st.lists(_upper, max_size=5, unique=True))
    for z in points:
        m = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(["pair", "pair", "upper", "lower"]))
        if kind != "lower":
            out.append((z, m))
        if kind != "upper":
            m2 = m if draw(st.booleans()) else draw(st.integers(1, 3))
            out.append((z.conjugate() + draw(_offsets), m2))
    for a in draw(st.lists(st.integers(-8, 8), max_size=3, unique=True)):
        out.append((complex(a / 4 + draw(_dust), draw(_dust)),
                    draw(st.integers(1, 3))))
    return draw(st.permutations(out))


@settings(max_examples=300)
@given(pairs=_root_sets(),
       cut=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2]),
       snap=st.booleans())
def test_symmetrized_matches_its_old_search(pairs, cut, snap):
    got = _symmetrized(pairs, cut, snap)
    want = symmetrized_reference(pairs, cut, snap)
    assert [(_hex(z), m) for z, m in got] == [(_hex(z), m) for z, m in want]


@settings(max_examples=300)
@given(pairs=_root_sets())
def test_real_basis_matches_its_old_search(pairs):
    try:
        factored = FactoredOp(tuple(pairs))
    except ValueError:
        return  # empty, or dust put a real root next to a pair
    try:
        want = real_homogeneous_reference(factored)
    except NotConjugateClosed as exc:
        with pytest.raises(NotConjugateClosed) as got:
            real_homogeneous_solution(factored)
        assert str(got.value) == str(exc)
        return
    got = real_homogeneous_solution(factored)
    assert got.constants == want.constants
    assert ([[(_hex(lam), _hex_poly(p)) for lam, p in b.terms]
             for b in got.basis]
            == [[(_hex(lam), _hex_poly(p)) for lam, p in b.terms]
                for b in want.basis])


_parts = st.lists(st.builds(complex, st.integers(-4, 4), st.integers(-4, 4)),
                  min_size=1, max_size=3).map(lambda cs: Poly(tuple(cs)))


@st.composite
def _exppoly_sets(draw):
    """Conjugate-closed sums, some with a term left out, a partner's
    polynomial perturbed or an imaginary part at a real exponent."""
    terms = []
    for z in draw(st.lists(_upper, max_size=4, unique=True)):
        p = draw(_parts)
        kind = draw(st.sampled_from(["pair", "pair", "upper", "lower"]))
        if kind != "lower":
            terms.append((z, p))
        if kind != "upper":
            q = Poly(tuple(c.conjugate() for c in p.coeffs))
            if draw(st.integers(0, 4)) == 0:
                q = q + Poly((2.0**-20,))
            terms.append((z.conjugate() + draw(_offsets), q))
    for a in draw(st.lists(st.integers(-8, 8), max_size=2, unique=True)):
        terms.append((complex(a / 4, 0.0),
                      Poly((draw(st.sampled_from([1, 2, 1 + 1j])),))))
    return ExpPoly(tuple(terms))


@settings(max_examples=300)
@given(f=_exppoly_sets())
def test_realify_matches_its_old_search(f):
    try:
        want = realify_reference(f)
    except NotConjugateClosed as exc:
        with pytest.raises(NotConjugateClosed) as got:
            realify(f)
        assert str(got.value) == str(exc)
        return
    got = realify(f)
    assert ([(e[0].hex(), e[1].hex(), _hex_poly(e[2]), _hex_poly(e[3]))
             for e in got.entries]
            == [(e[0].hex(), e[1].hex(), _hex_poly(e[2]), _hex_poly(e[3]))
                for e in want.entries])


# ------------------------------------------------ the rule's own choices

def test_matcher_takes_the_nearest_then_the_earliest():
    t = 2.0**-33  # exact offsets, so items 2 and 3 tie for item 0
    zs = [1 + 1j, 1 - 1j + 3 * t, 1 - 1j + t, 1 - 1j + t * 1j, 2j]
    bounds = [1e-9] * 5
    assert _conjugate_pairs(zs, [1] * 5, bounds) == \
        [(0, 2), (1, None), (3, None), (4, None)]
    assert _conjugate_pairs(zs, [1, 1, 2, 1, 1], bounds) == \
        [(0, 3), (1, None), (2, None), (4, None)]
    # an item whose bound is None takes no partner but can be taken
    assert _conjugate_pairs(zs, [1] * 5, [None] + bounds[1:]) == \
        [(0, None), (1, None), (2, None), (3, None), (4, None)]
    assert _conjugate_pairs(zs[:2], [1, 1], [1e-9, None]) == [(0, 1)]


# Root 1-1i has two candidates whose conjugates lie within EXP_MERGE_TOL of
# it, 1.03e-9 apart: c_far (first in (re, im) order, 0.9e-9 off) and c_near
# (0.5e-9 off).  q pairs only with c_far.  The search that took the first
# candidate paired 1-1i with c_far and found no partner for q.
_R = 1 - 1j
_C_FAR = complex(1.0, 1.0 + 0.9e-9)
_C_NEAR = complex(1.0 + 0.5e-9, 1.0)
_Q = complex(1.0 + 0.3e-9, -1.0 - 1.5e-9)


def test_real_basis_pairs_the_nearest_candidate_in_the_ambiguous_band():
    factored = FactoredOp(((_R, 1), (_C_FAR, 1), (_Q, 1), (_C_NEAR, 1)))
    basis = real_homogeneous_solution(factored).basis
    assert [[lam for lam, _ in b.terms] for b in basis] == \
        [[_R, _C_NEAR]] * 2 + [[_C_FAR, _Q]] * 2
    with pytest.raises(NotConjugateClosed, match=r"root \(1\.0000000003-"):
        real_homogeneous_reference(factored)


def test_real_basis_leaves_the_farther_candidate_alone():
    factored = FactoredOp(((_R, 1), (_C_FAR, 1), (_C_NEAR, 1)))
    with pytest.raises(NotConjugateClosed) as exc:
        real_homogeneous_solution(factored)
    assert str(exc.value) == (f"root {_C_FAR!r} has no conjugate partner "
                              "of equal multiplicity")


def test_realify_pairs_the_nearest_lower_exponent():
    # exponents closer than EXP_MERGE_TOL would merge; the two lower
    # candidates are 1.03e-9 apart
    one = Poly((1,))
    f = ExpPoly(((_R.conjugate(), one), (_C_FAR.conjugate(), one),
                 (_C_NEAR.conjugate(), one)))
    with pytest.raises(NotConjugateClosed) as exc:
        realify(f)
    assert str(exc.value) == \
        f"no conjugate partner for exponent {_C_FAR.conjugate()!r}"


# --------------------------------------- which root or exponent is named

@pytest.mark.parametrize("terms, text", [
    # a lone upper exponent is named even when a lone lower one sorts first
    (((1 - 2j, 1), (2 + 3j, 1)), "no conjugate partner for exponent (2+3j)"),
    (((1 + 2j, 1), (1 - 2j, 1), (-1 - 1j, 1)),
     "no conjugate partner for exponent (-1-1j)"),
    (((1 + 2j, 1), (1 - 2j, 2)),
     "conjugate polynomial parts differ at exponent (1+2j)"),
    (((3 + 1j, 1), (3 - 1j, 2), (1 - 2j, 1)),
     "conjugate polynomial parts differ at exponent (3+1j)"),
])
def test_realify_names_the_exponent(terms, text):
    f = ExpPoly(tuple((lam, Poly((c,))) for lam, c in terms))
    with pytest.raises(NotConjugateClosed) as exc:
        realify(f)
    assert str(exc.value) == text


@pytest.mark.parametrize("factors, root", [
    (((2 + 3j, 1),), "(2+3j)"),
    (((2 - 3j, 1), (1, 1)), "(2-3j)"),
    # the first unmatched root in (re, im) order, upper or lower
    (((2 + 3j, 1), (1 - 2j, 1)), "(1-2j)"),
    (((1 + 2j, 2), (1 - 2j, 1)), "(1-2j)"),
    (((1 + 2j, 1), (1 - 2j, 2), (0, 1)), "(1-2j)"),
])
def test_real_basis_names_the_root(factors, root):
    with pytest.raises(NotConjugateClosed) as exc:
        real_homogeneous_solution(FactoredOp(factors))
    assert str(exc.value) == \
        f"root {root} has no conjugate partner of equal multiplicity"
