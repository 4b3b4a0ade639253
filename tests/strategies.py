"""Shared generators and closeness helpers for the test suite.

Two flavors: hypothesis strategies for property tests, and plain
random.Random builders for the counted acceptance sweeps.
"""

import cmath
import math
import random

from hypothesis import strategies as st

from expode import EXP_MERGE_TOL, ExpPoly, FactoredOp, Poly, coeff_distance
from expode.exppoly import COEFF_CLEAN_REL

# exponent grid for function-space properties
GRID = (0j, 1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 1j, -1j, 1 + 1j, 1 - 1j)
# root grid for operator sweeps
OP_GRID = (0j, 1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 1j, -1j, 1 + 1j)

_floats = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)
complex_coeffs = st.builds(complex, _floats, _floats)

polys = st.lists(complex_coeffs, min_size=1, max_size=5).map(
    lambda cs: Poly(tuple(cs)))
nonzero_polys = polys.filter(lambda p: not p.is_zero)

exppolys = st.lists(
    st.tuples(st.sampled_from(GRID), nonzero_polys),
    min_size=1, max_size=3, unique_by=lambda t: t[0],
).map(lambda ts: ExpPoly(tuple(ts)))


@st.composite
def factored_ops(draw, grid=OP_GRID, max_roots=3, max_mult=3, max_order=6):
    k = draw(st.integers(1, max_roots))
    roots = draw(st.permutations(grid))[:k]
    pairs = []
    budget = max_order
    for r in roots:
        m = draw(st.integers(1, min(max_mult, budget)))
        pairs.append((r, m))
        budget -= m
        if budget == 0:
            break
    return FactoredOp(tuple(pairs))


def ep_close(f: ExpPoly, g: ExpPoly, tol: float) -> bool:
    scale = 1.0 + max(f.max_coeff(), g.max_coeff())
    return coeff_distance(f, g) <= tol * scale


def pointwise_value(f: ExpPoly, x: complex) -> complex:
    """f(x) point by point: each term's value, added in term order with +=."""
    total = 0j
    for lam, p in f.terms:
        total += cmath.exp(lam * x) * p(x)
    return total


def canonical_reference(raw) -> tuple:
    """ExpPoly's canonical terms as the quadratic slot search computes them:
    each entry, in (re, im) order, joins the nearest earlier slot within
    EXP_MERGE_TOL (the first such slot on a tie), every merged part is
    rebuilt with its dust zeroed, and the result is sorted again."""
    entries = []
    for lam, p in raw:
        lam = complex(lam)
        if not isinstance(p, Poly):
            p = Poly(tuple(p))
        if not p.is_zero:
            entries.append((lam, p))
    entries.sort(key=lambda t: (t[0].real, t[0].imag))
    merged = []
    for lam, p in entries:
        slot, best = None, math.inf
        for cand in merged:
            d = abs(cand[0] - lam)
            if d <= EXP_MERGE_TOL and d < best:
                slot, best = cand, d
        if slot is None:
            merged.append([lam, p])
        else:
            slot[1] = slot[1] + p
    final = []
    for lam, p in merged:
        top = p.max_abs()
        floor = COEFF_CLEAN_REL * top
        p = Poly(tuple(0j if abs(c) <= floor else c for c in p.coeffs))
        if not p.is_zero:
            final.append((lam, p))
    final.sort(key=lambda t: (t[0].real, t[0].imag))
    return tuple(final)


def random_poly(rng: random.Random, max_degree: int = 4) -> Poly:
    deg = rng.randint(0, max_degree)
    coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
              for _ in range(deg + 1)]
    coeffs[-1] += 1.0 if coeffs[-1].real >= 0 else -1.0  # keep the lead away from 0
    return Poly(tuple(coeffs))


def random_exppoly(rng: random.Random, grid=GRID, max_terms: int = 3,
                   max_degree: int = 4) -> ExpPoly:
    lams = rng.sample(list(grid), rng.randint(1, max_terms))
    return ExpPoly(tuple((lam, random_poly(rng, max_degree)) for lam in lams))


def random_factored(rng: random.Random, grid=OP_GRID, max_roots: int = 3,
                    max_mult: int = 3, max_order: int = 6) -> FactoredOp:
    while True:
        roots = rng.sample(list(grid), rng.randint(1, max_roots))
        pairs = tuple((complex(r), rng.randint(1, max_mult)) for r in roots)
        if sum(m for _, m in pairs) <= max_order:
            return FactoredOp(pairs)
