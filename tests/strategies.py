"""Shared generators and closeness helpers for the test suite.

Two flavors: hypothesis strategies for property tests, and plain
random.Random builders for the counted acceptance sweeps.
"""

import cmath
import math
import random

from hypothesis import strategies as st

from expode import (EXP_MERGE_TOL, ExpPoly, FactoredOp, HomogeneousSolution,
                    NotConjugateClosed, Poly, TrigForm, coeff_distance,
                    monomial)
from expode.exppoly import COEFF_CLEAN_REL, _conjugate_poly, _real_poly
from expode.parsing import _coeff_body, _fmt_real, _imag_body

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


def symmetrized_reference(pairs, cut, snap_real):
    """cpoly._symmetrized as its own partner search wrote it: each non-real
    root takes the nearest later unused root of equal multiplicity (the
    first on a tie) and keeps it when within max(cut, 1e-9) * (1 + |z|)."""
    snapped = []
    for z, m in pairs:
        re, im = z.real, z.imag
        s = 1.0 + abs(z)
        if abs(im) <= 1e-10 * s:
            im = 0.0
        if snap_real and abs(re) <= 1e-10 * s:
            re = 0.0
        snapped.append((complex(re, im), m))
    out = []
    used = [False] * len(snapped)
    for i, (z, m) in enumerate(snapped):
        if used[i]:
            continue
        used[i] = True
        if z.imag == 0.0:
            out.append((z, m))
            continue
        best, best_d = None, math.inf
        for j in range(i + 1, len(snapped)):
            if used[j] or snapped[j][1] != m:
                continue
            d = abs(snapped[j][0].conjugate() - z)
            if d < best_d:
                best, best_d = j, d
        if best is not None and best_d <= max(cut, 1e-9) * (1.0 + abs(z)):
            used[best] = True
            w = 0.5 * (z + snapped[best][0].conjugate())
            out.append((w, m))
            out.append((w.conjugate(), m))
        else:
            out.append((z, m))
    return out


def realify_reference(f):
    """exppoly.realify as its own partner search wrote it: each upper
    exponent, in order, takes the nearest unused lower one within
    EXP_MERGE_TOL (the first on a tie)."""
    tol = EXP_MERGE_TOL
    scale = 1.0 + f.max_coeff()
    real_terms = []
    upper = []
    lower = []
    for lam, p in f.terms:
        if abs(lam.imag) <= tol:
            bad = max((abs(c.imag) for c in p.coeffs), default=0.0)
            if bad > tol * scale:
                raise NotConjugateClosed(
                    "coefficients at a real exponent have imaginary parts")
            real_terms.append((lam.real, _real_poly(p, lambda c: c.real)))
        elif lam.imag > 0:
            upper.append((lam, p))
        else:
            lower.append((lam, p))

    entries = []
    used = [False] * len(lower)
    for lam, p in upper:
        match, match_d = None, math.inf
        for j, (mu, _) in enumerate(lower):
            if used[j]:
                continue
            d = abs(mu.conjugate() - lam)
            if d <= tol and d < match_d:
                match, match_d = j, d
        if match is None:
            raise NotConjugateClosed(
                f"no conjugate partner for exponent {lam!r}")
        used[match] = True
        mu, q = lower[match]
        mismatch = (p - _conjugate_poly(q)).max_abs()
        if mismatch > tol * scale:
            raise NotConjugateClosed(
                f"conjugate polynomial parts differ at exponent {lam!r}")
        alpha = 0.5 * (lam.real + mu.real)
        beta = 0.5 * (lam.imag - mu.imag)
        half = (p + _conjugate_poly(q)).scale(0.5)
        floor = COEFF_CLEAN_REL * max(1.0, half.max_abs())
        cos_part = Poly(tuple(
            complex(2.0 * c.real, 0.0) if abs(2.0 * c.real) > floor else 0j
            for c in half.coeffs))
        sin_part = Poly(tuple(
            complex(-2.0 * c.imag, 0.0) if abs(2.0 * c.imag) > floor else 0j
            for c in half.coeffs))
        if cos_part.is_zero and sin_part.is_zero:
            continue
        entries.append((alpha, beta, cos_part, sin_part))
    if not all(used):
        lam = lower[used.index(False)][0]
        raise NotConjugateClosed(f"no conjugate partner for exponent {lam!r}")

    for alpha, p in real_terms:
        entries.append((alpha, 0.0, p, Poly()))
    entries.sort(key=lambda e: (e[0], e[1]))
    return TrigForm(tuple(entries))


def real_homogeneous_reference(factored):
    """solve.real_homogeneous_solution as its own partner search wrote it:
    each non-real root takes the first later unused root of equal
    multiplicity whose conjugate lies within EXP_MERGE_TOL."""
    ordered = sorted(factored.factors, key=lambda rm: (rm[0].real, rm[0].imag))
    used = [False] * len(ordered)
    basis = []
    for i, (r, m) in enumerate(ordered):
        if used[i]:
            continue
        used[i] = True
        if abs(r.imag) <= EXP_MERGE_TOL:
            for power in range(m):
                basis.append(ExpPoly.term(r, monomial(power)))
            continue
        partner = None
        for j in range(i + 1, len(ordered)):
            if used[j] or ordered[j][1] != m:
                continue
            if abs(ordered[j][0].conjugate() - r) <= EXP_MERGE_TOL:
                partner = j
                break
        if partner is None:
            raise NotConjugateClosed(
                f"root {r!r} has no conjugate partner of equal multiplicity")
        used[partner] = True
        top = r if r.imag > 0 else ordered[partner][0]
        bot = ordered[partner][0] if r.imag > 0 else r
        for power in range(m):
            plus = ExpPoly.term(top, monomial(power))
            minus = ExpPoly.term(bot, monomial(power))
            basis.append((plus + minus).scale(0.5))
            basis.append((plus - minus).scale(complex(0.0, -0.5)))
    constants = tuple(f"C{k + 1}" for k in range(len(basis)))
    return HomogeneousSolution(tuple(basis), constants)


# doubles where the renderer's branches meet: signed zeros, units, the
# integer cutoff 1e16, subnormals and the top of the range
RENDER_SPECIALS = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5,
                   9999999999999998.0, 1e16, 1e16 + 2.0, -1e16,
                   5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7e308, -1.7e308, 1e-13, 123456.789)
render_floats = st.one_of(
    st.sampled_from(RENDER_SPECIALS),
    st.floats(allow_nan=False, allow_infinity=False))
render_complex = st.builds(complex, render_floats, render_floats)


def format_constant_reference(z: complex) -> str:
    """parsing.format_constant as it was written before it went through
    _join_signed."""
    neg, body = _coeff_body(z)
    return ("-" if neg else "") + body


def exp_factor_reference(lam: complex) -> str:
    """parsing._exp_factor as it was written before it went through
    _monomial_body: one branch for each of +-1, real, imaginary and
    complex exponents."""
    if lam == 1:
        return "exp(x)"
    if lam == -1:
        return "exp(-x)"
    if lam.imag == 0.0:
        return f"exp({_fmt_real(lam.real)}*x)"
    if lam.real == 0.0:
        sign = "-" if lam.imag < 0 else ""
        return f"exp({sign}{_imag_body(abs(lam.imag))}*x)"
    _, body = _coeff_body(lam)
    return f"exp({body}*x)"


def trig_argument_reference(beta: float) -> str:
    """The argument parsing._render_trig gave cos and sin for beta > 0
    before it went through _monomial_body."""
    return "x" if beta == 1.0 else f"{_fmt_real(beta)}*x"


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
