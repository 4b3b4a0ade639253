"""Shared generators and closeness helpers for the test suite.

Two flavors: hypothesis strategies for property tests, and plain
random.Random builders for the counted acceptance sweeps.
"""

import cmath
import math
import random

from hypothesis import strategies as st

from expode import (EXP_MERGE_TOL, ExpPoly, FactoredOp, HomogeneousSolution,
                    LinOp, NonConvergence, NotConjugateClosed, Poly, TrigForm,
                    VerifyReport, coeff_distance, monomial)
from expode.cpoly import (_EPS, _MAX_SWEEPS, Factorization, _conjugate_pairs,
                          _near, _start_points)
from expode.exppoly import COEFF_CLEAN_REL, _conjugate_poly, _kept, _real_poly
from expode.parsing import (_MAX_POWER, Bin, Call, Expr, Neg, Num,
                            ParseError, UnknownOnRhs, UnsupportedForm, VarX,
                            YTerm, _additive_terms, _affine, _coeff_body,
                            _cpow, _fmt_real, _fold_const, _imag_body,
                            _Parser, _sourced, lower_rhs, parse_exppoly)

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


def homogeneous_reference(factored):
    """solve.homogeneous_solution as it was written before FactoredOp kept
    its sorted pairs: the roots in a throwaway Factorization's order."""
    basis: list[ExpPoly] = []
    for r, m in Factorization(factored.factors).pairs:
        for power in range(m):
            basis.append(ExpPoly.term(r, monomial(power)))
    constants = tuple(f"C{k + 1}" for k in range(len(basis)))
    return HomogeneousSolution(tuple(basis), constants)


def real_homogeneous_walk_reference(factored):
    """solve.real_homogeneous_solution as it was written before FactoredOp
    kept its sorted pairs: one _conjugate_pairs walk over the roots in a
    throwaway Factorization's order."""
    ordered = Factorization(factored.factors).pairs
    rs = [r for r, _ in ordered]
    bounds = [None if abs(r.imag) <= EXP_MERGE_TOL else EXP_MERGE_TOL
              for r in rs]
    basis: list[ExpPoly] = []
    for i, j in _conjugate_pairs(rs, [m for _, m in ordered], bounds):
        r, m = ordered[i]
        if bounds[i] is None:
            for power in range(m):
                basis.append(ExpPoly.term(r, monomial(power)))
            continue
        if j is None:
            raise NotConjugateClosed(
                f"root {r!r} has no conjugate partner of equal multiplicity")
        top, bot = (r, rs[j]) if r.imag > 0 else (rs[j], r)
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


# exponents where the first-order inverse's branches meet: signed zeros, a
# tiny exponent, and both sides of EXP_MERGE_TOL
KERNEL_SPECIALS = (0.0, -0.0, 1e-300, -1e-300, 5e-10, -5e-10, 1e-9, -1e-9,
                   2e-9, -2e-9, 1.0, -2.0)
_kernel_parts = st.one_of(st.sampled_from(KERNEL_SPECIALS), _floats)
kernel_exponents = st.builds(complex, _kernel_parts, _kernel_parts)
kernel_exppolys = st.lists(
    st.tuples(kernel_exponents, nonzero_polys), min_size=1, max_size=3,
).map(lambda ts: ExpPoly(tuple(ts)))


@st.composite
def kernel_factored_ops(draw, max_roots=3, max_mult=3):
    """FactoredOps whose roots come from kernel_exponents; a drawn root within
    EXP_MERGE_TOL of an earlier one is left out, as FactoredOp demands."""
    pairs = []
    for r in draw(st.lists(kernel_exponents, min_size=1, max_size=max_roots)):
        if all(abs(r - s) > EXP_MERGE_TOL for s, _ in pairs):
            pairs.append((r, draw(st.integers(1, max_mult))))
    return FactoredOp(tuple(pairs))


def antiderivative_reference(f: ExpPoly) -> ExpPoly:
    """ExpPoly.antiderivative as it was written before it went through
    ExpPoly._inverse: plain integration within EXP_MERGE_TOL of zero, the
    integration-by-parts recurrence elsewhere."""
    out = []
    for lam, p in f.terms:
        if abs(lam) <= EXP_MERGE_TOL:
            shifted = (0j,) + tuple(c / (k + 1) for k, c in enumerate(p.coeffs))
            out.append((lam, Poly._trusted(shifted)))
        else:
            q = [0j] * len(p.coeffs)
            q[-1] = p.coeffs[-1] / lam
            for k in range(len(p.coeffs) - 2, -1, -1):
                q[k] = (p.coeffs[k] - (k + 1) * q[k + 1]) / lam
            out.append((lam, Poly._trusted(tuple(q))))
    return ExpPoly._trusted(out)


def particular_reference(factored: FactoredOp, rhs: ExpPoly) -> ExpPoly:
    """solve.particular_solution as it was written before it went through
    ExpPoly._inverse, with FactoredOp.multiplicity's old rule inlined: it
    skips every root within EXP_MERGE_TOL of the exponent, but integrates by
    the multiplicity of the first such root only."""
    out = []
    for lam, q in rhs.terms:
        w = list(q.coeffs)
        for r, mult in factored.factors:
            # a root at lam is the D^m of P(lam + D), applied as I_m below
            for _ in range(mult if abs(lam - r) > EXP_MERGE_TOL else 0):
                above = 0j
                for k in range(len(w) - 1, -1, -1):
                    w[k] = above = (w[k] - (k + 1) * above) / (lam - r)
        for _ in range(next((m for r, m in factored.factors
                             if abs(lam - r) <= EXP_MERGE_TOL), 0)):
            w = [0j] + [c / (k + 1) for k, c in enumerate(w)]
        out.append((lam, Poly._trusted(tuple(w))))
    return ExpPoly._trusted(out)


def aberth_reference(monic, deriv: Poly) -> list:
    """cpoly._aberth as it was written before it kept a list of live roots:
    every sweep visits every root and returns once all of them are on root."""
    n = len(monic) - 1
    if n == 1:
        return [-monic[0]]
    zs = _start_points(monic)
    top, rest, drev = monic[-1], monic[-2::-1], deriv.coeffs[::-1]
    stalled = 0
    for _ in range(_MAX_SWEEPS):
        max_step = 0.0
        all_on_root = True
        for i in range(n):
            z = zs[i]
            p, bound, az = top, abs(top), abs(z)
            for c in rest:
                p = p * z + c
                bound = bound * az + abs(p)
            if abs(p) <= 4.0 * (bound * _EPS):
                continue
            all_on_root = False
            dp = 0j
            for c in drev:
                dp = dp * z + c
            if dp == 0:
                zs[i] += (1e-6 + 1e-6j) * (1.0 + az)
                max_step = math.inf
                continue
            w = p / dp
            s = 0j
            for j, zj in enumerate(zs):
                if j == i:
                    continue
                d = z - zj
                if d == 0:
                    d = complex(1e-12 * (1.0 + az), 0.0)
                s += 1.0 / d
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            zs[i] = z = z - step
            rel_step = abs(step) / (1.0 + abs(z))
            if rel_step > max_step:
                max_step = rel_step
        if all_on_root:
            return zs
        if max_step <= 8.0 * _EPS:
            stalled += 1
            if stalled >= 3:
                return zs
        else:
            stalled = 0
    raise NonConvergence(
        f"root iteration missed its residual target within {_MAX_SWEEPS} sweeps")


def refined_reference(derivs: list, centroid: complex, mult: int,
                      cut: float) -> complex:
    """cpoly._refined as it was written before it evaluated q and q' in one
    pass: each through Poly.__call__, q only when q' is not 0."""
    while len(derivs) <= mult:
        derivs.append(derivs[-1].derivative())
    q, dq = derivs[mult - 1], derivs[mult]
    z = centroid
    for _ in range(24):
        denom = dq(z)
        if denom == 0:
            break
        step = q(z) / denom
        z -= step
        if abs(step) <= 4.0 * _EPS * (1.0 + abs(z)):
            break
    if not _near(z, centroid, 10.0 * cut + 1e-12):
        return centroid  # refinement wandered off; keep the plain centroid
    return z


def expand_reference(fact) -> Poly:
    """Factorization.expand as it was written before it multiplied on
    tuples: one Poly product with Poly((-r, 1.0)) per factor."""
    acc = Poly((fact.leading,))
    for r, m in fact.pairs:
        lin = Poly((-r, 1.0))
        for _ in range(m):
            acc = acc * lin
    return acc


def verify_reference(op, f: ExpPoly, y: ExpPoly, points: int = 50,
                     span=(-1.0, 1.0)) -> VerifyReport:
    """solve.verify_solution as it was written before it cached its grid and
    skipped a zero f, its argument checks and overflow walk left out, and
    L[y] - f spelled as ExpPoly.__add__ built it then: the constructor over
    both operands' terms, even when one of them is 0."""
    residual = ExpPoly(op.apply(y).terms + (-f).terms)
    symbolic = residual.max_coeff() / (1.0 + f.max_coeff())
    a, b = span
    xs = [a + (b - a) * k / (points - 1) for k in range(points)]
    worst = 0.0
    for r, v in zip(residual.values(xs), f.values(xs)):
        err = abs(r) / (1.0 + abs(v))
        if err > worst:
            worst = err
    return VerifyReport(symbolic, worst)


def _cleaned_reference(p: Poly) -> Poly:
    """exppoly._cleaned as it was written before it ran on coefficient
    tuples."""
    mags = list(map(abs, p.coeffs))
    top = max(mags, default=0.0)
    if top == 0.0:
        return Poly()
    floor = COEFF_CLEAN_REL * top
    if min(mags) > floor:
        return p  # nothing to drop, not even a zero whose sign could change
    return Poly._trusted(tuple(0j if m <= floor else c
                               for c, m in zip(p.coeffs, mags)))


def trusted_reference(terms) -> ExpPoly:
    """ExpPoly._trusted with exppoly._kept as it was written before the
    cleaning rule ran on coefficient tuples."""
    out = []
    for lam, p in terms:
        p = _cleaned_reference(p)
        if not p.is_zero:
            out.append((lam, p))
    f = object.__new__(ExpPoly)
    object.__setattr__(f, "terms", tuple(out))
    return f


def apply_reference(op, y: ExpPoly) -> ExpPoly:
    """LinOp.apply as it was written before its Taylor shift became
    operators._taylor_applied, on coefficient tuples."""
    char, out = op.char_poly().coeffs, []
    for lam, p in y.terms:
        b, taylor = list(char), []
        for _ in range(min(len(p.coeffs), len(b))):
            for k in range(len(b) - 2, -1, -1):
                b[k] += lam * b[k + 1]
            taylor.append(b.pop(0))
        acc = [0j] * len(p.coeffs)
        for t in reversed(taylor):
            acc = [t * c + (i + 1) * a for i, (c, a)
                   in enumerate(zip(p.coeffs, acc[1:] + [0j]))]
        out.append((lam, Poly._trusted(tuple(acc))))
    return trusted_reference(out)


def derivative_reference(f: ExpPoly) -> ExpPoly:
    """ExpPoly.derivative as it was written before its step became
    exppoly._derived, on coefficient tuples."""
    out = []
    for lam, p in f.terms:
        out.append((lam, p.scale(lam) + p.derivative()))
    return trusted_reference(out)


def sample_reference(f: ExpPoly, xs, rows: dict) -> list:
    """ExpPoly._sample as it was written before its Horner sum became
    exppoly._sampled, on coefficient tuples."""
    out = [0j] * len(xs)
    for lam, p in f.terms:
        row = rows.get(lam)
        if row is None:
            row = rows[lam] = [cmath.exp(lam * x) for x in xs]
        cs = p.coeffs[::-1]
        for k, x in enumerate(xs):
            acc = 0j
            for c in cs:
                acc = acc * x + c
            out[k] += row[k] * acc
    return out


def derivative_table_reference(fs, x0: complex, count: int) -> list:
    """solve._derivative_table as it was written before it ran on
    coefficient tuples, with f.derivative() and f(x0) spelled through the
    two reference copies above."""
    table = [[sample_reference(f, (x0,), {})[0] for f in fs]]
    for _ in range(count - 1):
        fs = [derivative_reference(f) for f in fs]
        table.append([sample_reference(f, (x0,), {})[0] for f in fs])
    return table


def outcome(fn, *args):
    """repr(fn(*args)), or the class name and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception is the outcome compared
        return type(exc).__name__, str(exc)


# parts where the kernels leave the double range: a product past it (a
# ValueError once checked), a finite coefficient whose modulus is past it
# (abs raises OverflowError) and exponentials that overflow far from 0
_edge_parts = st.one_of(st.sampled_from((0.0, -0.0, 1e-300, 1e154, -1e154,
                                         1e308, -1e308, 1.5e308)), _floats)
edge_coeffs = st.builds(complex, _edge_parts, _edge_parts)
edge_linops = st.lists(edge_coeffs, min_size=1, max_size=4).map(
    lambda cs: LinOp(tuple(cs)))
edge_exponents = kernel_exponents | st.sampled_from(
    (0j, -0j, 700 + 0j, -745 + 0j, 1e154j, 1e300 + 0j, -1e300j))
# points where the rows overflow, signed zeros, complex points, and points
# past the double range, or whose sum is, where Horner's rule runs from 0j
edge_points = st.sampled_from((0.0, -0.0, 0j, -0j, complex(-0.0, 0.0), 0.5,
                               -1.0, 800.0, -800.0, 800 + 0j, 800j, 1e154,
                               1.7e308, math.inf, -math.inf, math.nan,
                               complex(0.5, math.inf)))


def _built(terms):
    try:
        return ExpPoly(tuple(terms))
    except (ValueError, OverflowError):  # merged parts left the double range
        return None


edge_exppolys = st.lists(
    st.tuples(edge_exponents,
              st.lists(edge_coeffs, min_size=1, max_size=4).map(
                  lambda cs: Poly(tuple(cs)))),
    max_size=3).map(_built).filter(lambda f: f is not None)


# ---------------------------------------------------- forcing lowering

def _terms_reference(parts: dict[complex, Poly]
                     ) -> tuple[tuple[complex, Poly], ...]:
    """ExpPoly(parts).terms.  One part with a finite exponent has nothing
    to sort or merge, so it is only cleaned, as the constructor would."""
    if len(parts) == 1 and cmath.isfinite(next(iter(parts))):
        return _kept(parts.items())
    return ExpPoly(tuple(parts.items())).terms


def constant_of_reference(terms, node: Expr, what: str = "value") -> complex:
    """parsing._constant_of as it was before it lowered its own expression
    and read a number literal in place: it read canonical terms."""
    ab = _affine(terms)
    if ab is None or ab[0] != 0:
        raise UnsupportedForm(f"the {what} must be a constant", node.pos)
    return ab[1]


def _accumulate_reference(acc: dict[complex, Poly], lam: complex,
                          p: Poly) -> None:
    q = acc.get(lam)
    acc[lam] = p if q is None else q + p


def _product_reference(a: dict[complex, Poly], b: dict[complex, Poly]
                       ) -> dict[complex, Poly]:
    out: dict[complex, Poly] = {}
    for la, pa in a.items():
        for lb, pb in b.items():
            p = pa * pb
            if not p.is_zero:  # a zero part carries no exponent onward
                _accumulate_reference(out, la + lb, p)
    return out


def _lower_reference(expr: Expr) -> dict[complex, Poly]:
    """Value of expr as polynomial parts keyed by their exact exponent,
    neither merged within EXP_MERGE_TOL nor cleaned."""
    if isinstance(expr, Num):
        return {0j: Poly((expr.value,))}
    if isinstance(expr, VarX):
        return {0j: monomial(1)}
    if isinstance(expr, YTerm):
        raise UnknownOnRhs("y cannot appear in a function expression", expr.pos)
    if isinstance(expr, Call):
        ab = _affine(_terms_reference(_lower_reference(expr.arg)))
        if ab is None:
            raise UnsupportedForm(f"{expr.fn}() argument must be linear in x",
                                  expr.pos)
        a, b = ab
        if expr.fn == "exp":
            return {a: Poly((_fold_const(cmath.exp, b, expr.pos),))}
        up = _fold_const(cmath.exp, 1j * b, expr.pos)
        dn = _fold_const(cmath.exp, -1j * b, expr.pos)
        if expr.fn == "sin":
            c_up, c_dn = up / 2j, -dn / 2j
        else:
            c_up, c_dn = up / 2.0, dn / 2.0
        out = {1j * a: Poly((c_up,))}
        # the same key when a is 0
        _accumulate_reference(out, -1j * a, Poly((c_dn,)))
        return out
    if isinstance(expr, Neg) or expr.op in ("+", "-"):
        out = {}
        for sign, term in _additive_terms(expr):
            for lam, p in _lower_reference(term).items():
                _accumulate_reference(out, lam, p if sign > 0 else -p)
        return out
    if expr.op != "^":
        # a product's left spine is walked in a loop: a divisor is read on
        # the way down, before its dividend, a factor on the way back up
        steps = []
        while isinstance(expr, Bin) and expr.op in ("*", "/"):
            if expr.op == "*":
                steps.append(expr.right)
            else:
                denom = constant_of_reference(
                    _terms_reference(_lower_reference(expr.right)), expr,
                    "divisor")
                if denom == 0:
                    raise UnsupportedForm("division by zero", expr.pos)
                steps.append(denom)
            expr = expr.left
        out = _lower_reference(expr)
        for step in reversed(steps):
            if isinstance(step, complex):
                out = {lam: Poly(tuple(c / step for c in p.coeffs))
                       for lam, p in out.items()}
            else:
                out = _product_reference(out, _lower_reference(step))
        return out
    if isinstance(expr.right, Num):
        # what the number lowers to, read in place: Poly converts it and
        # checks it finite, abs() overflows as in the cleaning, 0 reads 0j
        cs = Poly((expr.right.value,)).coeffs
        exponent = cs[0] if cs and abs(cs[0]) else 0j
    else:
        exponent = constant_of_reference(
            _terms_reference(_lower_reference(expr.right)), expr, "exponent")
    base = None
    if not isinstance(expr.left, VarX):
        base = _terms_reference(_lower_reference(expr.left))
        ab = _affine(base)
        if ab is not None and ab[0] == 0:
            return {0j: Poly((_cpow(ab[1], exponent, expr.pos),))}
    k = exponent.real
    if exponent.imag != 0 or k != int(k) or k < 0:
        raise UnsupportedForm(
            "non-constant expressions take only nonnegative integer powers",
            expr.pos)
    k = int(k)
    if k > _MAX_POWER:
        raise UnsupportedForm("exponent too large", expr.pos)
    if base is None:
        # x^k: every product below would add only +0j terms to one 1+0j
        return {0j: monomial(k)}
    out, factor = {0j: Poly((1.0,))}, dict(base)
    for _ in range(k):
        out = _product_reference(out, factor)
    return out


def lower_reference(expr: Expr) -> ExpPoly:
    """parsing.lower_rhs as it was before lowering worked on coefficient
    tuples and bounded the size of a product: Poly objects throughout.

    Evaluate an expression tree into the exponential-polynomial algebra.

    sin and cos are expanded through complex exponentials, so trigonometric
    forcing terms and their later realification share one representation.
    The tree is evaluated in one pass into polynomial parts keyed by their
    exact exponent, and the ExpPoly constructor (merging exponents within
    EXP_MERGE_TOL, cleaning tiny coefficients) runs once on the result, not
    after every partial sum or product.  It also runs where a canonical
    value is read: function arguments, divisors, and both sides of '^'.
    Arithmetic that leaves the double range raises UnsupportedForm.
    """
    try:
        return ExpPoly(tuple(_lower_reference(expr).items()))
    except (ValueError, OverflowError) as exc:
        # coefficient validation, e.g. products of huge constants reaching
        # inf, or a magnitude (abs) that leaves the double range
        raise UnsupportedForm(f"arithmetic does not stay finite: {exc}",
                              0) from exc


@_sourced
def constant_reference(text: str) -> complex:
    """parsing.parse_constant as it was before _constant_of read a number
    literal in place: the whole text lowered through parse_exppoly."""
    return constant_of_reference(parse_exppoly(text).terms, Num(0j, 0),
                                 "expression")


@_sourced
def initial_conditions_reference(text: str) -> tuple:
    """parsing.parse_initial_conditions as it was before _constant_of read
    a number literal in place: each point and value lowered by lower_rhs."""
    p = _Parser(text)
    out = []
    while True:
        _, name, pos, _ = p.expect("name", "'y'")
        if name != "y":
            raise ParseError("conditions must constrain y", pos, ("'y'",))
        order = p.y_suffix()
        p.expect("(", "'('")
        x_expr = p.expr()
        p.expect(")", "')'")
        p.expect("=", "'='")
        v_expr = p.expr()
        x0 = constant_of_reference(lower_rhs(x_expr).terms, x_expr,
                                   "evaluation point")
        if abs(x0.imag) > 1e-12 * (1.0 + abs(x0)):
            raise UnsupportedForm("the evaluation point must be real",
                                  x_expr.pos)
        value = constant_of_reference(lower_rhs(v_expr).terms, v_expr,
                                      "condition value")
        out.append((order, float(x0.real), value))
        kind, _, pos, _ = p.toks[p.k]
        if kind == "end":
            return tuple(out)
        if kind != ",":
            raise ParseError("expected ','", pos, ("','", "end of input"))
        p.k += 1


# constants where lowering's checks meet: signed zeros, the edges of the
# double range, and values whose products, powers and exponentials overflow
FORCING_CONSTANTS = ("0", "0.0", "-0.0", "1", "2", "0.5", "3i", "1e-308",
                     "2.5e-300i", "1e300", "1e308", "1.7e308", "-1.7e308")
_atoms = st.sampled_from(FORCING_CONSTANTS + ("x", "i"))
_affine_args = st.one_of(
    st.sampled_from(("x", "-x", "0*x", "(1+2i)*x", "1e308*x", "1.5e308i*x")),
    st.builds("{}*x + {}".format, _atoms, _atoms))


def forcing_texts(max_power: int = 4, max_leaves: int = 10):
    """Forcing expressions as text: sums, differences, products, quotients,
    powers (integers up to max_power and a few that are not), unary minus,
    and exp, sin and cos of affine arguments and of any subexpression."""
    powers = st.one_of(st.integers(0, max_power).map(str),
                       st.sampled_from(("0.5", "-1", "(1+1)", "-0.0", "1e308")))
    calls = st.builds("{}({})".format, st.sampled_from(("exp", "sin", "cos")),
                      _affine_args)

    def extend(inner):
        return st.one_of(
            st.builds("{} + {}".format, inner, inner),
            st.builds("{} - ({})".format, inner, inner),
            st.builds("({})*({})".format, inner, inner),
            st.builds("({})/({})".format, inner, inner),
            st.builds("({})^{}".format, inner, powers),
            st.builds("-({})".format, inner),
            st.builds("{}({})".format, st.sampled_from(("exp", "sin", "cos")),
                      inner))

    return st.recursive(_atoms | calls, extend, max_leaves=max_leaves)


# exponents where the aligned sum and the merge scan meet: signed zeros and
# pairs closer than EXP_MERGE_TOL
SUM_EXPONENTS = (0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j,
                 1 + 0.5e-9, 1 - 0.5e-9 + 0.5e-9j, 1 + 1e-9, 2j, -1 + 1j)
_sum_coeffs = st.builds(complex, st.sampled_from((0.0, -0.0, 1e-13, 1.0))
                        | _floats, st.sampled_from((0.0, -0.0)) | _floats)
_sum_polys = st.lists(_sum_coeffs, min_size=1, max_size=4).map(
    lambda cs: Poly(tuple(cs)))
sum_exppolys = st.lists(st.tuples(st.sampled_from(SUM_EXPONENTS), _sum_polys),
                        max_size=4).map(lambda ts: ExpPoly(tuple(ts)))


@st.composite
def exppoly_pairs(draw):
    """Two canonical ExpPolys; about half the time the second has the
    first's exponents, in order (with a zero's sign flipped at will), and
    its own polynomial parts, negated ones among them."""
    a = draw(sum_exppolys)
    if draw(st.booleans()):
        return a, draw(sum_exppolys)
    terms = []
    for lam, p in a.terms:
        if lam == 0 and draw(st.booleans()):
            lam = complex(-lam.real, -lam.imag)
        q = draw(st.sampled_from((-p, p)) | _sum_polys)
        terms.append((lam, q))
    return a, ExpPoly._trusted(terms)


@st.composite
def cli_argvs(draw):
    """Command lines for expode.cli.main over the forcing grammar: solve
    with derivative orders up to and past the cap, y terms that are not
    linear, and some of --ivp, --roots, --real, --verify-points and --json;
    or verify with a candidate from the same grammar, now and then one
    that reads as an option ('-h', '--', '--x'), after '--' only when it
    would read as one."""
    order = draw(st.integers(0, 8) | st.sampled_from((30, 100, 101)))
    lhs = f"y^({order})" + draw(st.sampled_from(
        ("", " + y", " - 2*y'", " + 1e308*y", " - 1.5e308*y", " + (1+2i)*y'",
         " + y*y", " + x*y")))
    equation = f"{lhs} = {draw(forcing_texts(max_power=100))}"
    flags = ["--json"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        candidate = draw(st.sampled_from(("-h", "--", "--x"))
                         if draw(st.integers(0, 4)) == 0
                         else forcing_texts(max_power=100))
        if candidate.startswith("--") or candidate == "-h":
            flags.append("--")  # else argparse would read it as an option
        return ["verify", equation, *flags, candidate]
    options = (
        ("--real", None),
        ("--ivp", ("y(0)=1", "y(0)=1, y'(0)=0", "y(1e308)=1", "y(0)=x")),
        ("--roots", ("0:1", "1:1", "1e308:1", "1.5e308:1, 1.5e308i:1",
                     "1.5e308i:1", "i:1, -i:1", "1")),
        ("--verify-points", ("1", "2", "50", "1000", "10001")))
    for flag, values in options:
        if draw(st.integers(0, 3)) == 0:
            flags.append(flag)
            if values:
                flags.append(draw(st.sampled_from(values)))
    return ["solve", equation, *flags]


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
