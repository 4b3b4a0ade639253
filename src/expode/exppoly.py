"""Exponential polynomials: finite sums of e^(lambda*x) * p(x).

This function class is closed under addition, multiplication,
differentiation and constant-free antidifferentiation, which is exactly what
the solver needs: forcing terms, homogeneous bases and particular solutions
all live here.  Terms are kept canonical (sorted by exponent, exponents
merged within EXP_MERGE_TOL, relatively tiny coefficients dropped), so
resonance detection reduces to an exponent landing on zero after a shift.

The constructor checks and converts every exponent, sorts and merges.  A
result whose exponents are those of a canonical input, in the same order
(negation, scale, derivative, antiderivative, LinOp.apply and the particular
solution), is built by ExpPoly._trusted, which only cleans the polynomial
parts: canonical exponents are sorted and pairwise farther apart than
EXP_MERGE_TOL, so sorting and merging them again would change nothing.
For the same reason a sum with zero is the other operand itself: the
constructor would clean its canonical terms back to the same terms, and a
sum of two operands with equal exponents, in the same order, adds them term
by term: the constructor would pair each term with its twin at distance 0.
"""

from __future__ import annotations

import cmath
import math

from .cpoly import Poly, Record, _conjugate_pairs

EXP_MERGE_TOL = 1e-9     # exponents closer than this are the same term
COEFF_CLEAN_REL = 1e-12  # coefficients tiny relative to their own term get dropped


class NotConjugateClosed(Exception):
    """The function has no real form: conjugate terms are missing or unequal."""


def _cleaned(p: Poly) -> Poly:
    mags = list(map(abs, p.coeffs))
    top = max(mags, default=0.0)
    if top == 0.0:
        return Poly()
    floor = COEFF_CLEAN_REL * top
    if min(mags) > floor:
        return p  # nothing to drop, not even a zero whose sign could change
    return Poly._trusted(tuple(0j if m <= floor else c
                               for c, m in zip(p.coeffs, mags)))


def _canonical(raw) -> tuple[tuple[complex, Poly], ...]:
    entries = []
    for lam, p in raw:
        lam = complex(lam)
        if not cmath.isfinite(lam):
            raise ValueError("exponents must be finite")
        if not isinstance(p, Poly):
            p = Poly(tuple(p))
        if not p.is_zero:
            entries.append((lam, p))
    entries.sort(key=lambda t: (t[0].real, t[0].imag))
    # Each entry joins the nearest slot within EXP_MERGE_TOL, the earliest
    # on a tie.  Slots are created in sorted order, so scanning them
    # backwards the real gap only grows, and |gap| >= its real part: past a
    # real gap above the tolerance no slot can be within it.
    merged: list[list] = []
    for lam, p in entries:
        slot = None
        best = math.inf
        for cand in reversed(merged):
            d = lam - cand[0]
            if d.real > EXP_MERGE_TOL:
                break
            d = abs(d)
            if d <= EXP_MERGE_TOL and d <= best:
                slot, best = cand, d
        if slot is None:
            merged.append([lam, p])
        else:
            slot[1] = slot[1] + p
    return _kept(merged)


def _kept(terms) -> tuple[tuple[complex, Poly], ...]:
    out = []
    for lam, p in terms:
        p = _cleaned(p)
        if not p.is_zero:
            out.append((lam, p))
    return tuple(out)


class ExpPoly(Record):
    """Sum of e^(lambda*x) * p(x) terms in canonical form."""

    def __init__(self, terms: tuple[tuple[complex, Poly], ...] = ()):
        object.__setattr__(self, "terms", _canonical(terms))

    @classmethod
    def _trusted(cls, terms) -> ExpPoly:
        """An ExpPoly from (exponent, Poly) pairs whose exponents are already
        canonical, in order: only the polynomial parts are cleaned."""
        f = object.__new__(cls)
        object.__setattr__(f, "terms", _kept(terms))
        return f

    @classmethod
    def zero(cls) -> ExpPoly:
        return cls(())

    @classmethod
    def constant(cls, c: complex) -> ExpPoly:
        return cls(((0j, Poly((complex(c),))),))

    @classmethod
    def term(cls, lam: complex, poly: Poly) -> ExpPoly:
        return cls(((complex(lam), poly),))

    @classmethod
    def from_poly(cls, poly: Poly) -> ExpPoly:
        return cls(((0j, poly),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff(self) -> float:
        return max((p.max_abs() for _, p in self.terms), default=0.0)

    def term_at(self, lam: complex, tol: float = EXP_MERGE_TOL) -> Poly | None:
        """Polynomial part at (approximately) the given exponent, else None."""
        best, best_d = None, math.inf
        for mu, p in self.terms:
            d = abs(mu - complex(lam))
            if d <= tol and d < best_d:
                best, best_d = p, d
        return best

    def __add__(self, other: ExpPoly) -> ExpPoly:
        if not other.terms:
            return self
        if not self.terms:
            return other
        if [lam for lam, _ in self.terms] == [lam for lam, _ in other.terms]:
            # each term's twin is the one at distance 0, so the constructor
            # would merge exactly these pairs, in this order
            return ExpPoly._trusted((lam, p + q) for (lam, p), (_, q)
                                    in zip(self.terms, other.terms))
        return ExpPoly(self.terms + other.terms)

    def __neg__(self) -> ExpPoly:
        return ExpPoly._trusted((lam, -p) for lam, p in self.terms)

    def __sub__(self, other: ExpPoly) -> ExpPoly:
        return self + (-other)

    def scale(self, c: complex) -> ExpPoly:
        c = complex(c)
        return ExpPoly._trusted((lam, p.scale(c)) for lam, p in self.terms)

    def __mul__(self, other: ExpPoly) -> ExpPoly:
        out = []
        for la, pa in self.terms:
            for lb, pb in other.terms:
                out.append((la + lb, pa * pb))
        return ExpPoly(tuple(out))

    def shift_exponent(self, c: complex) -> ExpPoly:
        """Multiply by e^(c*x): every exponent moves by c."""
        c = complex(c)
        return ExpPoly(tuple((lam + c, p) for lam, p in self.terms))

    def derivative(self) -> ExpPoly:
        out = []
        for lam, p in self.terms:
            out.append((lam, p.scale(lam) + p.derivative()))
        return ExpPoly._trusted(out)

    def _inverse(self, factors) -> ExpPoly:
        """Solve prod (D - r)^mult y = self with no kernel part in y: each term
        e^(lam*x) q is back-substituted through the roots farther than
        EXP_MERGE_TOL from lam, then integrated once per multiplicity within."""
        out = []
        for lam, q in self.terms:
            w, resonance = list(q.coeffs), 0
            for r, mult in factors:
                if abs(lam - r) <= EXP_MERGE_TOL:
                    resonance += mult
                    continue
                for _ in range(mult):
                    above = 0j
                    for k in range(len(w) - 1, -1, -1):
                        w[k] = above = (w[k] - (k + 1) * above) / (lam - r)
            for _ in range(resonance):
                w = [0j] + [c / (k + 1) for k, c in enumerate(w)]
            out.append((lam, Poly._trusted(tuple(w))))
        return ExpPoly._trusted(out)

    def antiderivative(self) -> ExpPoly:
        """One antiderivative with every integration constant set to zero.

        For a term e^(c*x) q(x) with c away from zero, the polynomial part of
        the antiderivative solves c*t + t' = q; running the recurrence from
        the top coefficient down is the integration-by-parts ladder
        I[x^n e^(cx)] = x^n e^(cx)/c - (n/c) I[x^(n-1) e^(cx)] done all at
        once, and keeps the degree of q exactly.  Exponents within
        EXP_MERGE_TOL of zero integrate as plain polynomials instead, which
        raises the degree by one; that degree jump is precisely what
        resonance means downstream.
        """
        return self._inverse(((0j, 1),))

    def nth_antiderivative(self, m: int) -> ExpPoly:
        if m < 1:
            raise ValueError("m must be >= 1")
        f = self
        for _ in range(m):
            f = f.antiderivative()
        return f

    def values(self, xs) -> list[complex]:
        """Values at every x in xs, one term at a time.

        Each term's polynomial runs Horner's rule from 0j, as Poly.__call__
        does, and is added in term order with an explicit +=, so each value
        is bit for bit the term-by-term sum at that point.
        """
        return self._sample(xs, {})

    def _sample(self, xs, rows: dict) -> list[complex]:
        """values(xs), with each exponent's row e^(lam*x) taken from, or
        added to, rows: functions sampled with one dict share their rows.
        0j and -0j share a row although their rows differ in the sign of a
        zero part; a sum that starts from 0j never holds -0.0, so no value
        changes."""
        out = [0j] * len(xs)
        for lam, p in self.terms:
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

    def __call__(self, x: complex) -> complex:
        return self.values((x,))[0]


def coeff_distance(f: ExpPoly, g: ExpPoly) -> float:
    """Largest coefficient magnitude of f - g after canonical merging."""
    return (f - g).max_coeff()


def _conjugate_poly(p: Poly) -> Poly:
    return Poly(tuple(c.conjugate() for c in p.coeffs))


def _real_poly(p: Poly, take) -> Poly:
    return Poly(tuple(complex(take(c), 0.0) for c in p.coeffs))


class TrigForm(Record):
    """Real rendering of a conjugate-closed ExpPoly.

    Each entry is (alpha, beta, cos_part, sin_part) standing for
    e^(alpha*x) * (cos_part(x)*cos(beta*x) + sin_part(x)*sin(beta*x)),
    with beta >= 0 and real polynomial parts.  Purely real terms carry
    beta == 0 and an empty sin_part.
    """

    def __init__(self, entries: tuple[tuple[float, float, Poly, Poly], ...] = ()):
        object.__setattr__(self, "entries", entries)

    def __call__(self, x: float) -> float:
        total = 0.0
        for alpha, beta, cp, sp in self.entries:
            total += math.exp(alpha * x) * (
                cp(x).real * math.cos(beta * x) + sp(x).real * math.sin(beta * x))
        return total


def realify(f: ExpPoly) -> TrigForm:
    """Rewrite a conjugate-closed ExpPoly over cos/sin.

    Pairs e^((a+ib)x) p(x) with e^((a-ib)x) conj(p)(x) and emits
    e^(ax) (2 Re p (x) cos(bx) - 2 Im p(x) sin(bx)).  This is a rendering
    transform only; the solver itself stays in the complex exponential basis.
    Raises NotConjugateClosed when a partner term is missing or does not
    match within tolerance.
    """
    tol = EXP_MERGE_TOL
    # f's largest coefficient capped at 1: the tolerances stay relative for
    # a small f, whose digits an absolute 1 would clean away
    size = min(1.0, f.max_coeff())
    scale = size + f.max_coeff()
    real_terms: list[tuple[float, Poly]] = []
    upper: list[tuple[complex, Poly]] = []
    lower: list[tuple[complex, Poly]] = []
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

    entries: list[tuple[float, float, Poly, Poly]] = []
    terms = upper + lower
    lams = [lam for lam, _ in terms]
    for i, j in _conjugate_pairs(lams, [0] * len(lams), [tol] * len(lams)):
        lam, p = terms[i]
        if j is None:
            raise NotConjugateClosed(
                f"no conjugate partner for exponent {lam!r}")
        mu, q = terms[j]
        mismatch = (p - _conjugate_poly(q)).max_abs()
        if mismatch > tol * scale:
            raise NotConjugateClosed(
                f"conjugate polynomial parts differ at exponent {lam!r}")
        alpha = 0.5 * (lam.real + mu.real)
        beta = 0.5 * (lam.imag - mu.imag)
        half = (p + _conjugate_poly(q)).scale(0.5)
        floor = COEFF_CLEAN_REL * max(size, half.max_abs())
        cos_part = Poly(tuple(
            complex(2.0 * c.real, 0.0) if abs(2.0 * c.real) > floor else 0j
            for c in half.coeffs))
        sin_part = Poly(tuple(
            complex(-2.0 * c.imag, 0.0) if abs(2.0 * c.imag) > floor else 0j
            for c in half.coeffs))
        if cos_part.is_zero and sin_part.is_zero:
            continue
        entries.append((alpha, beta, cos_part, sin_part))

    for alpha, p in real_terms:
        entries.append((alpha, 0.0, p, Poly()))
    entries.sort(key=lambda e: (e[0], e[1]))
    return TrigForm(tuple(entries))
