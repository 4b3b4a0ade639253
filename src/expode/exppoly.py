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
from itertools import zip_longest

from .cpoly import (Poly, Record, _add, _checked, _conjugate_pairs, _near,
                    _scale)

EXP_MERGE_TOL = 1e-9     # exponents closer than this are the same term
COEFF_CLEAN_REL = 1e-12  # coefficients tiny relative to their own term get dropped


class NotConjugateClosed(Exception):
    """The function has no real form: conjugate terms are missing or unequal."""


def _cleaned(cs: tuple) -> tuple:
    """The cleaning rule, on a checked and stripped coefficient tuple: every
    coefficient at most COEFF_CLEAN_REL times the largest becomes 0j, and
    the trailing zeros go; () when every coefficient is 0."""
    mags = list(map(abs, cs))
    top = max(mags, default=0.0)
    if top == 0.0:
        return ()
    floor = COEFF_CLEAN_REL * top
    if min(mags) > floor:
        return cs  # nothing to drop, not even a zero whose sign could change
    out = [0j if m <= floor else c for c, m in zip(cs, mags)]
    while out[-1] == 0:  # stops at the largest coefficient, which stays
        out.pop()
    return tuple(out)


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
    if len(entries) < 2:  # nothing to sort or merge
        return _kept(entries)
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
        cs = _cleaned(p.coeffs)
        if cs:
            out.append((lam, p if cs is p.coeffs else Poly._trusted(cs)))
    return tuple(out)


def _kept_coeffs(pairs) -> list[tuple[complex, tuple]]:
    """_kept on (exponent, checked and stripped coefficient tuple) pairs."""
    return [(lam, cs) for lam, raw in pairs if (cs := _cleaned(raw))]


def _derived(lam: complex, cs: tuple) -> tuple:
    """The coefficients of (e^(lam*x) p)' / e^(lam*x) = lam*p + p' from p's,
    formed as Poly's scale, derivative and + form them; the sum is not yet
    checked."""
    return _add(_checked(_scale(cs, lam)),
                _checked(tuple(k * c for k, c in enumerate(cs))[1:]))


def _sampled(terms, xs, rows: dict) -> list[complex]:
    """Values at every x in xs of the sum of (exponent, coefficient tuple)
    terms, added in term order to 0j: bit for bit the term-by-term sum, each
    polynomial by Horner's rule from 0j (Poly.__call__), at every point.
    Each exponent's row e^(lam*x) is taken from, or added to, rows, so
    functions sampled with one dict share their rows.

    A sum that starts from 0j never holds -0.0, so an addend that differs
    only in the sign of a zero part changes no value.  Hence 0j and -0j
    share a row, and Horner's rule starts from the top coefficient: at a
    finite x the first step from 0j, 0j*x + top, is top up to such signs.
    A point past the double range makes it nan; then (the sum of xs is not
    finite) every point starts from 0j."""
    finite = cmath.isfinite(sum(xs))
    out = [0j] * len(xs)
    for lam, cs in terms:
        row = rows.get(lam)
        if row is None:
            row = rows[lam] = [cmath.exp(lam * x) for x in xs]
        start, rest = (cs[-1], cs[-2::-1]) if finite else (0j, cs[::-1])
        for k, x in enumerate(xs):
            acc = start
            for c in rest:
                acc = acc * x + c
            out[k] += row[k] * acc
    return out


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

    def term_at(self, lam: complex) -> Poly | None:
        """Nearest polynomial part within EXP_MERGE_TOL of lam, else None."""
        lam, best, best_d = complex(lam), None, math.inf
        for mu, p in self.terms:
            if _near(mu, lam, EXP_MERGE_TOL) and abs(mu - lam) < best_d:
                best, best_d = p, abs(mu - lam)
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
        return ExpPoly._trusted([(lam, Poly._trusted(_derived(lam, p.coeffs)))
                                 for lam, p in self.terms])

    def _inverse(self, factors) -> ExpPoly:
        """Solve prod (D - r)^mult y = self with no kernel part in y: each term
        e^(lam*x) q is back-substituted through the roots farther than
        EXP_MERGE_TOL from lam, then integrated once per multiplicity within."""
        out = []
        for lam, q in self.terms:
            w, resonance = list(q.coeffs), 0
            for r, mult in factors:
                # abs(), not cpoly._near: past the double range, |lam - r|
                # raises here, while dividing by lam - r would give 0 silently
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
        """Values at every x in xs, one term at a time (_sampled)."""
        return _sampled([(lam, p.coeffs) for lam, p in self.terms], xs, {})

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
    # real exponents first, where no later item can take them, then upper,
    # then lower: an earlier item picks its partner, so each upper term
    # takes the nearest lower one
    terms = sorted(f.terms, key=lambda t: 0 if abs(t[0].imag) <= tol
                   else 1 if t[0].imag > 0 else 2)
    lams = [lam for lam, _ in terms]
    bounds = [None if abs(lam.imag) <= tol else tol for lam in lams]
    entries: list[tuple[float, float, Poly, Poly]] = []
    for i, j in _conjugate_pairs(lams, [0] * len(lams), bounds):
        lam, p = terms[i]
        if bounds[i] is None:
            if any(abs(c.imag) > tol * scale for c in p.coeffs):
                raise NotConjugateClosed(
                    "coefficients at a real exponent have imaginary parts")
            entries.append((lam.real, 0.0, _real_poly(p, lambda c: c.real),
                            Poly()))
            continue
        if j is None:
            raise NotConjugateClosed(
                f"no conjugate partner for exponent {lam!r}")
        mu, q = terms[j]
        if not all(_near(a, b.conjugate(), tol * scale) for a, b
                   in zip_longest(p.coeffs, q.coeffs, fillvalue=0j)):
            raise NotConjugateClosed(
                f"conjugate polynomial parts differ at exponent {lam!r}")
        alpha = 0.5 * (lam.real + mu.real)
        beta = 0.5 * (lam.imag - mu.imag)
        half = (p + _conjugate_poly(q)).scale(0.5)
        floor = COEFF_CLEAN_REL * max(size, half.max_abs())
        cos_part = _real_poly(half, lambda c: 2.0 * c.real
                              if abs(2.0 * c.real) > floor else 0.0)
        sin_part = _real_poly(half, lambda c: -2.0 * c.imag
                              if abs(2.0 * c.imag) > floor else 0.0)
        if cos_part.is_zero and sin_part.is_zero:
            continue
        entries.append((alpha, beta, cos_part, sin_part))
    entries.sort(key=lambda e: (e[0], e[1]))
    return TrigForm(tuple(entries))
