"""Exact checks of expode's answers, computed apart from the program.

Numbers are Gaussian rationals (`G`, a pair of `fractions.Fraction`), and
an exponential polynomial (`EP`) maps each exponent to its polynomial
coefficients, lowest power first.  A float answer from the program is
converted exactly (every double is a dyadic rational), so substituting it
into the generator's operator leaves no rounding of its own.

The operator L = sum_k a_k D^k acts on one term through the exponential
shift

    L[e^(mu x) p] = e^(mu x) * sum_k P^(k)(mu)/k! * p^(k),

where P is the characteristic polynomial, so no derivative tower is built.
The verdict is a backward error, componentwise in the coefficients of f
and y (Oettli-Prager) and normwise in the operator (Rigal-Gaches):

    max_i |L[y] - f|_i / (|f_i| + sum_k |a_k| * max_k |y^(k)|_i)

over every exponent and power i (see `backward_error`).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

BACKWARD_TOL = 1e-9         # largest backward error accepted
ROOT_TOL = 1e-9             # relative root error accepted at multiplicity 1
EXPONENT_MATCH = 1e-12      # relative exponent shift read as a data perturbation


class G:
    """Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def of(z) -> G:
        """Exact value of an int, float, complex, decimal string or G."""
        if isinstance(z, G):
            return z
        if isinstance(z, complex):
            return G(Fraction(z.real), Fraction(z.imag))
        return G(Fraction(z))

    def __add__(self, o):
        if isinstance(o, EP):
            return NotImplemented
        o = G.of(o)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, EP):
            return NotImplemented
        o = G.of(o)
        return G(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        if isinstance(o, EP):
            return NotImplemented
        o = G.of(o)
        if not o.im:
            return G(self.re * o.re, self.im * o.re)
        if not self.im:
            return G(self.re * o.re, self.re * o.im)
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = G.of(o)
        den = o.re * o.re + o.im * o.im
        return G((self.re * o.re + self.im * o.im) / den,
                 (self.im * o.re - self.re * o.im) / den)

    def __eq__(self, o):
        o = G.of(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conj(self) -> G:
        return G(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"G({self.re}, {self.im})"


ZERO = G(0)
ONE = G(1)
I = G(0, 1)


def _trim(coeffs) -> tuple[G, ...]:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class EP:
    """Exact exponential polynomial: {exponent: coefficients, lowest first}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[G, tuple[G, ...]] = {}
        for lam, cs in (terms or {}).items():
            cs = _trim(G.of(c) for c in cs)
            if cs:
                self.terms[G.of(lam)] = cs

    @staticmethod
    def of(v) -> EP:
        return v if isinstance(v, EP) else EP({ZERO: (G.of(v),)})

    @staticmethod
    def from_program(f) -> EP:
        """Exact value of an expode ExpPoly (its terms are float pairs)."""
        return EP({G.of(lam): tuple(G.of(c) for c in p.coeffs)
                   for lam, p in f.terms})

    def __add__(self, o):
        o = EP.of(o)
        out = dict(self.terms)
        for lam, cs in o.terms.items():
            mine = out.get(lam, ())
            n = max(len(mine), len(cs))
            out[lam] = tuple((mine[k] if k < len(mine) else ZERO)
                             + (cs[k] if k < len(cs) else ZERO)
                             for k in range(n))
        return EP(out)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, o):
        return self + (-EP.of(o))

    def __mul__(self, o):
        if not isinstance(o, EP):
            c = G.of(o)
            return EP({lam: tuple(x * c for x in cs)
                       for lam, cs in self.terms.items()})
        out = EP()
        for la, pa in self.terms.items():
            for lb, pb in o.terms.items():
                prod = [ZERO] * (len(pa) + len(pb) - 1)
                for i, x in enumerate(pa):
                    for j, y in enumerate(pb):
                        prod[i + j] = prod[i + j] + x * y
                out = out + EP({la + lb: prod})
        return out

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (ONE / G.of(c))

    def __pow__(self, k: int):
        out = EP.of(1)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def degree_at(self, lam: G) -> int:
        return len(self.terms.get(lam, ())) - 1

    def __repr__(self):
        return f"EP({self.terms!r})"


X = EP({ZERO: (ZERO, ONE)})


def EXP(c) -> EP:
    return EP({G.of(c): (ONE,)})


def SIN(b) -> EP:
    b = G.of(b)
    return EP({I * b: (G(0, Fraction(-1, 2)),), -(I * b): (G(0, Fraction(1, 2)),)})


def COS(b) -> EP:
    b = G.of(b)
    half = G(Fraction(1, 2))
    return EP({I * b: (half,), -(I * b): (half,)})


# ------------------------------------------------------------- operators

def poly_from_roots(roots) -> tuple[G, ...]:
    """Monic prod (z - r)^m as coefficients a_0..a_n."""
    coeffs = [ONE]
    for r, m in roots:
        r = G.of(r)
        for _ in range(m):
            shifted = [ZERO] + coeffs
            for k, c in enumerate(coeffs):
                shifted[k] = shifted[k] - r * c
            coeffs = shifted
    return tuple(coeffs)


def taylor(a, mu: G, count: int) -> list[G]:
    """P^(k)(mu)/k! for k < count, P(z) = sum a_k z^k (repeated Horner)."""
    b = list(a)
    out = []
    for _ in range(min(count, len(b))):
        acc = ZERO
        quotient = []
        for c in reversed(b):
            acc = acc * mu + c
            quotient.append(acc)
        out.append(quotient.pop())
        b = quotient[::-1]
    return out


def apply_term(a, mu: G, p) -> tuple[G, ...]:
    """Polynomial part of L[e^(mu x) p] by the exponential shift."""
    t = taylor(a, mu, len(p))
    out = []
    for i in range(len(p)):
        acc = ZERO
        falling = 1  # (i+k)!/i!
        for k in range(len(p) - i):
            if k:
                falling *= i + k
            if k < len(t) and p[i + k]:
                acc = acc + t[k] * p[i + k] * falling
        out.append(acc)
    return _trim(out)


def apply(a, y: EP) -> EP:
    return EP({mu: apply_term(a, mu, p) for mu, p in y.terms.items()})


def _magnitudes(mu: G, p, order: int) -> list[float]:
    """max over k <= order of ((|mu| + D)^k |p|)_i, for each power i.

    (mu + D)^k p is the polynomial part of the k-th derivative of
    e^(mu x) p; taking absolute values of mu, of the entries of D and of p
    bounds every coefficient the derivative could carry, cancellation or
    not, as Oettli-Prager's |A||x| does.
    """
    m = abs(mu)
    v = [abs(c) for c in p]
    top = list(v)
    for _ in range(order):
        v = [m * v[i] + (i + 1) * v[i + 1] if i + 1 < len(v) else m * v[i]
             for i in range(len(v))]
        top = [max(t, x) for t, x in zip(top, v)]
    return top


def backward_error(a, f: EP, y: EP) -> float:
    """Backward error of y as a solution of L[y] = f.

    Componentwise in the coefficients of f and y (Oettli-Prager), normwise
    in the operator (Rigal-Gaches): the largest over every exponent and
    power i of

        |L[y] - f|_i / (|f_i| + sum_k |a_k| * max_k |y^(k)|_i).

    So a wrong coefficient cannot hide behind a large one elsewhere, and an
    operator coefficient that is zero does not make a tiny root error count
    as a wrong answer.  A term of y whose exponent differs from one of f's
    by at most EXPONENT_MATCH (relative) is compared with that term of f;
    the shift is a perturbation of the data and counts by its relative size.
    """
    target = dict(f.terms)
    shift = 0.0
    for mu in y.terms:
        if mu in target:
            continue
        cmu = complex(mu)
        for lam in list(target):
            gap = abs(cmu - complex(lam)) / (1.0 + abs(lam))
            if gap <= EXPONENT_MATCH and lam not in y.terms:
                target[mu] = target.pop(lam)
                shift = max(shift, gap)
                break
    norm_a = sum(abs(c) for c in a)
    worst = shift
    for mu in set(target) | set(y.terms):
        p = y.terms.get(mu, ())
        r = apply_term(a, mu, p) if p else ()
        g = target.get(mu, ())
        size = _magnitudes(mu, p, len(a) - 1)
        for i in range(max(len(r), len(g))):
            ri = (r[i] if i < len(r) else ZERO) - (g[i] if i < len(g) else ZERO)
            if not ri:
                continue
            den = (abs(g[i]) if i < len(g) else 0.0) \
                + norm_a * (size[i] if i < len(size) else 0.0)
            worst = max(worst, abs(ri) / den if den else math.inf)
    return worst


# ----------------------------------------------------------- other checks

def root_tolerance(mult: int) -> float:
    return ROOT_TOL * 10.0 ** (mult - 1)


def roots_mismatch(got, want) -> str | None:
    """None when the (root, multiplicity) multisets agree, else why not."""
    if sorted(m for _, m in got) != sorted(m for _, m in want):
        return (f"multiplicities {sorted(m for _, m in got)} != "
                f"{sorted(m for _, m in want)}")
    free = list(got)
    for r, m in want:
        r = complex(r)
        best = min((g for g in free if g[1] == m),
                   key=lambda g: abs(complex(g[0]) - r))
        err = abs(complex(best[0]) - r)
        if err > root_tolerance(m) * (1.0 + abs(r)):
            return f"root {r} (m={m}) returned as {best[0]} (error {err:.1e})"
        free.remove(best)
    return None


def resonance_mismatch(f: EP, part: EP, roots) -> str | None:
    """The paper's degree law: a forcing term e^(bx) x^j at a root of
    multiplicity m gives e^(bx) x^m S(x) with deg S = j exactly."""
    for lam, p in f.terms.items():
        clam = complex(lam)
        m = next((mult for r, mult in roots if abs(complex(r) - clam) == 0.0), 0)
        match = [mu for mu in part.terms
                 if abs(complex(mu) - clam) <= 1e-9 * (1.0 + abs(clam))]
        if len(match) != 1:
            return f"exponent {clam}: {len(match)} particular terms"
        q = part.terms[match[0]]
        j = len(p) - 1
        if len(q) - 1 != j + m:
            return f"exponent {clam}: degree {len(q) - 1}, expected {j + m}"
        if any(q[:m]):
            return f"exponent {clam}: powers below x^{m} present"
    return None


def derivative_at_zero(y: EP, d: int) -> G:
    """y^(d)(0) exactly: sum over terms of sum_k C(d,k) mu^(d-k) k! p_k."""
    total = ZERO
    for mu, p in y.terms.items():
        for k in range(min(d, len(p) - 1) + 1):
            if p[k]:
                total = total + p[k] * (math.comb(d, k) * math.factorial(k)) \
                    * _gpow(mu, d - k)
    return total


def _gpow(z: G, k: int) -> G:
    out = ONE
    for _ in range(k):
        out = out * z
    return out


def conditions_mismatch(y: EP, conditions) -> str | None:
    """Each y^(d)(0) = v within 1e-9 of the size of the terms summed."""
    for d, v in conditions:
        got = derivative_at_zero(y, d)
        size = sum(abs(c) * math.comb(d, k) * math.factorial(k)
                   * abs(mu) ** (d - k)
                   for mu, p in y.terms.items()
                   for k, c in enumerate(p) if k <= d)
        err = abs(got - v)
        if err > 1e-9 * (1.0 + abs(v) + size):
            return f"y^({d})(0) = {complex(got)}, wanted {complex(v)}"
    return None


def unit_roots(n: int, c: complex = 1.0) -> list[tuple[complex, int]]:
    """The n simple roots of z^n = c, computed with cmath."""
    rho, phi = cmath.polar(c)
    r = rho ** (1.0 / n)
    return [(cmath.rect(r, (phi + 2.0 * math.pi * k) / n), 1) for k in range(n)]
