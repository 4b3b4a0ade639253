"""Complex polynomial arithmetic and multiplicity-aware root finding.

Polynomials are dense tuples of complex coefficients, lowest power first.
Root finding runs a simultaneous Ehrlich-Aberth iteration, started from the
Newton polygon of the coefficients (Bini, Numer. Algorithms 13, 1996), so
each group of roots of like modulus starts on a circle of about that
modulus and an exactly zero root starts, and stays, at 0.  It then groups
the computed roots by single-linkage clustering, so a multiple root comes
back as one (root, multiplicity) pair instead of a scatter of simple roots.
Every candidate grouping is certified by expanding the factors and comparing
coefficients against the input; the coarsest grouping that certifies wins.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_CLUSTER_TOL",
    "Factorization",
    "NonConvergence",
    "Poly",
    "coefficients_match",
    "find_roots",
    "monomial",
]

import cmath
import math
import sys
from itertools import accumulate, zip_longest

DEFAULT_CLUSTER_TOL = 1e-6
COEFF_REL_TOL = 1e-8
COEFF_ABS_TOL = 1e-10

# the cluster cuts, finest first: DEFAULT_CLUSTER_TOL, then four steps of * 10
_CUTS = tuple(accumulate((DEFAULT_CLUSTER_TOL,) + (10.0,) * 4, float.__mul__))
_MAX_SWEEPS = 500
_EPS = sys.float_info.epsilon


class NonConvergence(Exception):
    """Raised when no certified factorization of the input can be produced."""


class Record:
    """Frozen record whose fields are its ``__init__`` parameters, in order:
    ``==`` and ``hash`` use the field values, ``repr`` names them, and
    setting or deleting an attribute raises AttributeError.  ``__init__``
    stores the fields with ``object.__setattr__`` or ``self.__dict__.update``.

    Both walks, the preorder that ``==`` and ``hash`` share and the one of
    ``repr``, visit fields that hold records with an explicit stack, so a
    tree as deep as a long sum's left spine needs no recursion.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _preorder(self) -> list:
        # the field values in preorder, each record among them marked by its
        # class, which fixes how many values follow for it: two records are
        # equal exactly when their lists are
        flat, stack = [], [self]
        while stack:
            for v in stack.pop()._values():
                if isinstance(v, Record):
                    flat.append(v.__class__)
                    stack.append(v)
                else:
                    flat.append(v)
        return flat

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        # a record without record fields hashes as the tuple of its values
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            parts = [item.__class__.__qualname__ + "("]
            for k, f in enumerate(item._fields):
                v = getattr(item, f)
                parts.append(f"{', ' if k else ''}{f}=")
                parts.append(v if isinstance(v, Record) else repr(v))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__


class Poly(Record):
    """Univariate polynomial over complex doubles; ``coeffs[k]`` multiplies x^k.

    Trailing zero coefficients are stripped exactly (no epsilon), so the zero
    polynomial is the empty tuple and ``degree`` equals ``len(coeffs) - 1``
    for everything else.

    Every Poly is built by this constructor, the one place that converts each
    coefficient to complex and checks that it is finite (ValueError if not).
    """

    def __init__(self, coeffs: tuple[complex, ...] = ()):
        object.__setattr__(self, "coeffs", _checked(tuple(map(complex, coeffs))))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lowest_power(self) -> int | None:
        """Index of the first nonzero coefficient, None for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __add__(self, other: Poly) -> Poly:
        return Poly(_add(self.coeffs, other.coeffs))

    def __neg__(self) -> Poly:
        return Poly(_neg(self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        return Poly(_mul(self.coeffs, other.coeffs))

    def scale(self, s: complex) -> Poly:
        return Poly(_scale(self.coeffs, s))

    def derivative(self) -> Poly:
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


def _checked(cs: tuple[complex, ...]) -> tuple[complex, ...]:
    """cs without its trailing zeros; ValueError if one is not finite."""
    if not all(map(cmath.isfinite, cs)):
        raise ValueError("polynomial coefficients must be finite")
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


# Poly's arithmetic on bare coefficient tuples.  Each returns a raw tuple,
# which Poly's constructor, or the forcing side's lowering, checks.

def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return tuple(out)


def _neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) == 1 or len(b) == 1:
        # the one pass the double loop below makes, 0j + a*b per slot
        return tuple([0j + x * y for x in a for y in b])
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _scale(a: tuple, s: complex) -> tuple:
    return tuple(c * s for c in a)


def monomial(power: int, coeff: complex = 1.0) -> Poly:
    """coeff * x**power"""
    if power < 0:
        raise ValueError("power must be nonnegative")
    return Poly((0j,) * power + (complex(coeff),))


def _root_pairs(pairs) -> tuple[tuple[complex, int], ...]:
    """pairs as (complex, int) tuples, checked pair by pair: ValueError for a
    root that is not finite, then for a multiplicity below 1."""
    out = tuple((complex(r), int(m)) for r, m in pairs)
    for r, m in out:
        if not cmath.isfinite(r):
            raise ValueError("roots must be finite")
        if m < 1:
            raise ValueError("multiplicities must be >= 1")
    return out


def _near(a: complex, b: complex, tol: float) -> bool:
    """|a - b| <= tol.  The parts are compared first, so abs() meets only a
    difference whose parts are at most tol, and cannot overflow."""
    d = a - b
    return abs(d.real) <= tol and abs(d.imag) <= tol and abs(d) <= tol


def _separated(pairs, sep: float, message: str) -> None:
    """ValueError(message) when two roots of pairs lie within sep of each
    other."""
    for i, (r, _) in enumerate(pairs):
        for s, _ in pairs[i + 1:]:
            if _near(r, s, sep):
                raise ValueError(message)


def _conjugate_pairs(zs, labels, bounds) -> list[tuple[int, int | None]]:
    """(i, j) for each item i that no earlier item took, in order: j is the
    nearest later item not yet taken whose label equals i's and whose
    conjugate lies within bounds[i] of zs[i], the earliest on a tie, or None
    when there is none or bounds[i] is None."""
    taken = [False] * len(zs)
    out: list[tuple[int, int | None]] = []
    for i, z in enumerate(zs):
        if taken[i]:
            continue
        best, best_d, bound, label = None, math.inf, bounds[i], labels[i]
        if bound is not None:
            for j in range(i + 1, len(zs)):
                if taken[j] or labels[j] != label:
                    continue
                w = zs[j].conjugate()
                if _near(w, z, bound) and abs(w - z) < best_d:
                    best, best_d = j, abs(w - z)
        if best is not None:
            taken[best] = True
        out.append((i, best))
    return out


class Factorization(Record):
    """Roots with multiplicities plus a leading scale factor.

    ``expand()`` rebuilds ``leading * prod (x - root)**mult``.  Pairs are kept
    sorted by (re, im) and roots must be pairwise distinct.
    """

    def __init__(self, pairs: tuple[tuple[complex, int], ...],
                 leading: complex = 1.0 + 0j):
        pairs = _root_pairs(pairs)
        if len({r for r, _ in pairs}) < len(pairs):
            raise ValueError("roots must be pairwise distinct")
        lead = complex(leading)
        if lead == 0 or not cmath.isfinite(lead):
            raise ValueError("leading coefficient must be finite and nonzero")
        ordered = tuple(sorted(pairs, key=lambda rm: (rm[0].real, rm[0].imag)))
        self.__dict__.update(pairs=ordered, leading=lead)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.pairs)

    def expand(self) -> Poly:
        # acc * (x - r) over zero-padded tuples, each slot summed as _mul sums it
        acc = (self.leading,)
        for r, m in self.pairs:
            nr = -r
            for _ in range(m):
                acc = _checked(tuple(0j + a + b * nr
                                     for a, b in zip((0j,) + acc, acc + (0j,))))
        return Poly(acc)

    @classmethod
    def from_pairs(cls, pairs, leading: complex = 1.0) -> Factorization:
        """Build a user-supplied factorization, rejecting near-coincident roots."""
        fact = cls(tuple(pairs), leading)
        _separated(fact.pairs, DEFAULT_CLUSTER_TOL,
                   "roots closer than the clustering tolerance must be merged")
        return fact


def coefficients_match(p: Poly, q: Poly) -> bool:
    """Per-coefficient comparison; the absolute floor is scaled by max |coeff|."""
    floor = COEFF_ABS_TOL * (1.0 + max(p.max_abs(), q.max_abs()))
    return all(_near(x, y, COEFF_REL_TOL * max(abs(x), abs(y)) + floor)
               for x, y in zip_longest(p.coeffs, q.coeffs, fillvalue=0j))


def _start_points(monic: tuple[complex, ...]) -> list[complex]:
    # Bini's Newton-polygon start: the upper convex hull of (k, log|a_k|)
    # has one edge per group of roots of like modulus; an edge from k0 to k1
    # puts k1 - k0 points on the circle of radius (|a_k0|/|a_k1|)^(1/(k1-k0)).
    # Zero coefficients have no logarithm and stay off the hull; the t
    # lowest ones are t exact zero roots, which start (and stay) at 0.
    n = len(monic) - 1
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(monic):
        if c == 0:
            continue
        y = math.log(abs(c))
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            if (k1 - k0) * (y - y0) < (k - k0) * (y1 - y0):
                break  # hull[-1] lies strictly above the chord
            hull.pop()
        hull.append((k, y))
    zs = [0j] * hull[0][0]
    for (k0, y0), (k1, y1) in zip(hull, hull[1:]):
        d = k1 - k0
        radius = math.exp((y0 - y1) / d)
        for j in range(d):
            # sigma = 0.7 keeps the starts off conjugate symmetry
            zs.append(cmath.rect(radius, 2.0 * math.pi * (j / d + k0 / n) + 0.7))
    return zs


def _aberth(monic: tuple[complex, ...], deriv: Poly) -> list[complex]:
    n = len(monic) - 1
    if n == 1:
        return [-monic[0]]
    zs = _start_points(monic)
    # one Horner pass: P with a running bound on its own rounding error, and
    # P' from 0j as Poly.__call__ runs it, each over n reversed coefficients
    top, steps = monic[-1], tuple(zip(monic[-2::-1], deriv.coeffs[::-1],
                                      strict=True))
    # a root on root is never moved, so it stays on root: later sweeps skip it
    live = list(range(n))
    stalled = 0
    for _ in range(_MAX_SWEEPS):
        max_step = 0.0
        moving = []
        for i in live:
            z = zs[i]
            p, bound, az, dp = top, abs(top), abs(z), 0j
            for c, dc in steps:
                p = p * z + c
                bound = bound * az + abs(p)
                dp = dp * z + dc
            if abs(p) <= 4.0 * (bound * _EPS):
                continue
            moving.append(i)
            if dp == 0:
                zs[i] += (1e-6 + 1e-6j) * (1.0 + az)
                max_step = math.inf
                continue
            w = p / dp
            s = 0j
            try:
                for zj in zs[:i]:
                    s += 1.0 / (z - zj)
                for zj in zs[i + 1:]:
                    s += 1.0 / (z - zj)
            except ZeroDivisionError:  # exactly when z - zj == 0: nudge it
                s, nudge = 0j, complex(1e-12 * (1.0 + az), 0.0)
                for zj in zs[:i] + zs[i + 1:]:
                    s += 1.0 / ((z - zj) or nudge)
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            zs[i] = z = z - step
            rel_step = abs(step) / (1.0 + abs(z))
            if rel_step > max_step:
                max_step = rel_step
        live = moving
        if not live:
            return zs
        if max_step <= 8.0 * _EPS:
            stalled += 1
            if stalled >= 3:
                return zs  # rounding floor reached; certification decides
        else:
            stalled = 0
    raise NonConvergence(
        f"root iteration missed its residual target within {_MAX_SWEEPS} sweeps")


def _single_linkage(points: list[complex], tol: float) -> list[list[complex]]:
    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if _near(points[i], points[j], tol):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[complex]] = {}
    for i, p in enumerate(points):
        groups.setdefault(find(i), []).append(p)
    return list(groups.values())


def _refined(derivs: list[Poly], centroid: complex, mult: int,
             cut: float) -> complex:
    # A cluster of size m sits on a simple, well-conditioned root of the
    # (m-1)-th derivative, which Newton recovers at full precision even when
    # the roots of the polynomial itself are smeared by rounding.  derivs[k]
    # is the k-th derivative of the monic input, extended here on demand.
    while len(derivs) <= mult:
        derivs.append(derivs[-1].derivative())
    # q and q' in one Horner pass from 0j; q's constant term comes last
    qrev, dqrev = derivs[mult - 1].coeffs[::-1], derivs[mult].coeffs[::-1]
    z = centroid
    for _ in range(24):
        v = denom = 0j
        for c, dc in zip(qrev, dqrev):
            v = v * z + c
            denom = denom * z + dc
        v = v * z + qrev[-1]
        if denom == 0:
            break
        step = v / denom
        z -= step
        if abs(step) <= 4.0 * _EPS * (1.0 + abs(z)):
            break
    if not _near(z, centroid, 10.0 * cut + 1e-12):
        return centroid  # refinement wandered off; keep the plain centroid
    return z


def _symmetrized(pairs: list[tuple[complex, int]], cut: float,
                 snap_real: bool) -> list[tuple[complex, int]]:
    # Only called for real-coefficient input, whose true root set is closed
    # under conjugation: snap rounding dust off the real axis (and, with
    # snap_real, off the imaginary axis), then replace each near-conjugate
    # pair by an exact one.
    zs = []
    for z, _ in pairs:
        re, im = z.real, z.imag
        s = 1.0 + abs(z)
        if abs(im) <= 1e-10 * s:
            im = 0.0
        if snap_real and abs(re) <= 1e-10 * s:
            re = 0.0
        zs.append(complex(re, im))
    ms = [m for _, m in pairs]
    bounds = [None if z.imag == 0.0 else max(cut, 1e-9) * (1.0 + abs(z))
              for z in zs]
    out: list[tuple[complex, int]] = []
    for i, j in _conjugate_pairs(zs, ms, bounds):
        if j is None:
            out.append((zs[i], ms[i]))
        else:
            w = 0.5 * (zs[i] + zs[j].conjugate())
            out.append((w, ms[i]))
            out.append((w.conjugate(), ms[i]))
    return out


def find_roots(p: Poly) -> Factorization:
    """Factor ``p`` into (root, multiplicity) pairs with a certified expansion.

    Roots of the monic normalization are found by Ehrlich-Aberth sweeps and
    grouped by single-linkage clustering.  The cuts are a fixed schedule,
    1e-2 down to DEFAULT_CLUSTER_TOL by powers of ten, tried from coarse to
    fine, and the first grouping whose re-expanded product matches the input
    within the certification tolerance wins.  Trying coarse cuts first makes
    the multiplicity assignment a checked decision rather than a guess: a
    cluster of simple roots smeared around a multiple root by rounding
    (radius grows like eps**(1/m)) gets merged, while genuinely distinct
    roots survive because merging them breaks the reconstruction.

    Raises NonConvergence when the iteration stalls short of its residual
    target, its arithmetic leaves the double range, or no grouping
    certifies; ValueError only for a constant input.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    try:
        return _find_roots(p)
    except (OverflowError, ValueError) as exc:
        raise NonConvergence(f"root finding overflows: {exc}") from exc


def _find_roots(p: Poly) -> Factorization:
    lead = p.coeffs[-1]
    monic = tuple(c / lead for c in p.coeffs)
    derivs = [Poly(monic)]
    derivs.append(derivs[0].derivative())
    roots = _aberth(monic, derivs[1])
    real_input = all(c.imag == 0.0 for c in p.coeffs)
    for cut in reversed(_CUTS):
        clusters = _single_linkage(roots, cut)
        pairs = []
        for group in clusters:
            centroid = sum(group) / len(group)
            pairs.append((_refined(derivs, centroid, len(group), cut), len(group)))
        candidates = [pairs]
        if real_input:
            # a tiny real part snapped to 0 can miss where one kept certifies
            candidates = (_symmetrized(pairs, cut, snap) for snap in (True, False))
        for cand in candidates:
            if real_input and set(cand) != {(z.conjugate(), m) for z, m in cand}:
                continue  # a real polynomial's roots are conjugate-closed
            try:
                fact = Factorization(tuple(cand), lead)
            except ValueError:
                continue
            if coefficients_match(fact.expand(), p):
                return fact
    raise NonConvergence("no root clustering reproduces the input coefficients")
