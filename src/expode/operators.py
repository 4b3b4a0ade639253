"""Constant-coefficient linear differential operators.

A LinOp is the monic operator y -> y^(n) + p1*y^(n-1) + ... + pn*y; its
characteristic polynomial is r^n + p1*r^(n-1) + ... + pn.  A FactoredOp
is the same operator written as a product of first-order factors
(d/dx - r)^m, one group per distinct root.  The two representations are
interchangeable through the characteristic polynomial, and the factor
groups commute, which the solver leans on.
"""

from __future__ import annotations

import cmath

from .cpoly import (Factorization, Poly, Record, _checked, _near, _root_pairs,
                    _separated, find_roots)
from .exppoly import EXP_MERGE_TOL, ExpPoly, _kept_coeffs, coeff_distance


class LinOp(Record):
    """Coefficients p1..pn of the monic operator, highest derivative first."""

    def __init__(self, coeffs: tuple[complex, ...]):
        cs = tuple(complex(c) for c in coeffs)
        if not cs:
            raise ValueError("operator order must be >= 1")
        if any(not cmath.isfinite(c) for c in cs):
            raise ValueError("operator coefficients must be finite")
        self.__dict__.update(
            coeffs=cs, _char=Poly(tuple(reversed(cs)) + (1.0 + 0j,)))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def char_poly(self) -> Poly:
        return self._char

    @classmethod
    def from_char_poly(cls, p: Poly) -> LinOp:
        if p.degree < 1:
            raise ValueError("characteristic polynomial must have degree >= 1")
        lead = p.coeffs[-1]
        normalized = tuple(c / lead for c in p.coeffs[:-1])
        return cls(tuple(reversed(normalized)))

    def _applied(self, y: ExpPoly) -> list[tuple[complex, tuple]]:
        """L[y] as cleaned (exponent, coefficient tuple) pairs: every term
        through _taylor_applied and checked, then every term cleaned."""
        char = self._char.coeffs
        return _kept_coeffs([(lam, _checked(_taylor_applied(char, lam, p.coeffs)))
                             for lam, p in y.terms])

    def apply(self, y: ExpPoly) -> ExpPoly:
        """L[e^(lam*x) p] = e^(lam*x) P(lam + D) p, term by term: the
        constructor keeps _applied's pairs as they are."""
        return ExpPoly(self._applied(y))


def _taylor_applied(char: tuple, lam: complex, cs: tuple) -> tuple:
    """The coefficients of P(lam + D) p = sum_k P^(k)(lam)/k! p^(k), from
    P's (char) and p's (cs): synthetic divisions of P by (z - lam) leave the
    Taylor coefficients as remainders, and the sum over k is Horner's rule
    in d/dx.  The result is not yet checked."""
    b, taylor = list(char), []
    for _ in range(min(len(cs), len(b))):
        for k in range(len(b) - 2, -1, -1):
            b[k] += lam * b[k + 1]
        taylor.append(b.pop(0))
    acc = [0j] * len(cs)
    for t in reversed(taylor):
        acc = [t * c + (i + 1) * a for i, (c, a)
               in enumerate(zip(cs, acc[1:] + [0j]))]
    return tuple(acc)


class FactoredOp(Record):
    """Product of (d/dx - root)^mult groups, applied left to right.

    ``factors`` keeps the given order, which tests permute (the result of
    applying the operator does not depend on it); ``pairs`` holds the same
    factors in Factorization's (re, im) order, which the basis and the
    report read.
    """

    def __init__(self, factors: tuple[tuple[complex, int], ...]):
        pairs = _root_pairs(factors)
        if not pairs:
            raise ValueError("operator order must be >= 1")
        _separated(pairs, EXP_MERGE_TOL,
                   "factor roots must be distinct beyond the merge tolerance")
        self.__dict__.update(factors=pairs, pairs=Factorization(pairs).pairs)

    @property
    def order(self) -> int:
        return sum(m for _, m in self.factors)

    def multiplicity(self, lam: complex) -> int:
        """Total multiplicity of the roots within EXP_MERGE_TOL of lam, 0 when
        none: they count together as lam, as in the particular solution."""
        return sum(m for r, m in self.factors if _near(lam, r, EXP_MERGE_TOL))

    def char_poly(self) -> Poly:
        return Factorization(self.pairs).expand()

    def to_linop(self) -> LinOp:
        return LinOp.from_char_poly(self.char_poly())

    def apply(self, y: ExpPoly) -> ExpPoly:
        for r, m in self.factors:
            for _ in range(m):
                y = y.derivative() - y.scale(r)
        return y


def factor_op(op: LinOp) -> FactoredOp:
    """Factor an operator through the roots of its characteristic polynomial."""
    return FactoredOp(find_roots(op.char_poly()).pairs)


def compose_check(first: FactoredOp, second: FactoredOp, y: ExpPoly) -> bool:
    """Do two orderings of the same factors act identically on y?

    Raises ValueError when the two operators are not permutations of the same
    factor multiset; otherwise compares the applications termwise.
    """
    if first.pairs != second.pairs:
        raise ValueError("operators must hold the same factors")
    a = first.apply(y)
    b = second.apply(y)
    bound = 1e-9 * (1.0 + max(a.max_coeff(), b.max_coeff()))
    return coeff_distance(a, b) <= bound
