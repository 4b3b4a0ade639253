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

from .cpoly import (DEFAULT_CLUSTER_TOL, Factorization, Poly, Record,
                    _root_pairs, _separated, find_roots)
from .exppoly import EXP_MERGE_TOL, ExpPoly, coeff_distance


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

    def apply(self, y: ExpPoly) -> ExpPoly:
        """L[e^(lam*x) p] = e^(lam*x) sum_k P^(k)(lam)/k! p^(k), term by term:
        synthetic divisions of P by (z - lam) leave the Taylor coefficients
        as remainders, and the sum over k is Horner's rule in d/dx."""
        char, out = self.char_poly().coeffs, []
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
        return ExpPoly._trusted(out)


class FactoredOp(Record):
    """Product of (d/dx - root)^mult groups, applied left to right.

    Unlike Factorization, the given factor order is preserved: the result of
    applying the operator does not depend on it, but tests exercise exactly
    that, so the order must survive construction.
    """

    def __init__(self, factors: tuple[tuple[complex, int], ...]):
        pairs = _root_pairs(factors)
        if not pairs:
            raise ValueError("operator order must be >= 1")
        _separated(pairs, EXP_MERGE_TOL,
                   "factor roots must be distinct beyond the merge tolerance")
        object.__setattr__(self, "factors", pairs)

    @property
    def order(self) -> int:
        return sum(m for _, m in self.factors)

    def multiplicity(self, lam: complex) -> int:
        """Total multiplicity of the roots within EXP_MERGE_TOL of lam, 0 when
        none: they count together as lam, as in the particular solution."""
        return sum(m for r, m in self.factors if abs(lam - r) <= EXP_MERGE_TOL)

    def char_poly(self) -> Poly:
        return Factorization(self.factors).expand()

    def to_linop(self) -> LinOp:
        return LinOp.from_char_poly(self.char_poly())

    def apply(self, y: ExpPoly) -> ExpPoly:
        for r, m in self.factors:
            for _ in range(m):
                y = y.derivative() - y.scale(r)
        return y


def factor_op(op: LinOp, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> FactoredOp:
    """Factor an operator through the roots of its characteristic polynomial."""
    fact = find_roots(op.char_poly(), cluster_tol)
    return FactoredOp(fact.pairs)


def compose_check(first: FactoredOp, second: FactoredOp, y: ExpPoly,
                  tol: float = 1e-9) -> bool:
    """Do two orderings of the same factors act identically on y?

    Raises ValueError when the two operators are not permutations of the same
    factor multiset; otherwise compares the applications termwise.
    """
    if (Factorization(first.factors).pairs
            != Factorization(second.factors).pairs):
        raise ValueError("operators must hold the same factors")
    a = first.apply(y)
    b = second.apply(y)
    bound = tol * (1.0 + max(a.max_coeff(), b.max_coeff()))
    return coeff_distance(a, b) <= bound
