"""The certified edges, one axis at a time.

Each axis holds the outermost case that passes and, as a strict xfail, the
next case out.  A change that pulls an edge in fails the first case; one
that pushes it out turns the second into an XPASS, which fails too, and
that change moves both cases outward.
"""

import json
from fractions import Fraction

import pytest

from expode import NonConvergence, Poly, find_roots
from expode.cli import main


def _beyond(value, raises=AssertionError):
    """The next case out: a strict xfail that must fail by raising raises."""
    mark = pytest.mark.xfail(strict=True, raises=raises)
    return pytest.param(value, marks=mark)


def _from_roots(roots) -> list[Fraction]:
    """Coefficients of the product of (r - root), lowest power first."""
    coeffs = [Fraction(1)]
    for root in roots:
        coeffs = [Fraction(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= root * coeffs[k + 1]
    return coeffs


def _equation(roots) -> str:
    """The homogeneous equation whose characteristic polynomial has these
    roots; every coefficient here is exact in a double."""
    coeffs = _from_roots(roots)
    return " + ".join(f"({float(c)!r})*y^({k})"
                      for k, c in enumerate(coeffs) if c) + " = 0"


def _solve(capsys, equation: str) -> tuple[int, dict]:
    code = main(["solve", equation, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if code in (0, 1) else {}


@pytest.mark.parametrize("n", [29, _beyond(30)])
def test_roots_of_unity(capsys, n):
    # y^(n) - y = 0; n = 30 certified until the root finder tried only
    # conjugate-closed candidates for real input
    code, doc = _solve(capsys, f"y^({n}) - y = 0")
    assert code == 0
    assert doc["multiplicities"] == [1] * n


@pytest.mark.parametrize("k", [13, _beyond(14, raises=NonConvergence)])
def test_consecutive_integer_roots_certify(k):
    coeffs = _from_roots(range(1, k + 1))
    fac = find_roots(Poly(tuple(float(c) for c in coeffs)))
    roots = sorted(r.real for r, _ in fac.pairs)
    assert [m for _, m in fac.pairs] == [1] * k
    assert [round(r) for r in roots] == list(range(1, k + 1))


@pytest.mark.parametrize("k", [6, _beyond(7)])
def test_consecutive_integer_roots_verify(capsys, k):
    # the basis e^(kx) is verified against a unit scale (ROADMAP item 1)
    code, _ = _solve(capsys, _equation(range(1, k + 1)))
    assert code == 0


@pytest.mark.parametrize("m", [6, _beyond(7)])
def test_multiplicity(capsys, m):
    # (r - 1.5)^m (r + 2)
    code, doc = _solve(capsys, _equation([Fraction(3, 2)] * m + [-2]))
    assert code == 0
    assert sorted(doc["multiplicities"]) == [1, m]


@pytest.mark.parametrize("j", [11, _beyond(12)])
def test_forcing_degree(capsys, j):
    # cleaning drops the particular solution's small high-degree
    # coefficients from j = 12 (ROADMAP item 2)
    code, _ = _solve(capsys, f"y' - y = x^{j}*exp(0.5*x)")
    assert code == 0
