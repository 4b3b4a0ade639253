"""Constructive solver for L[y] = f over exponential polynomials.

The homogeneous basis comes straight from the factored operator: each root r
of multiplicity m contributes x^l * e^(r*x) for l = 0..m-1.  A particular
solution is built one forcing term e^(lam*x) q at a time.  The roots within
EXP_MERGE_TOL of lam count together as lam, m being their total multiplicity
(m = 0 off resonance): the exponential shift gives P(lam + D) = D^m Q(D), Q(t)
being the product of (t + lam - r)^mult over the other roots r, so
e^(lam*x) I_m[Q(D)^-1 q] solves it, I_m integrating m times with every
constant dropped.  No power below x^m appears, so y has no kernel part.
"""

from __future__ import annotations

__all__ = [
    "AnsatzForm",
    "FullSolution",
    "HomogeneousSolution",
    "SingularSystem",
    "SolveReport",
    "VerifyReport",
    "ansatz_form",
    "fit_initial_conditions",
    "homogeneous_solution",
    "particular_solution",
    "real_homogeneous_solution",
    "solve_equation",
    "verify_solution",
    "wronskian_determinant",
]

import cmath
import functools
import math
import re

from .exppoly import (EXP_MERGE_TOL, ExpPoly, NotConjugateClosed, _derived,
                      _kept_coeffs, _sampled)
from .cpoly import (NonConvergence, Record, _add, _checked, _conjugate_pairs,
                    _neg, coefficients_match, monomial)
from .operators import FactoredOp, LinOp, factor_op
from .parsing import compile_equation, parse_constant, parse_initial_conditions


DEFAULT_VERIFY_POINTS = 50
MAX_VERIFY_POINTS = 10_000  # the grid is held in lists


class SingularSystem(Exception):
    """The initial-condition system has no reliable solution."""


class RootsError(ValueError):
    """The `roots` text does not describe the operator.  The message starts
    with the argument's name, so the command line can name its flag."""


class HomogeneousSolution(Record):
    """Basis of the kernel of L plus display labels for the free constants."""

    def __init__(self, basis: tuple[ExpPoly, ...], constants: tuple[str, ...]):
        self.__dict__.update(basis=basis, constants=constants)


class FullSolution(Record):
    def __init__(self, homogeneous: HomogeneousSolution, particular: ExpPoly):
        self.__dict__.update(homogeneous=homogeneous, particular=particular)


class AnsatzForm(Record):
    """Predicted shape of the particular solution for f = e^(b*x) * x^j.

    resonance_order is the total multiplicity of the roots within
    EXP_MERGE_TOL of b (zero when none).  The solution's polynomial part has
    degree j + resonance_order exactly, with all powers below resonance_order
    absent, so it reads e^(b*x) * x^resonance_order * S(x), deg S = j.
    """

    def __init__(self, exponent: complex, resonance_order: int, degree: int):
        self.__dict__.update(exponent=exponent, resonance_order=resonance_order,
                             degree=degree)


def homogeneous_solution(factored: FactoredOp) -> HomogeneousSolution:
    basis: list[ExpPoly] = []
    for r, m in factored.pairs:
        for power in range(m):
            basis.append(ExpPoly.term(r, monomial(power)))
    constants = tuple(f"C{k + 1}" for k in range(len(basis)))
    return HomogeneousSolution(tuple(basis), constants)


def real_homogeneous_solution(factored: FactoredOp) -> HomogeneousSolution:
    """Kernel basis with conjugate root pairs traded for cos/sin elements.

    Raises NotConjugateClosed when the root multiset is not closed under
    conjugation (the operator then has no real form).
    """
    rs = [r for r, _ in factored.pairs]
    bounds = [None if abs(r.imag) <= EXP_MERGE_TOL else EXP_MERGE_TOL
              for r in rs]
    basis: list[ExpPoly] = []
    for i, j in _conjugate_pairs(rs, [m for _, m in factored.pairs], bounds):
        r, m = factored.pairs[i]
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


def particular_solution(factored: FactoredOp, rhs: ExpPoly) -> ExpPoly:
    """One concrete solution of L[y] = rhs, free of homogeneous admixtures.

    Each rhs term keeps its exponent exactly.  Q(D) w = q is solved by
    back-substitution on the coefficients, one factor (D + lam - r) at a
    time, so a forcing exponent near a root keeps full relative accuracy.
    Raises NonConvergence when that arithmetic leaves the double range.
    """
    try:
        return rhs._inverse(factored.factors)
    except (ValueError, OverflowError) as exc:
        raise NonConvergence("particular solution overflows") from exc


def ansatz_form(factored: FactoredOp, b: complex, j: int) -> AnsatzForm:
    if j < 0:
        raise ValueError("polynomial degree must be nonnegative")
    resonance = factored.multiplicity(complex(b))
    return AnsatzForm(complex(b), resonance, int(j) + resonance)


def _derivative_table(fs, x0: complex, count: int) -> list[list[complex]]:
    """table[d][j] = fs[j]^(d)(x0) for d < count, count >= 1.  Each level's
    terms come from the last through ExpPoly.derivative's kernel, on
    coefficient tuples, and are evaluated at x0 by ExpPoly.__call__'s, which
    share one row e^(lam*x0) per exponent."""
    levels = [[(lam, p.coeffs) for lam, p in f.terms] for f in fs]
    rows: dict = {}
    table = [[_sampled(terms, (x0,), rows)[0] for terms in levels]]
    for _ in range(count - 1):
        levels = [_kept_coeffs([(lam, _checked(_derived(lam, cs)))
                                for lam, cs in terms]) for terms in levels]
        table.append([_sampled(terms, (x0,), rows)[0] for terms in levels])
    return table


def _eliminate(matrix, rhs) -> tuple[complex, list[complex]]:
    """Determinant and solution of matrix @ x = rhs (Gauss-Jordan, partial
    pivoting); raises SingularSystem on an exactly zero pivot."""
    a, det = [list(row) + [b] for row, b in zip(matrix, rhs)], 1 + 0j
    for k in range(len(a)):
        p = max(range(k, len(a)), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0:
            raise SingularSystem("singular matrix")
        a[k], a[p] = a[p], a[k]
        det *= a[k][k] if p == k else -a[k][k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(len(a)):
            if i != k:
                a[i] = [u - a[i][k] * v for u, v in zip(a[i], a[k])]
    return det, [row[-1] for row in a]


def fit_initial_conditions(solution: FullSolution,
                           conditions) -> ExpPoly:
    """Pin the free constants against values y^(d)(x0) = v.

    Needs exactly n conditions (n = basis size), all at one point, derivative
    orders 0..n-1 each appearing once.  Raises SingularSystem when the linear
    solve fails or leaves a residual above 1e-9, and NonConvergence when the
    values at the condition point overflow or the fit is not finite.
    """
    basis = solution.homogeneous.basis
    n = len(basis)
    conds = [(int(d), complex(x0), complex(v)) for d, x0, v in conditions]
    if len(conds) != n:
        raise ValueError(f"need exactly {n} initial conditions, got {len(conds)}")
    x0 = conds[0][1]
    if any(c[1] != x0 for c in conds):
        raise ValueError("all initial conditions must share one point")
    if sorted(c[0] for c in conds) != list(range(n)):
        raise ValueError("derivative orders must be 0..n-1, each exactly once")

    try:
        table = _derivative_table(tuple(basis) + (solution.particular,), x0, n)
        matrix = [table[d][:n] for d, _, _ in conds]
        target = [v - table[d][n] for d, _, v in conds]
        _, coeff = _eliminate(matrix, target)
        residual = max(abs(sum(a * c for a, c in zip(row, coeff)) - t)
                       for row, t in zip(matrix, target))
        bound = 1e-9 * (1.0 + max(abs(t) for t in target))
    except (ValueError, OverflowError) as exc:  # a value left the double range
        raise NonConvergence(
            f"initial-condition system overflows at x = {x0.real:g}") from exc
    if not (all(map(cmath.isfinite, coeff)) and math.isfinite(residual)):
        raise NonConvergence(
            f"initial-condition fit is not finite at x = {x0.real:g}")
    if not residual <= bound:
        raise SingularSystem(f"initial-condition solve left residual {residual:.3e}")

    fitted = solution.particular
    for j in range(n):
        fitted = fitted + basis[j].scale(coeff[j])
    return fitted


class VerifyReport(Record):
    """Back-substitution residuals, both normalized against the forcing term."""

    def __init__(self, symbolic: float, pointwise: float):
        self.__dict__.update(symbolic=symbolic, pointwise=pointwise)

    def within(self, tol: float = 1e-8) -> bool:
        return self.symbolic <= tol and self.pointwise <= tol


@functools.lru_cache(maxsize=16)
def _grid(points: int) -> tuple[float, ...]:
    """The verifier's uniform grid on [-1, 1]."""
    return tuple(-1.0 + 2.0 * k / (points - 1) for k in range(points))


def verify_solution(op: LinOp | FactoredOp, f: ExpPoly, y: ExpPoly,
                    points: int = DEFAULT_VERIFY_POINTS) -> VerifyReport:
    """Apply the operator to y and compare against f, twice.

    The symbolic residual is the largest coefficient of L[y] - f; the
    pointwise residual samples the same difference on a uniform grid of
    points over [-1, 1].  Both are divided by 1 + |f|, so for a small f
    (f = 0 for a basis element) 'verified' bounds an absolute error,
    whatever the size of y.
    L[y] - f is the ExpPoly constructor's result, formed on coefficient
    tuples: L[y] by LinOp.apply's arithmetic, minus f term by term when the
    exponents agree (the twins the constructor would merge), and L[y] itself
    when f = 0, whose grid is skipped: the scale is exactly 1.0, and
    dividing by it changes no bit.  The grid runs term by term through
    ExpPoly.values' kernel, with the bits of a point-by-point evaluation;
    each row e^(lam*x) serves both sides.  Raises NonConvergence when
    L[y] - f or a sampled value overflows, naming the first x that does.
    """
    if points < 2:
        raise ValueError("need at least 2 sample points")
    if points > MAX_VERIFY_POINTS:
        raise ValueError(f"need at most {MAX_VERIFY_POINTS} sample points")
    fs = [(lam, p.coeffs) for lam, p in f.terms]
    try:
        ly = (op._applied(y) if isinstance(op, LinOp)
              else [(lam, p.coeffs) for lam, p in op.apply(y).terms])
        # ExpPoly(ly + (-f).terms), term by term when the exponents agree
        neg = _kept_coeffs([(lam, _checked(_neg(cs))) for lam, cs in fs])
        if not neg or not ly:
            residual = ly or neg
        elif [lam for lam, _ in ly] == [lam for lam, _ in neg]:
            residual = _kept_coeffs([(lam, _checked(_add(a, b)))
                                     for (lam, a), (_, b) in zip(ly, neg)])
        else:
            residual = [(lam, p.coeffs) for lam, p in ExpPoly(ly + neg).terms]
    except (ValueError, OverflowError) as exc:  # a value left the double range
        raise NonConvergence("residual L[y] - f overflows") from exc
    symbolic = (max((abs(c) for _, cs in residual for c in cs), default=0.0)
                / (1.0 + f.max_coeff()))
    xs = _grid(points)
    rows: dict = {}  # e^(lam*x) over the grid, shared by the two sides
    try:
        errs = map(abs, _sampled(residual, xs, rows))
        if fs:  # else 1 + |f(x)| is 1.0, and dividing by it is exact
            errs = [e / (1.0 + abs(v))
                    for e, v in zip(errs, _sampled(fs, xs, rows))]
        worst = max(0.0, *errs)  # 0.0 first: a NaN error is passed over
    except OverflowError:
        # the grid ran term by term; walk it point by point to name the
        # first x that overflows
        for x in xs:
            try:
                r, v = (_sampled(g, (x,), {})[0] for g in (residual, fs))
                abs(r) / (1.0 + abs(v))
            except OverflowError as exc:
                raise NonConvergence(
                    f"pointwise residual overflows at x = {x:g}") from exc
        raise
    return VerifyReport(symbolic, worst)


def wronskian_determinant(basis) -> float:
    """|det| of the derivative matrix of the basis at 0, rows normalized.

    A numerically nonzero value certifies linear independence of the basis.
    """
    n = len(basis)
    if n == 0:
        raise ValueError("basis must be nonempty")
    rows = []
    for row in _derivative_table(basis, 0.0, n):
        top = max(abs(v) for v in row) or 1.0  # a zero row stays singular
        rows.append([v / top for v in row])
    try:
        det, _ = _eliminate(rows, [0j] * n)
    except SingularSystem:
        return 0.0
    return abs(det)


class SolveReport(Record):
    """One solve's results: homogeneous is the complex basis, which the fit
    uses; basis is the real one when asked for; residuals the worst check."""

    def __init__(self, op: LinOp, rhs: ExpPoly, factored: FactoredOp,
                 homogeneous: HomogeneousSolution, basis: tuple[ExpPoly, ...],
                 particular: ExpPoly, fitted: ExpPoly | None,
                 residuals: VerifyReport):
        self.__dict__.update(op=op, rhs=rhs, factored=factored,
                             homogeneous=homogeneous, basis=basis,
                             particular=particular, fitted=fitted,
                             residuals=residuals)


def _factored_from_user(op: LinOp, text: str) -> FactoredOp:
    """Validate user-supplied 'root:mult, ...' against the operator."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        root_text, sep, mult_text = chunk.rpartition(":")
        if not sep or not root_text.strip():
            raise RootsError(
                f"roots entries look like 'root:multiplicity', got {chunk!r}")
        root = parse_constant(root_text.strip())
        try:  # ASCII digits, as a root's; int() also reads '0_2' and '٢'
            if not re.fullmatch(r"\s*[+-]?[0-9]+", mult_text):
                raise ValueError
            mult = int(mult_text)
        except ValueError:
            raise ValueError(f"bad multiplicity in {chunk!r}") from None
        pairs.append((root, mult))
    factored = FactoredOp(tuple(pairs))
    if factored.order != op.order:
        raise RootsError("roots multiplicities must sum to the operator order")
    try:
        if not coefficients_match(factored.char_poly(), op.char_poly()):
            raise RootsError(
                "roots does not reproduce the characteristic polynomial")
    except OverflowError as exc:  # a coefficient's modulus is past the range
        raise NonConvergence(f"roots check overflows: {exc}") from exc
    return factored


def solve_equation(equation: str, real: bool = False, ivp: str | None = None,
                   roots: str | None = None,
                   points: int = DEFAULT_VERIFY_POINTS) -> SolveReport:
    """Solve an equation given as text and verify the answer.  The stages
    run in this order, so the first failure raises: compile; check `roots`
    or factor; basis; particular; verify them; parse `ivp`, fit, verify."""
    op, rhs = compile_equation(equation)
    factored = (factor_op(op) if roots is None
                else _factored_from_user(op, roots))
    hom = homogeneous_solution(factored)
    basis = real_homogeneous_solution(factored).basis if real else hom.basis
    part = particular_solution(factored, rhs)
    reports = [verify_solution(op, ExpPoly.zero(), b, points=points)
               for b in basis]
    reports.append(verify_solution(op, rhs, part, points=points))
    fitted = None
    if ivp is not None:
        conditions = parse_initial_conditions(ivp)
        fitted = fit_initial_conditions(FullSolution(hom, part), conditions)
        reports.append(verify_solution(op, rhs, fitted, points=points))
    worst = VerifyReport(max(r.symbolic for r in reports),
                         max(r.pointwise for r in reports))
    return SolveReport(op, rhs, factored, hom, basis, part, fitted, worst)
