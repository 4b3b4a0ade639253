"""Sweep a forcing exponent across a repeated characteristic root.

The operator is (d/dx - 1)^2 (d/dx + 2) and the forcing term is
f = exp(b*x) * x with b = 1 + delta.  Writing P for the characteristic
polynomial, the non-resonant solution's constant coefficient involves
P'(b)/P(b)^2, so with a root of multiplicity m = 2 and forcing degree
j = 1 the worst coefficient grows like delta^-(m+j) = delta^-3.  Once
|delta| falls under the exponent merge tolerance the solver switches to
the resonant branch: the polynomial degree jumps from j to j + m = 3
and the coefficients are O(1) again.

The table prints, per delta: the resonance order the ansatz predicts,
the degree of the exp(b*x) polynomial part, its largest coefficient,
and both back-substitution residuals.  A log-log slope fit over the
clean non-resonant rows recovers the exponent -3.  The rows just above
the merge tolerance show the expected cancellation blow-up; forcing
terms that are meant to be resonant should use the root exactly (or
within the merge tolerance) rather than a nearby value.

Run:  python3 scripts/resonance_sweep.py
"""

import math
import statistics

from expode import (
    EXP_MERGE_TOL,
    ExpPoly,
    FactoredOp,
    Poly,
    ansatz_form,
    particular_solution,
    verify_solution,
)

OP = FactoredOp(((1 + 0j, 2), (-2 + 0j, 1)))
J = 1  # forcing is x^J * exp(b*x)


def sweep_row(delta):
    b = 1.0 + delta
    f = ExpPoly.term(b, Poly((0j, 1 + 0j)))
    part = particular_solution(OP, f)
    af = ansatz_form(OP, b, J)
    # the solver merges exponents within EXP_MERGE_TOL of each other, so
    # read the polynomial attached to the nearest surviving exponent
    q = part.term_at(b)
    rep = verify_solution(OP.to_linop(), f, part)
    return af.resonance_order, q.degree, q.max_abs(), rep


def main():
    deltas = [10.0 ** -k for k in range(1, 13)] + [0.0]
    print(f"operator: (d-1)^2 (d+2), forcing exp((1+delta)*x)*x, "
          f"merge tol {EXP_MERGE_TOL:.0e}")
    print(f"{'delta':>10} {'res.ord':>8} {'deg':>4} "
          f"{'max|coeff|':>12} {'sym.resid':>10} {'pw.resid':>10}")
    rows = []
    for d in deltas:
        m, deg, mx, rep = sweep_row(d)
        rows.append((d, m, deg, mx, rep))
        print(f"{d:>10.0e} {m:>8} {deg:>4} {mx:>12.3e} "
              f"{rep.symbolic:>10.2e} {rep.pointwise:>10.2e}")

    # slope of log max|coeff| vs log delta over the clean non-resonant rows
    pts = [(d, mx) for d, m, _, mx, _ in rows if m == 0 and d >= 1e-6]
    slope = statistics.linear_regression(
        [math.log10(p[0]) for p in pts], [math.log10(p[1]) for p in pts]).slope
    print(f"\ncoefficient growth exponent over non-resonant rows: "
          f"{slope:+.3f} (m + j = 3 predicts -3)")


if __name__ == "__main__":
    main()
