"""Worked end-to-end examples for the expode solver.

Each case compiles an equation string, factors the characteristic
polynomial, builds the homogeneous basis and a particular solution,
and back-substitutes to measure residuals.  Output is deterministic.

Run from the repo root after installing the package:

    python3 scripts/solve_examples.py
"""

import math

from expode import (
    NotConjugateClosed,
    format_constant,
    render,
    render_poly,
    solve_equation,
    verify_solution,
    wronskian_determinant,
)

CASES = [
    "y'' + 2y' + y = x*exp(-x)",
    "y'' + 4y = x",
    "y''' - y'' + y' - y = 0",
    "y'' - 2y' + 2y = exp(x)*sin(x)",
]

IVP_CASE = ("y'' + y = 0", "y(0)=1, y'(0)=0")


def fmt(f):
    # trig form when the terms pair up, raw complex exponentials otherwise
    try:
        return render(f, realify=True)
    except NotConjugateClosed:
        return render(f)


def show_case(text):
    sol = solve_equation(text, real=True)
    op, rhs, part = sol.op, sol.rhs, sol.particular

    print(f"equation        {text}")
    print(f"char poly       {render_poly(op.char_poly(), 'r')}")
    roots = ", ".join(f"{format_constant(r)} (m={m})"
                      for r, m in sol.factored.pairs)
    print(f"roots           {roots}")
    for name, b in zip(sol.homogeneous.constants, sol.basis):
        print(f"  basis {name}      {fmt(b)}")
    # row-normalized Wronskian at 0, certifies independence
    print(f"wronskian(0)    {wronskian_determinant(sol.basis):.3e}")
    if not rhs.is_zero:
        print(f"particular      {fmt(part)}")
    rep = verify_solution(op, rhs, part)
    print(f"residuals       symbolic {rep.symbolic:.3e}   "
          f"pointwise {rep.pointwise:.3e}   ok={rep.within()}")
    print()


def show_ivp(text, conditions):
    sol = solve_equation(text, real=True, ivp=conditions)
    fitted = sol.fitted
    print(f"equation        {text}")
    print(f"conditions      {conditions}")
    print(f"fitted          {fmt(fitted)}")
    xs = [-math.pi + k * math.pi / 4 for k in range(9)]
    err = max(abs(fitted(x) - math.cos(x)) for x in xs)
    print(f"max |y - cos| on 9-point grid: {err:.3e}")
    rep = verify_solution(sol.op, sol.rhs, fitted)
    print(f"residuals       symbolic {rep.symbolic:.3e}   "
          f"pointwise {rep.pointwise:.3e}   ok={rep.within()}")
    print()


def main():
    for text in CASES:
        show_case(text)
    show_ivp(*IVP_CASE)


if __name__ == "__main__":
    main()
