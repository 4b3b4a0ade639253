"""Command line interface.

Two subcommands:

    expode solve "y'' - 2*y' + y = 0" [--real] [--ivp "y(0)=1, y'(0)=0"]
                                      [--roots "1:2"] [--json]
                                      [--verify-points N]
    expode verify "y' - y = exp(x)" "x*exp(x)" [--json] [--verify-points N]

Exit codes: 0 solved/verified, 1 verification failed, 2 bad input or usage,
3 numerical failure (root finding did not converge, singular fit).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cpoly import Factorization, NonConvergence
from .exppoly import NotConjugateClosed
from .parsing import (
    EquationError,
    ParseError,
    compile_equation,
    format_constant,
    parse_exppoly,
    render,
    render_poly,
)
from .solve import (RootsError, SingularSystem, VerifyReport, solve_equation,
                    verify_solution)

RESIDUAL_TOL = 1e-8


def _fnum(v: float) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # drop the sign of negative zero
    return format(v, ".15g")


def _fcomplex(z: complex) -> list[str]:
    return [_fnum(z.real), _fnum(z.imag)]


def _needs_parens(text: str) -> bool:
    return " + " in text or " - " in text or text.startswith("-")


def _c_times(name: str, body: str) -> str:
    # a basis element renders as one unsigned product, so it needs no parens
    return name if body == "1" else f"{name}*{body}"


def _verdict(worst: VerifyReport, doc: dict | None) -> int:
    """Decide "verified" from the largest residuals, print them and the
    status as the last keys of doc (--json) or, without one, as the last
    text lines, and return the exit code."""
    ok = worst.within(RESIDUAL_TOL)
    status = "verified" if ok else "unverified"
    sym, pw = worst.symbolic, worst.pointwise
    if doc is not None:
        doc.update(residual_symbolic=_fnum(sym), residual_pointwise=_fnum(pw),
                   status=status)
        print(json.dumps(doc, indent=2))
    else:
        print(f"residual (symbolic): {sym:.3e}")
        print(f"residual (pointwise): {pw:.3e}")
        print(f"status: {status}")
    return 0 if ok else 1


def cmd_solve(args: argparse.Namespace) -> int:
    res = solve_equation(args.equation, real=args.real, ivp=args.ivp,
                         roots=args.roots, points=args.verify_points)
    op, hom, part, fitted = res.op, res.homogeneous, res.particular, res.fitted
    pairs = Factorization(res.factored.factors).pairs

    basis_text = [render(b, realify=args.real) for b in res.basis]
    part_text = render(part, realify=args.real)
    fitted_text = None if fitted is None else render(fitted, realify=args.real)

    if args.json:
        return _verdict(res.residuals, {
            "equation": args.equation,
            "char_poly": [_fcomplex(c) for c in op.char_poly().coeffs],
            "roots": [_fcomplex(r) for r, _ in pairs],
            "multiplicities": [m for _, m in pairs],
            "homogeneous_basis": basis_text,
            "particular": part_text,
            "fitted": fitted_text,
        })

    combo = " + ".join(_c_times(name, text)
                       for name, text in zip(hom.constants, basis_text))
    if not part.is_zero:
        combo += " + " + (f"({part_text})" if _needs_parens(part_text)
                          else part_text)
    print(f"equation: {args.equation}")
    print(f"characteristic polynomial: {render_poly(op.char_poly(), 'r')}")
    print("roots:")
    for r, m in pairs:
        print(f"  {format_constant(r)}  (multiplicity {m})")
    print("homogeneous basis:")
    for text in basis_text:
        print(f"  {text}")
    print(f"particular solution: {part_text}")
    print(f"general solution: {combo}")
    if fitted_text is not None:
        print(f"fitted solution: {fitted_text}")
    return _verdict(res.residuals, None)


def cmd_verify(args: argparse.Namespace) -> int:
    op, rhs = compile_equation(args.equation)
    candidate = parse_exppoly(args.candidate)
    report = verify_solution(op, rhs, candidate, points=args.verify_points)
    if args.json:
        return _verdict(report, {"equation": args.equation,
                                 "candidate": args.candidate})
    print(f"equation: {args.equation}")
    print(f"candidate: {render(candidate)}")
    return _verdict(report, None)


class _ArgumentParser(argparse.ArgumentParser):
    """Reads an argument that starts with a single '-' and is not a known
    option as a value, so a candidate such as -exp(-x) needs no '--'."""

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="expode",
        description="Solve linear constant-coefficient ODEs in closed form.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an equation")
    ps.add_argument("equation", help="equation text, e.g. \"y'' + y = exp(x)\"")
    ps.add_argument("--real", action="store_true",
                    help="present the solution over cos/sin instead of "
                         "complex exponentials")
    ps.add_argument("--ivp", metavar="CONDS",
                    help="initial conditions, e.g. \"y(0)=1, y'(0)=0\"")
    ps.add_argument("--roots", metavar="ROOTS",
                    help="skip root finding; comma-separated root:multiplicity "
                         "pairs, e.g. \"1:2, -1:1\"")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="check a candidate solution")
    pv.add_argument("equation")
    pv.add_argument("candidate", help="expression to test, e.g. \"x*exp(x)\"")
    pv.set_defaults(func=cmd_verify)
    for p in (ps, pv):  # after its own arguments, as --help lists them
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--verify-points", type=int, default=50, metavar="N",
                       help="grid size for the pointwise residual check "
                            "(2 to 10000)")
    return parser


def _print_parse_error(exc: ParseError) -> None:
    print(f"error: {exc}", file=sys.stderr)
    if exc.source is not None and exc.pos is not None:
        print(f"  {exc.source}", file=sys.stderr)
        print("  " + " " * exc.pos + "^", file=sys.stderr)
    if exc.expected:
        print("  expected: " + ", ".join(exc.expected), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _print_parse_error(exc)
        return 2
    except RootsError as exc:  # the library names `roots`, the CLI --roots
        print(f"error: --{exc}", file=sys.stderr)
        return 2
    except (EquationError, NotConjugateClosed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
