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

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .cpoly import NonConvergence
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
from .solve import (DEFAULT_VERIFY_POINTS, MAX_VERIFY_POINTS, RootsError,
                    SingularSystem, VerifyReport, solve_equation,
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


def _verdict(worst: VerifyReport, report: dict | list[str]) -> int:
    """Decide "verified" from the largest residuals, add them and the status
    as the last keys of the report's JSON document (--json) or as its last
    text lines, write the report in one piece and return the exit code."""
    ok = worst.within(RESIDUAL_TOL)
    status = "verified" if ok else "unverified"
    sym, pw = worst.symbolic, worst.pointwise
    if isinstance(report, dict):
        import json
        report.update(residual_symbolic=_fnum(sym),
                      residual_pointwise=_fnum(pw), status=status)
        lines = [json.dumps(report, indent=2)]
    else:
        lines = report + [f"residual (symbolic): {sym:.3e}",
                          f"residual (pointwise): {pw:.3e}",
                          f"status: {status}"]
    try:  # the answer is complete: a reader that stops early cannot change it
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:  # keep the interpreter's final flush silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if ok else 1


def cmd_solve(args: SimpleNamespace) -> int:
    res = solve_equation(args.equation, real=args.real, ivp=args.ivp,
                         roots=args.roots, points=args.verify_points)
    op, hom, part, fitted = res.op, res.homogeneous, res.particular, res.fitted
    pairs = res.factored.pairs

    try:  # a real-form coefficient past the double range is a numeric failure
        basis_text = [render(b, realify=args.real) for b in res.basis]
        part_text = render(part, realify=args.real)
        fitted_text = None if fitted is None else render(fitted, realify=args.real)
    except (OverflowError, ValueError) as exc:
        raise NonConvergence(f"real form overflows: {exc}") from exc

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
    return _verdict(res.residuals, [
        f"equation: {args.equation}",
        f"characteristic polynomial: {render_poly(op.char_poly(), 'r')}",
        "roots:",
        *(f"  {format_constant(r)}  (multiplicity {m})" for r, m in pairs),
        "homogeneous basis:",
        *(f"  {text}" for text in basis_text),
        f"particular solution: {part_text}",
        f"general solution: {combo}",
        *([] if fitted_text is None else [f"fitted solution: {fitted_text}"])])


def cmd_verify(args: SimpleNamespace) -> int:
    op, rhs = compile_equation(args.equation)
    candidate = parse_exppoly(args.candidate)
    report = verify_solution(op, rhs, candidate, points=args.verify_points)
    if args.json:
        return _verdict(report, {"equation": args.equation,
                                 "candidate": args.candidate})
    return _verdict(report, [f"equation: {args.equation}",
                             f"candidate: {render(candidate)}"])


# Each subcommand's function, help and positionals (name, help), and each
# option with the subcommands that take it (metavar None marks a switch);
# _build_parser and _read_argv both read these.
_COMMANDS = {
    "solve": (cmd_solve, "solve an equation", (
        ("equation", "equation text, e.g. \"y'' + y = exp(x)\""),)),
    "verify": (cmd_verify, "check a candidate solution", (
        ("equation", None),
        ("candidate", "expression to test, e.g. \"x*exp(x)\""))),
}
_Option = namedtuple("_Option", "flag dest default metavar type help commands")
_OPTIONS = (
    _Option("--real", "real", False, None, None,
            "present the solution over cos/sin instead of complex "
            "exponentials", ("solve",)),
    _Option("--ivp", "ivp", None, "CONDS", None,
            "initial conditions, e.g. \"y(0)=1, y'(0)=0\"", ("solve",)),
    _Option("--roots", "roots", None, "ROOTS", None,
            "skip root finding; comma-separated root:multiplicity pairs, "
            "e.g. \"1:2, -1:1\"", ("solve",)),
    _Option("--json", "json", False, None, None, "machine-readable output",
            ("solve", "verify")),
    _Option("--verify-points", "verify_points", DEFAULT_VERIFY_POINTS, "N",
            int, f"grid size for the pointwise residual check (2 to "
            f"{MAX_VERIFY_POINTS})", ("solve", "verify")),
)


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse sets for a plain command line: a subcommand,
    its options each spelled in full as one argument (a valued one followed
    by its value) and its positionals.  None for any other command line,
    such as help, '--', '--flag=value', an abbreviation, an unknown flag, a
    missing value or positional, or a bad integer; argparse reads those."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, positionals = _COMMANDS[argv[0]]
    options = {o.flag: o for o in _OPTIONS if argv[0] in o.commands}
    args = SimpleNamespace(command=argv[0], func=func,
                           **{o.dest: o.default for o in options.values()})
    values, rest = [], iter(argv[1:])
    for arg in rest:
        if not (arg.startswith("--") or arg == "-h"):
            values.append(arg)  # even with a single '-', as _ArgumentParser
            continue
        if arg not in options:
            return None
        option = options[arg]
        if option.metavar is None:
            setattr(args, option.dest, True)
            continue
        value = next(rest, "--")
        if value.startswith("--") or value == "-h":
            return None
        try:
            setattr(args, option.dest,
                    value if option.type is None else option.type(value))
        except ValueError:
            return None
    if len(values) != len(positionals):
        return None
    for (name, _), value in zip(positionals, values):
        setattr(args, name, value)
    return args


def _build_parser():
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Reads an argument that starts with a single '-' and is not a known
        option as a value, so a candidate such as -exp(-x) needs no '--'."""

        def _parse_optional(self, arg_string):
            if (arg_string.startswith("-") and not arg_string.startswith("--")
                    and arg_string not in self._option_string_actions):
                return None
            return super()._parse_optional(arg_string)

    parser = _ArgumentParser(
        prog="expode",
        description="Solve linear constant-coefficient ODEs in closed form.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, positionals) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, help_text in positionals:
            p.add_argument(name, help=help_text)
        p.set_defaults(func=func)
        for o in _OPTIONS:
            if command in o.commands:
                p.add_argument(o.flag, dest=o.dest, default=o.default,
                               help=o.help,
                               **({"action": "store_true"} if o.metavar is None
                                  else {"metavar": o.metavar, "type": o.type}))
    return parser


def _print_parse_error(exc: ParseError) -> None:
    print(f"error: {exc}", file=sys.stderr)
    if exc.source is not None and exc.pos is not None:
        print(f"  {exc.source}", file=sys.stderr)
        print("  " + " " * exc.pos + "^", file=sys.stderr)
    if exc.expected:
        print("  expected: " + ", ".join(exc.expected), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
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
