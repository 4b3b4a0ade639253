"""Command-line interface: output formats, exit codes, golden reports."""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from expode import NonConvergence, SingularSystem, solve_equation
from expode.cli import _build_parser, _read_argv, main
from strategies import cli_argvs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GOLDEN_REPEATED_ROOT = """\
{
  "equation": "y'' - 2y' + y = 0",
  "char_poly": [
    [
      "1",
      "0"
    ],
    [
      "-2",
      "0"
    ],
    [
      "1",
      "0"
    ]
  ],
  "roots": [
    [
      "1",
      "0"
    ]
  ],
  "multiplicities": [
    2
  ],
  "homogeneous_basis": [
    "exp(x)",
    "x*exp(x)"
  ],
  "particular": "0",
  "fitted": null,
  "residual_symbolic": "0",
  "residual_pointwise": "0",
  "status": "verified"
}
"""

GOLDEN_RESONANT_FORCING = """\
{
  "equation": "y' - y = exp(x)",
  "char_poly": [
    [
      "-1",
      "0"
    ],
    [
      "1",
      "0"
    ]
  ],
  "roots": [
    [
      "1",
      "0"
    ]
  ],
  "multiplicities": [
    1
  ],
  "homogeneous_basis": [
    "exp(x)"
  ],
  "particular": "x*exp(x)",
  "fitted": null,
  "residual_symbolic": "0",
  "residual_pointwise": "0",
  "status": "verified"
}
"""

GOLDEN_SINE_IVP = """\
{
  "equation": "y'' + y = 0",
  "char_poly": [
    [
      "1",
      "0"
    ],
    [
      "0",
      "0"
    ],
    [
      "1",
      "0"
    ]
  ],
  "roots": [
    [
      "0",
      "-1"
    ],
    [
      "0",
      "1"
    ]
  ],
  "multiplicities": [
    1,
    1
  ],
  "homogeneous_basis": [
    "cos(x)",
    "sin(x)"
  ],
  "particular": "0",
  "fitted": "sin(x)",
  "residual_symbolic": "0",
  "residual_pointwise": "0",
  "status": "verified"
}
"""

GOLDEN_FORCED_IVP = """\
equation: y'' + y = x
characteristic polynomial: 1 + r^2
roots:
  -i  (multiplicity 1)
  i  (multiplicity 1)
homogeneous basis:
  exp(-i*x)
  exp(i*x)
particular solution: x
general solution: C1*exp(-i*x) + C2*exp(i*x) + x
fitted solution: (0.5-0.5i)*exp(-i*x) + x + (0.5+0.5i)*exp(i*x)
residual (symbolic): 0.000e+00
residual (pointwise): 0.000e+00
status: verified
"""

GOLDEN_FORCED_IVP_REAL = """\
equation: y'' + y = x
characteristic polynomial: 1 + r^2
roots:
  -i  (multiplicity 1)
  i  (multiplicity 1)
homogeneous basis:
  cos(x)
  sin(x)
particular solution: x
general solution: C1*cos(x) + C2*sin(x) + x
fitted solution: x + cos(x) - sin(x)
residual (symbolic): 0.000e+00
residual (pointwise): 0.000e+00
status: verified
"""

GOLDENS = [
    (["solve", "y'' - 2y' + y = 0", "--json"], GOLDEN_REPEATED_ROOT),
    (["solve", "y' - y = exp(x)", "--json"], GOLDEN_RESONANT_FORCING),
    (["solve", "y'' + y = 0", "--ivp", "y(0)=0, y'(0)=1", "--real", "--json"],
     GOLDEN_SINE_IVP),
]


@pytest.mark.parametrize("argv,expected", GOLDENS,
                         ids=["repeated-root", "resonant-forcing", "sine-ivp"])
def test_golden_reports(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv,expected", GOLDENS,
                         ids=["repeated-root", "resonant-forcing", "sine-ivp"])
def test_golden_reports_are_deterministic(capsys, argv, expected):
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first == expected


@pytest.mark.parametrize("flags, expected", [
    ([], GOLDEN_FORCED_IVP),
    (["--real"], GOLDEN_FORCED_IVP_REAL),
], ids=["complex", "real"])
def test_golden_text_reports(capsys, flags, expected):
    # the JSON goldens above are also acceptance criterion 9's; these two
    # are the text reports, with the fitted solution line
    assert main(["solve", "y'' + y = x", "--ivp", "y(0)=1, y'(0)=0",
                 *flags]) == 0
    assert capsys.readouterr().out == expected


def test_solve_json_schema(capsys):
    assert main(["solve", "y'' + 4y = x", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["equation", "char_poly", "roots", "multiplicities",
                         "homogeneous_basis", "particular", "fitted",
                         "residual_symbolic", "residual_pointwise", "status"]
    assert doc["status"] == "verified"
    assert doc["fitted"] is None
    assert all(len(pair) == 2 and all(isinstance(s, str) for s in pair)
               for pair in doc["char_poly"] + doc["roots"])
    assert doc["multiplicities"] == [1, 1]


def test_solve_text_output(capsys):
    assert main(["solve", "y'' + 4y = x", "--real"]) == 0
    out = capsys.readouterr().out
    assert "characteristic polynomial: 4 + r^2" in out
    assert "  2i  (multiplicity 1)" in out
    assert "  cos(2*x)" in out
    assert "particular solution: 0.25*x" in out
    assert "general solution: C1*cos(2*x) + C2*sin(2*x) + 0.25*x" in out
    assert out.rstrip().endswith("status: verified")


def test_verified_report_reproducible_by_verify(capsys):
    assert main(["solve", "y'' + 4y = x", "--ivp", "y(0)=1, y'(0)=0",
                 "--real", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "verified"
    for text in [doc["particular"], doc["fitted"]]:
        assert main(["verify", "y'' + 4y = x", text]) == 0
    capsys.readouterr()


def test_verify_accepts_solution(capsys):
    assert main(["verify", "y''+y=exp(x)", "exp(x)/2"]) == 0
    out = capsys.readouterr().out
    assert "status: verified" in out


def test_verify_rejects_wrong_candidate(capsys):
    assert main(["verify", "y' - y = 0", "exp(2x)"]) == 1
    out = capsys.readouterr().out
    assert "status: unverified" in out


def test_verify_equation_with_y_on_rhs(capsys):
    assert main(["verify", "y'=y", "exp(x)"]) == 0
    assert "status: verified" in capsys.readouterr().out
    assert main(["verify", "y'=y", "exp(2x)"]) == 1
    assert "status: unverified" in capsys.readouterr().out


def test_verify_json_schema(capsys):
    assert main(["verify", "y' - y = 0", "exp(x)", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["equation", "candidate", "residual_symbolic",
                         "residual_pointwise", "status"]


def test_parse_error_exit_and_caret(capsys):
    assert main(["solve", "y'' + = 0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    lines = err.splitlines()
    assert lines[1] == "  y'' + = 0"
    assert lines[2] == "        ^"
    assert "expected:" in lines[3]


def test_y_in_candidate_exit(capsys):
    assert main(["verify", "y' - y = 0", "y + 1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_accepts_y_on_rhs(capsys):
    assert main(["solve", "y' = y"]) == 0
    out = capsys.readouterr().out
    assert "exp(x)" in out
    assert "status: verified" in out


def test_nonlinear_exit(capsys):
    assert main(["solve", "y*y' = 1"]) == 2
    capsys.readouterr()


def test_real_flag_requires_conjugate_closure(capsys):
    assert main(["solve", "y' - i*y = 0", "--real"]) == 2
    assert "error:" in capsys.readouterr().err


def test_user_roots_accepted(capsys):
    assert main(["solve", "y'' - y = 0", "--roots", "1:1, -1:1",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "verified"
    assert doc["roots"] == [["-1", "0"], ["1", "0"]]


def test_user_roots_in_one_resonance_band(capsys):
    # 1 and 1.0000000015 both lie within 1e-9 of the forcing exponent, so
    # both count toward its resonance order: x^2, not x
    equation = ("y''' - 1.5e-09*y'' + (-3.0000000015)*y' + 2.000000003*y"
                " = exp(1.00000000075*x)")
    assert main(["solve", equation,
                 "--roots", "1:1, 1.0000000015:1, -2:1"]) == 0
    out = capsys.readouterr().out
    assert ("particular solution: 0.166666666625*x^2*exp(1.00000000075*x)\n"
            in out)
    assert "status: verified\n" in out


def test_user_roots_validated_against_equation(capsys):
    assert main(["solve", "y'' - y = 0", "--roots", "1:2"]) == 2
    assert "characteristic polynomial" in capsys.readouterr().err
    assert main(["solve", "y'' - y = 0", "--roots", "1:1"]) == 2
    assert "sum to the operator order" in capsys.readouterr().err
    assert main(["solve", "y'' - y = 0", "--roots", "nope"]) == 2
    capsys.readouterr()
    assert main(["solve", "y'' - y = 0", "--roots", "1:x, -1:1"]) == 2
    assert capsys.readouterr().err == "error: bad multiplicity in '1:x'\n"
    # a multiplicity is read in ASCII digits, as the root beside it is
    for roots in ("1:0_2", "1:２", "1:٢"):
        assert main(["solve", "y'' - 2*y' + y = 0", "--roots", roots]) == 2
        assert capsys.readouterr().err == f"error: bad multiplicity in {roots!r}\n"
    assert main(["solve", "y'' - 2*y' + y = 0", "--roots", "1:+2"]) == 0


@pytest.mark.parametrize("roots, message", [
    ("nope", "roots entries look like 'root:multiplicity', got 'nope'"),
    ("1:1", "roots multiplicities must sum to the operator order"),
    ("1:2", "roots does not reproduce the characteristic polynomial"),
])
def test_roots_errors_name_the_argument_and_the_flag(capsys, roots, message):
    with pytest.raises(ValueError) as exc:
        solve_equation("y'' - y = 0", roots=roots)
    assert str(exc.value) == message
    assert main(["solve", "y'' - y = 0", "--roots", roots]) == 2
    assert capsys.readouterr().err == f"error: --{message}\n"


def test_nonconvergence_exits_3(monkeypatch, capsys):
    def boom(op):
        raise NonConvergence("stuck")
    monkeypatch.setattr("expode.solve.factor_op", boom)
    assert main(["solve", "y'' - y = 0"]) == 3
    assert "stuck" in capsys.readouterr().err


def test_singular_system_exits_3(monkeypatch, capsys):
    def boom(solution, conditions):
        raise SingularSystem("degenerate")
    monkeypatch.setattr("expode.solve.fit_initial_conditions", boom)
    assert main(["solve", "y' - y = 0", "--ivp", "y(0)=1"]) == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("argv, first_line", [
    (["solve", "y'' + = y", "--roots", "bad"], "expected a value"),
    (["solve", "y'' + y = 0", "--roots", "bad", "--ivp", "nonsense"],
     "--roots entries look like 'root:multiplicity', got 'bad'"),
    (["solve", "y'' + y = 0", "--ivp", "nonsense", "--verify-points", "1"],
     "need at least 2 sample points"),
    (["solve", "y'' + 2*i*y = 0", "--real", "--ivp", "nonsense"],
     "no conjugate partner"),
    (["solve", "y'' + y = 0", "--roots", "i:1, -i:1", "--ivp", "y(0)=1"],
     "need exactly 2 initial conditions"),
])
def test_first_failing_stage_decides_the_error(capsys, argv, first_line):
    # the stages run compile, roots or factor, basis, particular, verify,
    # conditions; each input but the last is bad for two of them, and the
    # earlier one names the error; the last fits user roots to one condition
    assert main(argv) == 2
    line = capsys.readouterr().err.splitlines()[0]
    assert line.startswith("error: ") and first_line in line


def test_bad_ivp_count_exits_2(capsys):
    assert main(["solve", "y'' + y = 0", "--ivp", "y(0)=1"]) == 2
    assert "initial conditions" in capsys.readouterr().err


def test_verify_points_flag(capsys):
    assert main(["solve", "y' - y = 0", "--verify-points", "5"]) == 0
    capsys.readouterr()
    assert main(["solve", "y' - y = 0", "--verify-points", "1"]) == 2
    capsys.readouterr()
    assert main(["verify", "y' - y = 0", "exp(x)", "--verify-points", "10001"]) == 2
    assert "at most 10000" in capsys.readouterr().err


def test_usage_error_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate", "y' = 0"])


@pytest.mark.parametrize("equation", ["y^(2000) + y = 0", "y^(100000) = 0"])
def test_derivative_order_above_limit_exits_2(capsys, equation):
    start = time.perf_counter()
    assert main(["solve", equation]) == 2
    assert time.perf_counter() - start < 2.0
    assert "derivative order" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "y' + y = 0", "-exp(-x)"],
    ["verify", "y' + y = 0", "-exp(-x)", "--json"],
    ["verify", "y' + y = 0", "--", "-exp(-x)"],
])
def test_verify_candidate_may_start_with_minus(capsys, argv):
    assert main(argv) == 0
    assert "-exp(-x)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "y' + y = 0"],
    ["solve", "y' + y = 0", "-q"],
    ["solve", "y' + y = 0", "--bogus"],
])
def test_usage_errors_still_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "y' - y = exp(800*x)"],
    ["verify", "y' - y = 0", "exp(1e300*x)"],
])
def test_pointwise_overflow_exits_3(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pointwise_overflow_names_first_grid_point(capsys):
    # exp(10000*x) overflows from the 28th grid point on, exp(800*x) only
    # from the 48th; the message names the first point, not the first term
    assert main(["verify", "y' = 0", "exp(800*x) + exp(10000*x)"]) == 3
    assert capsys.readouterr().err == (
        "error: pointwise residual overflows at x = 0.102041\n")


def test_ivp_overflow_exits_3(capsys):
    assert main(["solve", "y' - y = 0", "--ivp", "y(1000)=1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: initial-condition system overflows at x = 1000\n"


def test_operator_overflow_exits_3(capsys):
    # the candidate is finite, but P(1e10) * 1e300 leaves the double range
    # while the verifier forms L[y] - f: a numeric failure, not bad input
    assert main(["verify", "y' = 0", "1e300*exp(1e10*x)"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: residual L[y] - f overflows\n"


def test_nonfinite_ivp_fit_exits_3(capsys):
    # the fit divides by a 9.9e-305 pivot; its nan residual must not pass
    # the residual check as if it were small
    assert main(["solve", "y'' - y = 0", "--ivp", "y(700)=1, y'(700)=0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: initial-condition fit is not finite at x = 700\n"


def test_ivp_residual_left_by_the_fit_exits_3(capsys):
    # the basis exp(x), exp(1.00000001*x) is nearly dependent: the fit's
    # residual 1.5e-8 is above its bound 1e-9 * (1 + 1)
    assert main(["solve", "y'' - 2.00000001*y' + 1.00000001*y = 0",
                 "--roots", "1:1, 1.00000001:1",
                 "--ivp", "y(3)=1, y'(3)=0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: initial-condition solve left residual 1.490e-08\n"


def test_ivp_fit_skips_the_unused_derivative(capsys):
    # the fit reads y and y' only; the basis' second derivative, whose
    # coefficient 1e310 leaves the double range, is never formed
    assert main(["solve", "y'' - 1e155i*y' = 0", "--roots", "0:1, 1e155i:1",
                 "--ivp", "y(0)=1, y'(0)=0"]) == 0
    out = capsys.readouterr().out
    assert "fitted solution: 1\n" in out
    assert "status: verified\n" in out


GOLDEN_EXACT_ZERO_ROOT = """\
equation: y^(4) + 1i*y''' = 1
characteristic polynomial: i*r^3 + r^4
roots:
  -i  (multiplicity 1)
  0  (multiplicity 3)
homogeneous basis:
  exp(-i*x)
  1
  x
  x^2
particular solution: -0.16666666666666666i*x^3
general solution: C1*exp(-i*x) + C2 + C3*x + C4*x^2 + (-0.16666666666666666i*x^3)
residual (symbolic): 0.000e+00
residual (pointwise): 0.000e+00
status: verified
"""


def test_trailing_zero_coefficients_give_an_exact_zero_root(capsys):
    # r^3 divides the characteristic polynomial, so 0 is a root exactly,
    # with no rounding dust such as -3.08e-33i
    assert main(["solve", "y^(4) + 1i*y''' = 1"]) == 0
    assert capsys.readouterr().out == GOLDEN_EXACT_ZERO_ROOT


@pytest.mark.parametrize("argv", [
    ["solve", "y' = exp((1.7e308+1.7e308i)*x) + exp(x)"],
    ["verify", "y' = 0", "exp((1.7e308+1.7e308i)*x) + exp(x)"],
    ["solve", "y' - y = 0", "--ivp", "y(1.7e308+1.7e308i)=1"],
])
def test_lowering_overflow_exits_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: arithmetic does not stay finite")


@pytest.mark.parametrize("argv", [
    # the leading coefficient folds to inf; dividing it away left y' = 0
    ["solve", "y'*1e308*1e308 = 1"],
    ["verify", "y'*1e308*1e308 = 1", "0"],
    # the folded constants 0*inf and inf - inf are nan, not a y-free term
    ["solve", "1e308*10*y'' + y = 1"],
    ["solve", "y'' + (1e308*10 - 1e308*10)*y = 1"],
    # a y term moved over from the right side
    ["solve", "y' = y''*1e308*1e308 + 1"],
])
def test_nonfinite_lhs_coefficient_exits_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: arithmetic does not stay finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("equation", [
    # P' = 3r^2 + 2e308*r + ... overflows while the roots are sought
    "y''' + 1e308*y'' + 1e-308*y' + 1e-308*y = 0",
    # |a_0| leaves the double range in the Aberth starting points
    "y'' + 1e-308*y' + (1.7e308+1.7e308i)*y = 0",
    # the root's modulus leaves the double range in its refinement
    "y' + (1.7e308+1.7e308i)*y = 1",
])
def test_root_finder_overflow_exits_3(capsys, equation):
    assert main(["solve", equation]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("equation", [
    # sums are split into terms, and products lowered, along their left
    # spine in a loop, so no chain recurses once per operand
    "y' = " + " + ".join(["x"] * 1200),
    "y' + " + " + ".join(["y"] * 1200) + " = 1",
    "y' = " + "*".join(["x"] * 1200),
])
def test_long_chains_solve(capsys, equation):
    assert main(["solve", equation]) == 0
    assert capsys.readouterr().out.endswith("status: verified\n")


@pytest.mark.parametrize("equation, pos", [
    # the caret marks the opening that passes the cap of 100 levels
    ("y' = " + "(" * 400 + "x" + ")" * 400, 105),
    ("y' = " + "-" * 2000 + "x", 105),
    ("y' = x" + "^1" * 3000, 206),
])
def test_deep_nesting_exits_2(capsys, equation, pos):
    assert main(["solve", equation]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 3
    assert lines[0] == "error: expression nests too deeply"
    assert lines[2] == "  " + " " * pos + "^"


@pytest.mark.parametrize("argv, code, message", [
    # the back-substitution grows the coefficients like 200!; an overflow in
    # the solver's own arithmetic is a numeric failure, not bad input
    (["solve", "y' - y = x^100*x^100"], 3,
     "error: particular solution overflows\n"),
    # two finite roots whose difference has a modulus past the double range
    (["solve", "y'' = 0", "--roots", "1.5e308:1, 1.5e308i:1"], 2,
     "error: polynomial coefficients must be finite\n"),
    # the same difference between the forcing exponent and the root
    (["solve", "y' - 1.5e308*y = exp(1.5e308i*x)"], 3,
     "error: particular solution overflows\n"),
    (["verify", "y' - 1.5e308*y = 0", "exp(1.5e308i*x)"], 3,
     "error: residual L[y] - f overflows\n"),
    # the same difference between a coefficient of the operator and one of
    # the characteristic polynomial that --roots gives
    (["solve", "y' - 1.5e308*y = 0", "--roots", "1.5e308i:1"], 2,
     "error: --roots does not reproduce the characteristic polynomial\n"),
    # an operator coefficient whose own modulus is past the double range,
    # as in test_root_finder_overflow_exits_3 but met by the --roots check
    (["solve", "y' + (1.5e308 + 1.5e308i)*y = 0", "--roots", "1:1"], 3,
     "error: roots check overflows: absolute value too large\n"),
    (["solve", "y'' + (1.5e308 + 1.5e308i)*y' = 0", "--roots", "0:1, 1:1"],
     3, "error: roots check overflows: absolute value too large\n"),
    # a derivative of the basis that the fit reads leaves the double range
    (["solve", "y''' - 1e155i*y'' = 0", "--roots", "0:2, 1e155i:1",
      "--ivp", "y(0)=1, y'(0)=0, y''(0)=0"], 3,
     "error: initial-condition system overflows at x = 0\n"),
    # the real form 2e308*sin(x) has a coefficient past the double range
    (["solve", "y' = 1e308*exp(i*x) + 1e308*exp(-i*x)", "--real"], 3,
     "error: real form overflows: polynomial coefficients must be finite\n"),
])
def test_overflow_ends_in_an_exit_code(capsys, argv, code, message):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message


def test_real_form_keeps_a_large_answer(capsys):
    # 1.6e308 is a double: only a real form past the double range overflows
    equation = "y' = 0.8e308*exp(i*x) + 0.8e308*exp(-i*x)"
    assert main(["solve", equation, "--real"]) == 0
    out = capsys.readouterr().out
    assert "particular solution: 1.6e+308*sin(x)\n" in out


def test_real_form_keeps_a_small_answer(capsys):
    # the real form's tolerances follow the size of the function, so a
    # verified answer of size 5e-14 is printed, not cleaned to 0
    assert main(["solve", "y'' + y = 1e-13*sin(x)", "--real"]) == 0
    out = capsys.readouterr().out
    assert "particular solution: -5e-14*x*cos(x)\n" in out


def test_real_form_rejects_a_small_imaginary_part(capsys):
    # an imaginary part far below 1 is not rounding dust of a small answer
    assert main(["solve", "y' - y = 1e-12i*exp(2*x)", "--real"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: coefficients at a real exponent have imaginary "
                   "parts\n")


def test_real_form_still_cleans_rounding_dust(capsys):
    # the fit leaves about 9e-18*cos(2*x) beside cos(x)
    assert main(["solve", "y'''' + 5*y'' + 4*y = 0", "--real", "--ivp",
                 "y(0)=1, y'(0)=0, y''(0)=-1, y'''(0)=0"]) == 0
    assert "fitted solution: cos(x)\n" in capsys.readouterr().out


def test_one_constant_text_gives_one_double_on_both_sides(capsys):
    # 7/3 divides on the left side and on the forcing side alike
    assert main(["solve", "y' - 7/3*y = exp(7/3*x)"]) == 0
    out = capsys.readouterr().out
    assert "  exp(2.3333333333333335*x)\n" in out
    assert "particular solution: x*exp(2.3333333333333335*x)\n" in out


@settings(max_examples=100, deadline=5000, derandomize=True)
@given(argv=cli_argvs())
@example(argv=["solve", "y'' = 0", "--roots", "1.5e308:1, 1.5e308i:1"])
@example(argv=["solve", "y' - 1.5e308*y = exp(1.5e308i*x)"])
@example(argv=["verify", "y' - 1.5e308*y = 0", "--", "exp(1.5e308i*x)"])
@example(argv=["solve", "y' - 1.5e308*y = 0", "--roots", "1.5e308i:1"])
@example(argv=["solve", "y' + (1.5e308 + 1.5e308i)*y = 0", "--roots", "1:1"])
@example(argv=["solve", "y'' + (1.5e308 + 1.5e308i)*y' = 0",
               "--roots", "0:1, 1:1"])
@example(argv=["solve", "y''' - 1e155i*y'' = 0", "--roots", "0:2, 1e155i:1",
               "--ivp", "y(0)=1, y'(0)=0, y''(0)=0"])
def test_grammar_fuzz_ends_in_an_exit_code(argv):
    # every command line over the input grammar ends in a documented exit
    # code, argparse's usage errors included, within the deadline
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)


def _read_as_argparse(argv, parser):
    """The reader either declines argv or reads what argparse reads."""
    args = _read_argv(argv)
    if args is not None:
        assert vars(args) == vars(parser.parse_args(argv)), argv
    return args


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=cli_argvs())
@example(argv=["solve", "y' = y", "--verify-points=5"])
@example(argv=["solve", "y' = y", "--verify-p", "5"])
@example(argv=["solve", "-h"])
@example(argv=["solve", "y' = y", "--ivp", "-h"])
@example(argv=["solve", "--", "y' = y"])
@example(argv=["solve", "y' = y", "--ivp", "-1"])
@example(argv=["solve", "y' = y", "--roots", "--json"])
@example(argv=["verify", "y' = y", "exp(x)", "--real"])
@example(argv=["verify", "y' + y = 0", "--json", "-exp(-x)"])
@example(argv=["solve", "y' = y", "--ivp", "y(0)=1", "--ivp", "y(0)=2"])
@example(argv=["solve", "y' = y", "--verify-points", " 7"])
@example(argv=["solve", "y' = y", "--verify-points", "x"])
@example(argv=["solve", ""])
@example(argv=["solve", "y' = y", "y' = 2y"])
@example(argv=[])
def test_argv_reader_agrees_with_argparse(argv):
    # a plain command line skips argparse; any other goes to it, so the
    # reader may decline any argv, but never read one differently
    try:
        _read_as_argparse(argv, _build_parser())
    except SystemExit:  # argparse refused or printed help: so did the reader
        assert _read_argv(argv) is None


def test_argv_reader_reads_plain_command_lines():
    # the benchmark spawns op.argv() + ["--json"]; each must take the path
    # that loads no argparse, and read as argparse reads it, as must values
    # that start with a single '-', repeated options and empty arguments
    parser = _build_parser()
    argvs = [["solve", "y' = y", "--ivp", "-1", "--real", "--real"],
             ["solve", "", "--roots", "", "--verify-points", " 7"],
             ["solve", "y' = y", "--ivp", "y(0)=1", "--ivp", "y(0)=2"],
             ["verify", "y' + y = 0", "--json", "-exp(-x)", "--json"]]
    for workload in ("corpus", "high_order", "rich_forcing"):
        for op in workloads.generate(workload, 1):
            argvs += [op.argv(), op.argv() + ["--json"]]
    for argv in argvs:
        assert _read_as_argparse(argv, parser) is not None, argv
