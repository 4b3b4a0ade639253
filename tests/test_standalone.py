"""The package and its scripts run on the standard library alone."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_numpy():
    proc = _run("-c", "import sys, expode; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_no_dataclasses():
    # the records are plain classes: a cold `expode solve` pays for none of
    # the modules dataclasses pulls in
    proc = _run("-c", "import sys; before = set(sys.modules); "
                "import expode, expode.cli; "
                "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} "
                "& (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_plain_command_line_loads_no_argparse():
    # a plain command line is read without argparse, which would pull in
    # gettext and locale; help and usage errors still go through argparse
    proc = _run("-c", "import contextlib, io, sys; before = set(sys.modules); "
                "from expode.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(['solve', \"y'' + y = 0\", '--json'])\n"
                "print(code, sorted({'argparse', 'gettext', 'locale'} "
                "& (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    proc = _run("-m", "expode.cli", "solve", "-h")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: expode solve ")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", [
    (["solve", "y'' + y = exp(x)"], 0),
    (["verify", "y' = y", "exp(2x)"], 1),
], ids=["verified", "unverified"])
def test_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    # a reader that stops early (`expode solve ... | head -1`) neither turns
    # the answer into a traceback nor changes its exit code
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "expode.cli", *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert err == b""


# the table crosses the resonance switch between delta = 1e-9 and 1e-10,
# where the particular solution starts to integrate instead of dividing
RESONANCE_SWEEP_OUTPUT = """\
operator: (d-1)^2 (d+2), forcing exp((1+delta)*x)*x, merge tol 1e-09
     delta  res.ord  deg   max|coeff|  sym.resid   pw.resid
     1e-01        0    1    6.556e+02   1.33e-15   2.00e-15
     1e-02        0    1    6.656e+05   3.85e-11   7.70e-11
     1e-03        0    1    6.666e+08   5.44e-08   1.09e-07
     1e-04        0    1    6.667e+11   3.11e-05   6.23e-05
     1e-05        0    1    6.667e+14   2.90e-02   5.80e-02
     1e-06        0    1    6.667e+17   1.46e+01   2.91e+01
     1e-07        0    1    6.667e+20   7.99e+03   1.60e+04
     1e-08        0    1    6.667e+23   2.60e+07   5.20e+07
     1e-09        0    1    6.667e+26   1.00e+09   2.00e+09
     1e-10        2    3    5.556e-02   5.00e-11   5.69e-11
     1e-11        2    3    5.556e-02   5.00e-12   5.69e-12
     1e-12        2    3    5.556e-02   5.00e-13   7.31e-13
     0e+00        2    3    5.556e-02   0.00e+00   0.00e+00

coefficient growth exponent over non-resonant rows: -3.001 (m + j = 3 predicts -3)
"""


def test_scripts_run():
    sweep = _run("scripts/resonance_sweep.py")
    assert sweep.returncode == 0, sweep.stderr
    assert sweep.stdout == RESONANCE_SWEEP_OUTPUT
    examples = _run("scripts/solve_examples.py")
    assert examples.returncode == 0, examples.stderr


SOLVE_EXAMPLES_OUTPUT = """\
equation        y'' + 2y' + y = x*exp(-x)
char poly       1 + 2*r + r^2
roots           -1 (m=2)
  basis C1      exp(-x)
  basis C2      x*exp(-x)
wronskian(0)    1.000e+00
particular      0.16666666666666666*x^3*exp(-x)
residuals       symbolic 0.000e+00   pointwise 0.000e+00   ok=True

equation        y'' + 4y = x
char poly       4 + r^2
roots           -2i (m=1), 2i (m=1)
  basis C1      cos(2*x)
  basis C2      sin(2*x)
wronskian(0)    1.000e+00
particular      0.25*x
residuals       symbolic 0.000e+00   pointwise 0.000e+00   ok=True

equation        y''' - y'' + y' - y = 0
char poly       -1 + r - r^2 + r^3
roots           -i (m=1), i (m=1), 1 (m=1)
  basis C1      cos(x)
  basis C2      sin(x)
  basis C3      exp(x)
wronskian(0)    2.000e+00
residuals       symbolic 0.000e+00   pointwise 0.000e+00   ok=True

equation        y'' - 2y' + 2y = exp(x)*sin(x)
char poly       2 - 2*r + r^2
roots           (1-i) (m=1), (1+i) (m=1)
  basis C1      cos(x)*exp(x)
  basis C2      sin(x)*exp(x)
wronskian(0)    1.000e+00
particular      -0.5*x*cos(x)*exp(x)
residuals       symbolic 0.000e+00   pointwise 0.000e+00   ok=True

equation        y'' + y = 0
conditions      y(0)=1, y'(0)=0
fitted          cos(x)
max |y - cos| on 9-point grid: 0.000e+00
residuals       symbolic 0.000e+00   pointwise 0.000e+00   ok=True

"""


def test_solve_examples_output():
    proc = _run("scripts/solve_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SOLVE_EXAMPLES_OUTPUT


def test_report_digest_runs(tmp_path):
    proc = _run("scripts/report_digest.py", "--workloads", "corpus",
                "--seeds", "0")
    assert proc.returncode == 0, proc.stderr
    workload, seeds, count, digest = proc.stdout.split()
    assert (workload, seeds, count) == ("corpus", "0", "800")
    assert len(digest) == 64

    # compare mode: a copy of the package that accepts no residual turns
    # every verified report into an unverified one, exit 0 into exit 1
    shutil.copytree(ROOT / "src" / "expode", tmp_path / "expode",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "expode" / "cli.py"
    text = cli.read_text()
    assert "RESIDUAL_TOL = 1e-8\n" in text
    cli.write_text(text.replace("RESIDUAL_TOL = 1e-8\n", "RESIDUAL_TOL = -1.0\n"))
    proc = _run("scripts/report_digest.py", "--workloads", "corpus",
                "--seeds", "0", "--src", "src", "--src", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    head, *moved = proc.stdout.splitlines()
    workload, seeds, count, changed, exits = head.split()
    assert (workload, seeds, count) == ("corpus", "0", "800")
    assert 0 < int(exits) <= int(changed) <= 800
    assert moved and all(line.startswith("  seed 0 corpus/")
                         and line.endswith(": 0 -> 1") for line in moved)
    # each op runs twice (text and --json), and both exit codes move
    assert int(exits) == 2 * len(moved)

    # the front-end mode: one report per operation, and a copy that accepts
    # no derivative order above 1 fails to compile every higher order
    proc = _run("scripts/report_digest.py", "--workloads", "corpus",
                "--seeds", "0", "--front-end")
    assert proc.returncode == 0, proc.stderr
    workload, seeds, count, digest = proc.stdout.split()
    assert (workload, seeds, count) == ("corpus", "0", "400")
    parsing = tmp_path / "expode" / "parsing.py"
    text = parsing.read_text()
    assert "\n_MAX_POWER = 100 " in text
    parsing.write_text(text.replace("\n_MAX_POWER = 100 ", "\n_MAX_POWER = 1 "))
    proc = _run("scripts/report_digest.py", "--workloads", "corpus",
                "--seeds", "0", "--front-end", "--src", "src",
                "--src", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    head, *moved = proc.stdout.splitlines()
    workload, seeds, count, changed, exits = head.split()
    assert (workload, seeds, count) == ("corpus", "0", "400")
    assert 0 < int(exits) == len(moved) <= int(changed) <= 400
    # parse_equation still passes; compile_equation now fails
    assert all(re.fullmatch(r"  seed 0 corpus/\S+: ok(,ok)+ -> "
                            r"ok,UnsupportedForm(,\w+)*", line)
               for line in moved)


def test_report_digest_judges_what_changed(tmp_path):
    # a copy that accepts any residual up to 1 verifies wrong candidates:
    # the exact checks read each as right -> wrong and wrong-but-verified
    shutil.copytree(ROOT / "src" / "expode", tmp_path / "expode",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "expode" / "cli.py"
    text = cli.read_text()
    assert "RESIDUAL_TOL = 1e-8\n" in text
    cli.write_text(text.replace("RESIDUAL_TOL = 1e-8\n", "RESIDUAL_TOL = 1.0\n"))
    proc = _run("scripts/report_digest.py", "--workloads", "corpus",
                "--seeds", "0", "--judge", "--src", "src",
                "--src", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    moved = [line for line in lines if line.startswith("  seed 0 ")]
    judged = re.fullmatch(
        r"  judged (\d+): right->right (\d+), wrong->right (\d+), "
        r"right->wrong (\d+), wrong->wrong (\d+); "
        r"verdict flips (\d+) to right, (\d+) to wrong", lines[len(moved) + 1])
    assert judged, lines
    n, rr, wr, rw, ww, to_right, to_wrong = map(int, judged.groups())
    assert n == len(moved) == rr + wr + rw + ww and rw > 0 and wr == ww == 0
    assert to_wrong == rw
    named = lines[len(moved) + 2:]
    right_wrong = [line.split(": ")[1] for line in named
                   if line.startswith("  right->wrong: ")]
    verified = [line.split(": ")[1] for line in named
                if line.startswith("  wrong-but-verified: ")]
    assert len(named) == len(right_wrong) + len(verified)
    assert len(right_wrong) == rw and right_wrong == verified
    assert all(re.fullmatch(r"seed 0 corpus/verify-\d+", op)
               for op in right_wrong)

    proc = _run("scripts/report_digest.py", "--seeds", "0", "--judge")
    assert proc.returncode == 2
    assert "--judge compares two trees" in proc.stderr
