"""The package and its scripts run on the standard library alone."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_scripts_run():
    sweep = _run("scripts/resonance_sweep.py")
    assert sweep.returncode == 0, sweep.stderr
    assert "non-resonant rows: -3.00" in sweep.stdout
    examples = _run("scripts/solve_examples.py")
    assert examples.returncode == 0, examples.stderr


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
