"""The package and its scripts run on the standard library alone."""

import os
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


def test_scripts_run():
    sweep = _run("scripts/resonance_sweep.py")
    assert sweep.returncode == 0, sweep.stderr
    assert "non-resonant rows: -3.00" in sweep.stdout
    examples = _run("scripts/solve_examples.py")
    assert examples.returncode == 0, examples.stderr


def test_report_digest_runs():
    proc = _run("scripts/report_digest.py", "--workloads", "corpus",
                "--seeds", "0")
    assert proc.returncode == 0, proc.stderr
    workload, seeds, count, digest = proc.stdout.split()
    assert (workload, seeds, count) == ("corpus", "0", "800")
    assert len(digest) == 64
