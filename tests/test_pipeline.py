"""`solve_equation` against the benchmark harness's copy of its stages.

perfbench/harness.py times each stage by calling it, so it keeps its own
copy of the sequence `solve_equation` runs.  These tests hold the two to
the same answers on a sample of the workloads' solve operations.
"""

import random
import sys
import types
from pathlib import Path

import pytest

import expode
import expode.cli
from expode import (EquationError, NonConvergence, NotConjugateClosed,
                    SingularSystem, solve_equation)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import harness  # noqa: E402
import workloads  # noqa: E402

GENERATED = {"high_order": workloads._high_order,
             "rich_forcing": workloads._rich_forcing}
# the public names and the CLI's tolerance, as perfbench/run.py passes them
API = types.SimpleNamespace(**{k: getattr(expode, k) for k in expode.__all__},
                            RESIDUAL_TOL=expode.cli.RESIDUAL_TOL)


def _sample(workload):
    """Seed 0's solve operations: every fifth of corpus's, the first 26 of
    high_order's and rich_forcing's (two rounds of their 13-step schedules,
    drawn as `workloads.generate` draws them: generating all of those two
    takes seconds), and every known-failing one."""
    if workload == "corpus":
        ops = [op for op in workloads.generate(workload, 0)
               if op.kind == "solve"]
        return ops[::5] + [op for op in ops if op.known]
    rng = random.Random(f"{workload}:0")
    return ([GENERATED[workload](rng, k) for k in range(26)]
            + workloads._known()[workload])


def _from_pipeline(op):
    try:
        rep = solve_equation(op.equation, real=op.real, ivp=op.ivp_text)
    except (EquationError, NotConjugateClosed, ValueError) as exc:
        return 2, str(exc)
    except (NonConvergence, SingularSystem) as exc:
        return 3, str(exc)
    code = 0 if rep.residuals.within(expode.cli.RESIDUAL_TOL) else 1
    return (code, list(rep.factored.pairs), rep.basis, rep.particular,
            rep.fitted)


def _from_harness(op):
    res = harness.run_op(API, op, harness.direct)
    if res.exit_code >= 2:
        return res.exit_code, res.error
    return res.exit_code, res.pairs, res.basis, res.particular, res.fitted


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_harness_stages_match_solve_equation(workload):
    for op in _sample(workload):
        assert _from_harness(op) == _from_pipeline(op), op.name


def test_solve_stays_a_module():
    # exporting a function named `solve` would rebind the package attribute
    # and break every `expode.solve.<name>` lookup
    assert isinstance(expode.solve, types.ModuleType)
    assert expode.solve.solve_equation is solve_equation


MODULES = (expode.cpoly, expode.exppoly, expode.operators, expode.parsing,
           expode.solve)


def test_public_names_are_declared_once():
    # each module lists its names once, sorted, and the package's list is
    # their disjoint union
    lists = [module.__all__ for module in MODULES]
    assert all(names == sorted(names) for names in lists)
    union = [name for names in lists for name in names]
    assert len(set(union)) == len(union)
    assert expode.__all__ == sorted(union) + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(expode, name) is getattr(module, name)


def test_package_exports_exactly_its_all():
    # expode.cli joins dir(expode) once any test imports it, so modules are
    # filtered by type rather than by name
    public = {name for name in dir(expode) if not name.startswith("_")
              and not isinstance(getattr(expode, name), types.ModuleType)}
    assert public == set(expode.__all__) - {"__version__"}
    ns = {}
    exec("from expode import *", ns)
    ns.pop("__builtins__")
    assert set(ns) == set(expode.__all__)
