"""Running one operation the way the CLI does, and timing it steadily.

`run_op` makes the public-API calls of `expode.cli.cmd_solve` and
`cmd_verify`, in their order, each through `call(stage, fn, *args)`; the
untraced run passes `direct`, the traced run a `Tracer`, which keeps one
span per call in memory.

Timing: this host's speed drifts over spans of 0.1-1 s, so each operation
runs between two runs of a fixed pure-Python reference loop, and its wall
time is scaled by R0 / mean(loop before, loop after).  A spawned process is
scaled the same way by bare interpreters run before and after it (P0).  R0
and P0 are the references' times on the host the figures in README.md come
from.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

R0 = 1.0e-3          # seconds; the reference loop's nominal time
REF_ITERS = 550      # iterations giving about R0 on that host
P0 = 0.068           # seconds; a bare `python -c pass` process on that host

STAGES = {
    "compile_equation": "parsing.compile_equation",
    "parse_exppoly": "parsing.compile_equation",
    "factor_op": "operators.factor_op",
    "homogeneous_solution": "solve.basis",
    "real_homogeneous_solution": "solve.basis",
    "particular_solution": "solve.particular_solution",
    "verify_solution": "solve.verify_solution",
    "parse_initial_conditions": "solve.fit_initial_conditions",
    "fit_initial_conditions": "solve.fit_initial_conditions",
    "render": "parsing.render",
}


def ref_loop() -> float:
    """Seconds taken by a fixed mix of the interpreter work expode does:
    tuple building, generator expressions and complex arithmetic."""
    t0 = time.perf_counter()
    acc = 0j
    for i in range(REF_ITERS):
        acc = acc * 0.5 + sum(tuple(complex(k, i) for k in (1.0, 2.0, 3.0)))
    return time.perf_counter() - t0


def direct(stage, fn, *args, **kw):
    return fn(*args, **kw)


class Tracer:
    """Spans (stage, start_ns, end_ns) of the operation being run."""

    def __init__(self):
        self.spans: list[tuple[str, int, int]] = []

    def __call__(self, stage, fn, *args, **kw):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kw)
        finally:
            self.spans.append((STAGES[stage], t0, time.perf_counter_ns()))


@dataclass
class Result:
    exit_code: int
    status: str = ""
    text: str = ""            # everything rendered; compared across passes
    error: str = ""
    pairs: list = field(default_factory=list)
    basis: tuple = ()
    particular: object = None
    fitted: object = None
    rhs_terms: int = 0
    verify_calls: int = 0


def run_op(api, op, call) -> Result:
    """One `expode solve` / `expode verify`, exit code as `cli.main` maps it."""
    try:
        if op.kind == "verify":
            return _verify(api, op, call)
        return _solve(api, op, call)
    except api.ParseError as exc:
        return Result(2, error=str(exc))
    except (api.EquationError, api.NotConjugateClosed, ValueError) as exc:
        return Result(2, error=str(exc))
    except (api.NonConvergence, api.SingularSystem) as exc:
        return Result(3, error=str(exc))
    except Exception as exc:  # a crash is an outcome to report, not to stop on
        return Result(-1, error=f"crash: {type(exc).__name__}: {exc}")


def _solve(api, op, call) -> Result:
    lin, rhs = call("compile_equation", api.compile_equation, op.equation)
    factored = call("factor_op", api.factor_op, lin)
    pairs = sorted(factored.factors, key=lambda rm: (rm[0].real, rm[0].imag))
    hom = call("homogeneous_solution", api.homogeneous_solution, factored)
    basis = (call("real_homogeneous_solution", api.real_homogeneous_solution,
                  factored).basis if op.real else hom.basis)
    part = call("particular_solution", api.particular_solution, factored, rhs)
    reports = [call("verify_solution", api.verify_solution, lin,
                    api.ExpPoly.zero(), b) for b in basis]
    reports.append(call("verify_solution", api.verify_solution, lin, rhs, part))
    fitted = None
    if op.ivp:
        conditions = call("parse_initial_conditions",
                          api.parse_initial_conditions, op.ivp_text)
        fitted = call("fit_initial_conditions", api.fit_initial_conditions,
                      api.FullSolution(hom, part), conditions)
        reports.append(call("verify_solution", api.verify_solution, lin, rhs,
                            fitted))
    sym = max(r.symbolic for r in reports)
    pw = max(r.pointwise for r in reports)
    ok = sym <= api.RESIDUAL_TOL and pw <= api.RESIDUAL_TOL
    text = call("render", _render_solve, api, lin, pairs, basis, part, fitted,
                op.real)
    return Result(0 if ok else 1, "verified" if ok else "unverified", text,
                  pairs=pairs, basis=basis, particular=part, fitted=fitted,
                  rhs_terms=len(rhs.terms), verify_calls=len(reports))


def _render_solve(api, lin, pairs, basis, part, fitted, real) -> str:
    lines = [api.render_poly(lin.char_poly(), "r")]
    lines += [f"{api.format_constant(r)} ({m})" for r, m in pairs]
    lines += [api.render(b, realify=real) for b in basis]
    lines.append(api.render(part, realify=real))
    if fitted is not None:
        lines.append(api.render(fitted, realify=real))
    return "\n".join(lines)


def _verify(api, op, call) -> Result:
    lin, rhs = call("compile_equation", api.compile_equation, op.equation)
    candidate = call("parse_exppoly", api.parse_exppoly, op.candidate)
    report = call("verify_solution", api.verify_solution, lin, rhs, candidate)
    ok = report.within(api.RESIDUAL_TOL)
    text = call("render", api.render, candidate)
    return Result(0 if ok else 1, "verified" if ok else "unverified", text,
                  rhs_terms=len(rhs.terms), verify_calls=1)


@dataclass
class Pass:
    raw: list[float]          # seconds per op, uncorrected
    corrected: list[float]    # seconds per op, scaled by R0 / reference loop
    loops: list[float]        # every reference-loop time of the pass
    texts: list[str]
    stages: list[dict] | None = None   # traced: corrected seconds per stage
    spans: list | None = None          # traced: (op, stage, start, end)


def timed_pass(api, ops, order, traced: bool) -> Pass:
    """All ops once, in the given order, each between two reference loops."""
    n = len(ops)
    result = Pass([0.0] * n, [0.0] * n, [], [""] * n,
                  [None] * n if traced else None, [] if traced else None)
    gc.collect()
    prev = ref_loop()
    result.loops.append(prev)
    for i in order:
        call = Tracer() if traced else direct
        t0 = time.perf_counter()
        res = run_op(api, ops[i], call)
        t1 = time.perf_counter()
        nxt = ref_loop()
        scale = R0 / (0.5 * (prev + nxt))
        result.raw[i] = t1 - t0
        result.corrected[i] = (t1 - t0) * scale
        result.loops.append(nxt)
        result.texts[i] = f"{res.exit_code}|{res.status}|{res.text}"
        if traced:
            stages: dict[str, float] = {}
            for stage, s0, s1 in call.spans:
                stages[stage] = stages.get(stage, 0.0) + (s1 - s0) * 1e-9 * scale
                result.spans.append((i, stage, s0, s1))
            result.stages[i] = stages
            result.spans.append((i, "op", int(t0 * 1e9), int(t1 * 1e9)))
        prev = nxt
    return result


@dataclass
class Spawn:
    raw: float                # seconds, wall time
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(argv, env, cwd, scratch) -> Spawn:
    """Run one process to its end and read its own peak RSS from wait4."""
    out_path, err_path = scratch / "spawn.out", scratch / "spawn.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        raw = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawn(raw, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(), err_path.read_text())


def spawn_series(argvs, env, cwd, scratch) -> tuple[list[Spawn], float]:
    """Run each argv in turn, each between two bare interpreters
    (`python -c pass`), and return the spawns with their corrected median
    wall time: P0 * median(time / mean(bare before, bare after)).

    Process start-up drifts with the kernel and the page cache more than
    with interpreter speed, so the reference for a process is the cheapest
    process, as the reference loop is for an operation."""
    bare = [sys.executable, "-c", "pass"]
    prev = spawn(bare, env, cwd, scratch).raw
    spawns, ratios = [], []
    for argv in argvs:
        s = spawn(argv, env, cwd, scratch)
        nxt = spawn(bare, env, cwd, scratch).raw
        spawns.append(s)
        ratios.append(s.raw / (0.5 * (prev + nxt)))
        prev = nxt
    return spawns, P0 * statistics.median(ratios)
