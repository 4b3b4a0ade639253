"""expode's benchmark: one workload, one process, one operation at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's src/.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A record of the run
(commit, Python, input hash, reference-loop times, raw totals, per-op
times, known-failing outcomes) goes to perfbench/out/, and with --trace 1
the spans too.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import harness
from workloads import WORKLOADS, generate, input_hash

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PYCACHE = OUT / f"pycache-{os.getpid()}"

SETUP_SPAWNS = 21     # fresh `import expode` processes per run
CLI_SPAWNS = 31       # cold `expode solve` processes per run
IMPORTTIME_SPAWNS = 5
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s", "cold_rss_mb": "MB", "cli_ms_p50": "ms",
    "solves_per_s": "1/s", "solve_ms_p50": "ms", "solve_ms_p90": "ms",
    "rss_mb": "MB",
}
PER_LAYER = {
    "parsing.compile_equation_ms": "ms/op",
    "operators.factor_op_ms": "ms/op",
    "solve.basis_ms": "ms/op",
    "solve.particular_solution_ms": "ms/op",
    "solve.verify_solution_ms": "ms/op",
    "solve.fit_initial_conditions_ms": "ms/op",
    "parsing.render_ms": "ms/op",
    "op.self_ms": "ms/op",
    "import.numpy_ms": "ms",
    "import.expode_ms": "ms",
    "solve.verify_calls": "count/op",
    "solve.particular_terms": "count/op",
    "solve.particular_coeffs": "count/op",
    "parsing.rhs_terms": "count/op",
    "parsing.render_chars": "chars/op",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _child_env() -> dict:
    # Spawned processes read and write bytecode only under a cache of this
    # run's own (PYTHONPYCACHEPREFIX ignores every __pycache__ directory), so
    # after the warm-up spawns each cold process loads compiled bytecode, as
    # an installed package does, and no cache left by an earlier run or a
    # test run in src/ can shift setup_s or cli_ms_p50.
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _import_api():
    sys.path.insert(0, str(SRC))
    import expode
    import expode.cli
    if Path(expode.__file__).resolve().parent != SRC / "expode":
        raise SystemExit(f"expode imported from {expode.__file__}, not {SRC}")
    names = {k: getattr(expode, k) for k in expode.__all__}
    return SimpleNamespace(**names, RESIDUAL_TOL=expode.cli.RESIDUAL_TOL)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _cli_sample(ops) -> list[int]:
    """CLI_SPAWNS solve ops at fixed positions: op k's shape does not
    depend on the seed."""
    pool = [i for i, op in enumerate(ops) if op.kind == "solve" and not op.known]
    return [pool[len(pool) * k // CLI_SPAWNS] for k in range(CLI_SPAWNS)]


def _warm_up(ops, scratch) -> None:
    """Fill this run's bytecode cache: `import expode`, then the CLI's own
    imports."""
    env, py = _child_env(), sys.executable
    harness.spawn([py, "-c", "import expode"], env, ROOT, scratch)
    harness.spawn([py, "-m", "expode.cli", *ops[_cli_sample(ops)[0]].argv(),
                   "--json"], env, ROOT, scratch)


def _cold_processes(ops, scratch):
    """setup_s, cold_rss_mb and the cold CLI sample."""
    env = _child_env()
    py = sys.executable
    setup, setup_s = harness.spawn_series(
        [[py, "-c", "import expode"]] * SETUP_SPAWNS, env, ROOT, scratch)
    sample = _cli_sample(ops)
    cli, cli_s = harness.spawn_series(
        [[py, "-m", "expode.cli", *ops[i].argv(), "--json"] for i in sample],
        env, ROOT, scratch)
    return setup, setup_s, list(zip(sample, cli)), cli_s


def _import_times(scratch):
    """Medians over spawns of `python -X importtime -c "import expode"`:
    numpy's cumulative time and expode's own (its cumulative minus numpy's),
    corrected like the processes' wall time."""
    spawns, corrected = harness.spawn_series(
        [[sys.executable, "-X", "importtime", "-c", "import expode"]]
        * IMPORTTIME_SPAWNS, _child_env(), ROOT, scratch)
    numpy_ms, expode_ms = [], []
    for s in spawns:
        cumulative = {}
        for line in s.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-3
        numpy_ms.append(cumulative.get("numpy", 0.0))
        expode_ms.append(cumulative.get("expode", 0.0)
                         - cumulative.get("numpy", 0.0))
    scale = corrected / _median([s.raw for s in spawns])
    return _median(numpy_ms) * scale, _median(expode_ms) * scale


def _cli_problems(ops, results, cli) -> list[str]:
    out = []
    for i, s in cli:
        name = ops[i].name
        if s.code != 0:
            out.append(f"{name}: cold CLI exit {s.code}: {s.stderr.strip()[-200:]}")
            continue
        doc = json.loads(s.stdout)
        res = results[i]
        # + 0.0 drops the sign of a negative zero, as cli._fnum does
        roots = [[format(float(v) + 0.0, ".15g") for v in (r.real, r.imag)]
                 for r, _ in res.pairs]
        want = [[format(float(v) + 0.0, ".15g") for v in pair]
                for pair in doc["roots"]]
        if doc["status"] != res.status or roots != want:
            out.append(f"{name}: cold CLI status/roots differ from in-process")
    return out


def _percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _args(argv)
    if not (SRC / "expode" / "__init__.py").is_file():
        print(f"error: no expode package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    # The workload process writes no bytecode into the checkout's src/.
    pinned = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  dict(os.environ, **pinned))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    ops = generate(args.workload, args.seed)
    api = _import_api()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": _commit(), "python": platform.python_version(),
        "input_hash": input_hash(ops), "ops": len(ops), "R0_s": harness.R0,
    }

    shutil.rmtree(PYCACHE, ignore_errors=True)
    try:
        _warm_up(ops, scratch)
        setup, setup_s, cli, cli_s = (([], 0.0, [], 0.0) if args.trace
                                      else _cold_processes(ops, scratch))
        imports = _import_times(scratch) if args.trace else None
    finally:
        shutil.rmtree(PYCACHE, ignore_errors=True)

    # Warm-up pass: fills caches, and its answers are the ones checked.
    forward = list(range(len(ops)))
    results = [harness.run_op(api, op, harness.direct) for op in ops]
    passes, traced_passes = [], []
    start = time.perf_counter()
    k = 0
    while (len(passes) < MIN_PASSES or len(traced_passes) < MIN_PASSES * args.trace
           or time.perf_counter() - start < args.seconds):
        order = forward if k % 2 == 0 else forward[::-1]
        # traced runs alternate traced and untraced passes, for the overhead
        traced = bool(args.trace) and (k // 2) % 2 == 0
        (traced_passes if traced else passes).append(
            harness.timed_pass(api, ops, order, traced))
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Answer checks.
    errors, known = [], {}
    expected = [f"{r.exit_code}|{r.status}|{r.text}" for r in results]
    for p in passes + traced_passes:
        for i in range(len(ops)):
            if p.texts[i] != expected[i]:
                errors.append(f"{ops[i].name}: a timed pass gave other output")
    failed_ops = 0
    for op, res in zip(ops, results):
        why = checks.problems(op, res)
        if op.known:
            known[op.name] = {"fault": op.known,
                              "outcome": "; ".join(why) if why else "mended"}
        elif why:
            errors.append(f"{op.name}: {'; '.join(why)}")
        failed_ops += bool(why)
    errors += _cli_problems(ops, results, cli)

    per_op = [_median([p.corrected[i] for p in passes]) for i in range(len(ops))]
    loops = [t for p in passes + traced_passes for t in p.loops]
    raw_total = sum(_median([p.raw[i] for p in passes]) for i in range(len(ops)))
    solves_per_s = len(ops) / sum(per_op)
    record.update({
        "passes": len(passes), "traced_passes": len(traced_passes),
        "ref_loop_median_s": _median(loops),
        "raw_solves_per_s": len(ops) / raw_total,
        "raw_setup_s": _median([s.raw for s in setup]),
        "raw_cli_ms_p50": 1e3 * _median([s.raw for _, s in cli]),
        "per_op_ms": {op.name: 1e3 * t for op, t in zip(ops, per_op)},
        "known_failing": known, "errors": errors,
    })
    if args.trace:
        metrics, overhead = _per_layer(ops, results, passes, traced_passes,
                                       imports, solves_per_s)
        record["tracing_overhead"] = overhead
        _write_spans(OUT / f"spans-{tag}.jsonl", ops, traced_passes)
    else:
        metrics = {
            "setup_s": setup_s,
            "cold_rss_mb": _median([s.rss_mb for s in setup]),
            "cli_ms_p50": 1e3 * cli_s,
            "solves_per_s": solves_per_s,
            "solve_ms_p50": 1e3 * _median(per_op),
            "solve_ms_p90": 1e3 * _percentile(per_op, 90),
            "rss_mb": rss_mb,
        }
    units = PER_LAYER if args.trace else END_TO_END
    record["metrics"] = metrics
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  commit {record['commit']}"
          f"  python {record['python']}  input {record['input_hash']}")
    print(f"passes {len(passes)} (+{len(traced_passes)} traced)  reference loop "
          f"median {1e3 * record['ref_loop_median_s']:.3f} ms (R0 "
          f"{1e3 * harness.R0:.3f} ms)  raw solves/s "
          f"{record['raw_solves_per_s']:.1f}")
    if args.trace:
        print(f"tracing overhead: {100 * record['tracing_overhead']:.1f}% of "
              "untraced solves_per_s")
    else:
        print(f"raw setup {record['raw_setup_s']:.3f} s  raw cli p50 "
              f"{record['raw_cli_ms_p50']:.1f} ms")
    for name, how in known.items():
        print(f"known-failing {name}: {how['outcome']}  [{how['fault']}]")
    for e in errors:
        print(f"ERROR {e}")
    attempted = len(ops) * (len(passes) + len(traced_passes))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed_ops * (len(passes) + len(traced_passes)),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _per_layer(ops, results, passes, traced, imports, solves_per_s):
    n = len(ops)
    metrics = {}
    for stage in PER_LAYER:
        if stage.endswith("_ms") and stage[:-3] in set(harness.STAGES.values()):
            base = stage[:-3]
            metrics[stage] = 1e3 * sum(
                _median([p.stages[i].get(base, 0.0) for p in traced])
                for i in range(n)) / n
    metrics["op.self_ms"] = 1e3 * sum(
        _median([p.corrected[i] - sum(p.stages[i].values()) for p in traced])
        for i in range(n)) / n
    metrics["import.numpy_ms"], metrics["import.expode_ms"] = imports
    solved = [r for r in results if r.particular is not None]
    metrics["solve.verify_calls"] = sum(r.verify_calls for r in results) / n
    metrics["solve.particular_terms"] = sum(
        len(r.particular.terms) for r in solved) / n
    metrics["solve.particular_coeffs"] = sum(
        sum(c != 0 for _, p in r.particular.terms for c in p.coeffs)
        for r in solved) / n
    metrics["parsing.rhs_terms"] = sum(r.rhs_terms for r in results) / n
    metrics["parsing.render_chars"] = sum(len(r.text) for r in results) / n
    traced_rate = n / sum(_median([p.corrected[i] for p in traced])
                          for i in range(n))
    return ({k: metrics[k] for k in PER_LAYER},
            (solves_per_s - traced_rate) / solves_per_s)


def _write_spans(path, ops, traced):
    with open(path, "w") as out:
        for k, p in enumerate(traced):
            for i, stage, s0, s1 in p.spans:
                out.write(json.dumps({
                    "pass": k, "op": ops[i].name, "span": stage,
                    "parent": None if stage == "op" else "op",
                    "start_ns": s0, "end_ns": s1}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
