"""Frontier sweep: where today's expode stops certifying its answers.

    python3 perfbench/frontier.py

Not a workload and not gated.  For every order n in {2, 4, 8, 16, 24, 32},
forcing degree j in {0, 4, 8, 12, 16} and forcing term count T in
{1, 4, 16}, it builds one seeded real-coefficient operator (roots on the
quarter lattice, modulus <= 1.2, multiplicity <= 2) with T forcing terms
e^(lambda x) p(x), deg p = j, each exponent at distance >= 0.5 from every
root, and solves it in a fresh process with a timeout of TIMEOUT_S.  Each
row gives the outcome class (verified, unverified, exit 2, exit 3, crash,
timeout), what the exact checks say of the answer, and the time of each
stage.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import harness
import run
from workloads import (EP, far_points, lattice, pick_roots, poly_from_roots,
                       random_poly, solve_op)

ORDERS = (2, 4, 8, 16, 24, 32)
DEGREES = (0, 4, 8, 12, 16)
TERMS = (1, 4, 16)
SEED = 0
TIMEOUT_S = 10.0
STAGE_COLUMNS = ("parsing.compile_equation", "operators.factor_op",
                 "solve.basis", "solve.particular_solution",
                 "solve.verify_solution", "parsing.render")


def case(n: int, j: int, t: int):
    rng = random.Random(f"frontier:{n}:{j}:{t}:{SEED}")
    roots = pick_roots(rng, n, lattice(Fraction(1, 4), 1.2), 2, True)
    lams = rng.sample(far_points(lattice(Fraction(1, 2), 3.0), roots, 0.5), t)
    f = EP({lam: random_poly(rng, j, True) for lam in lams})
    return solve_op(f"frontier/n{n}-j{j}-T{t}", poly_from_roots(roots), f, roots)


def _child(n, j, t) -> None:
    op = case(n, j, t)
    api = run._import_api()
    tracer = harness.Tracer()
    res = harness.run_op(api, op, tracer)
    stages = {}
    for stage, s0, s1 in tracer.spans:
        stages[stage] = stages.get(stage, 0.0) + (s1 - s0) * 1e-6
    outcome = {0: "verified", 1: "unverified", -1: "crash"}.get(
        res.exit_code, f"exit {res.exit_code}")
    print(json.dumps({"outcome": outcome, "stages_ms": stages}), flush=True)
    why = checks.problems(op, res) if res.exit_code in (0, 1) else []
    print(json.dumps({"exact": "; ".join(why) if why else "right"}), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--case", type=int, nargs=3, metavar=("N", "J", "T"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.case:
        _child(*args.case)
        return 0
    root = Path(__file__).resolve().parent.parent
    print("| n | j | T | outcome | exact check | "
          + " | ".join(s.split(".")[-1] + " ms" for s in STAGE_COLUMNS) + " |")
    print("|" + "---|" * (5 + len(STAGE_COLUMNS)))
    for n in ORDERS:
        for j in DEGREES:
            for t in TERMS:
                argv = [sys.executable, __file__, "--case", str(n), str(j),
                        str(t)]
                try:
                    done = subprocess.run(argv, capture_output=True, text=True,
                                          cwd=root, timeout=TIMEOUT_S)
                    lines = done.stdout.splitlines()
                except subprocess.TimeoutExpired as exc:
                    out = exc.stdout or b""
                    lines = (out.decode() if isinstance(out, bytes)
                             else out).splitlines()
                    if not lines:
                        lines = ['{"outcome": "timeout", "stages_ms": {}}']
                first = json.loads(lines[0]) if lines else {
                    "outcome": "crash", "stages_ms": {}}
                exact = json.loads(lines[1])["exact"] if len(lines) > 1 else "-"
                st = first["stages_ms"]
                cells = [f"{st[s]:.1f}" if s in st else "-" for s in STAGE_COLUMNS]
                print(f"| {n} | {j} | {t} | {first['outcome']} | {exact[:60]} | "
                      + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
