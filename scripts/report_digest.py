"""One digest per workload of every report `expode` prints for it.

Runs `expode.cli.main` in this process, once as text and once with
--json, on every operation that perfbench/workloads.py generates for the
chosen workloads and seeds, and hashes what each call prints and returns.
Verify candidates follow a `--`, so a candidate that starts with '-' reads
the same to every version of the command line.  Two source trees whose
digests agree print byte-identical reports and exit codes on those inputs.

Run:  python3 scripts/report_digest.py [--src DIR] [--workloads corpus,...]
                                       [--seeds 0-14]

Each output line reads `workload seeds count sha256`; `count` is the
number of reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _argv(op) -> list[list[str]]:
    """The operation's text and --json command lines."""
    if op.kind == "verify":
        return [["verify", op.equation, *flags, "--", op.candidate]
                for flags in ([], ["--json"])]
    return [op.argv(), op.argv() + ["--json"]]


def _report(main, argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the expode package")
    parser.add_argument("--workloads", default="corpus,high_order,rich_forcing")
    parser.add_argument("--seeds", default="0-14",
                        help="seed list such as 0-14 or 1,3,5")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    from expode.cli import main as cli_main
    from workloads import generate

    for workload in args.workloads.split(","):
        total, count = hashlib.sha256(), 0
        for seed in _seeds(args.seeds):
            for op in generate(workload, seed):
                for cmd in _argv(op):
                    total.update(_report(cli_main, cmd))
                    count += 1
        print(f"{workload} {args.seeds} {count} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
