"""One digest per workload of every report `expode` prints for it, or a
report-by-report comparison of two source trees.

Runs `expode.cli.main` in this process, once as text and once with
--json, on every operation that perfbench/workloads.py generates for the
chosen workloads and seeds, and hashes what each call prints and returns.
Verify candidates follow a `--`, so a candidate that starts with '-' reads
the same to every version of the command line.  Two source trees whose
digests agree print byte-identical reports and exit codes on those inputs.

Run:  python3 scripts/report_digest.py [--src DIR] [--workloads corpus,...]
                                       [--seeds 0-14]
      python3 scripts/report_digest.py --src OLD --src NEW [...]

With one --src (default: this checkout's src/), each output line reads
`workload seeds count sha256`; `count` is the number of reports.  With two,
each workload gets a line `workload seeds count changed exits_changed`: the
number of reports whose bytes differ and the number whose exit code
differs, followed by one line `  seed S op: OLD -> NEW` for each operation
whose exit code changed.
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


def _report(main, argv: list[str]) -> tuple[object, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode()


def _reports(src: str, workload: str, seeds: list[int]):
    """Yield (seed, op name, exit code, report bytes) for every report that
    the expode package under src prints for the workload, in a fixed order."""
    from workloads import generate

    for name in [m for m in sys.modules if m.partition(".")[0] == "expode"]:
        del sys.modules[name]
    path = str(Path(src).resolve())
    sys.path.insert(0, path)
    try:
        from expode.cli import main

        for seed in seeds:
            for op in generate(workload, seed):
                for cmd in _argv(op):
                    yield (seed, op.name, *_report(main, cmd))
    finally:
        sys.path.remove(path)


def _compare(old: str, new: str, workload: str, seeds: list[int],
             label: str) -> None:
    before = [(code, hashlib.sha256(text).digest())
              for _, _, code, text in _reports(old, workload, seeds)]
    changed, exits, moved = 0, 0, {}
    for (seed, name, code, text), (old_code, old_hash) in zip(
            _reports(new, workload, seeds), before, strict=True):
        changed += hashlib.sha256(text).digest() != old_hash
        if code != old_code:
            exits += 1
            moved.setdefault((seed, name), (old_code, code))
    print(f"{workload} {label} {len(before)} {changed} {exits}")
    for (seed, name), (a, b) in moved.items():
        print(f"  seed {seed} {name}: {a} -> {b}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append",
                        help="directory holding the expode package; give it "
                             "twice to compare two trees (default: src/)")
    parser.add_argument("--workloads", default="corpus,high_order,rich_forcing")
    parser.add_argument("--seeds", default="0-14",
                        help="seed list such as 0-14 or 1,3,5")
    args = parser.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    if len(srcs) > 2:
        parser.error("--src takes one tree, or two to compare")

    sys.path.insert(0, str(ROOT / "perfbench"))
    seeds = _seeds(args.seeds)
    for workload in args.workloads.split(","):
        if len(srcs) == 2:
            _compare(*srcs, workload, seeds, args.seeds)
            continue
        total, count = hashlib.sha256(), 0
        for _, _, _, text in _reports(srcs[0], workload, seeds):
            total.update(text)
            count += 1
        print(f"{workload} {args.seeds} {count} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
