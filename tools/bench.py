"""A/B runs of the benchmark: the working tree against an earlier commit.

Usage, from any directory:

    python tools/bench.py ab REV --workload W [--pairs N] [--seconds S] [--seed K]

REV (the parent side) is checked out into a temporary ``git worktree``,
which is removed again however the run ends.  ``perfbench/run.py`` then
makes N pairs of untraced runs, one run at a time, each side in its own
checkout: the parent runs first in pairs 1, 3, 5, ... and the working
tree (the change side) first in pairs 2, 4, 6, ..., so that a drift in
host speed does not favour one side.  For each end-to-end metric of
BENCHMARK.json it prints the parent's median and interquartile range,
the change's median, and the pairs in which the change did better in the
metric's direction; then each side's failed and attempted jobs, summed
over its runs.  The metrics are the host-scaled ones of run.py's result
line.

It refuses to run when ``perfbench/`` or ``BENCHMARK.json`` differ
between REV and the working tree, since the two sides would then not run
the same benchmark.  Exits 1 if any run reports ``correct: false``, and
2 if it refuses or a run fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")


class Refused(Exception):
    """The A/B run cannot start or cannot go on."""


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise Refused(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout


def benchmark_changes(rev: str) -> list[str]:
    """The benchmark's files that differ between *rev* and the working
    tree, or are new in the working tree."""
    changed = git("diff", "--name-only", rev, "--", *BENCHMARK_FILES).split()
    return changed + git("ls-files", "--others", "--exclude-standard", "--", *BENCHMARK_FILES).split()


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """One untraced ``perfbench/run.py`` run in *checkout*: its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise Refused(f"perfbench/run.py exited {proc.returncode} in {checkout}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(runs: dict[str, list[dict]]) -> None:
    parent, change = runs["parent"], runs["change"]
    print(f"{'metric':<12} {'better':<7} {'parent median':>14} {'parent IQR':>22} "
          f"{'change median':>14} {'change':>8} {'wins':>6}")
    for metric in SPEC["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        b, a = statistics.median(before), statistics.median(after)
        q1, q3 = quartiles(before)
        wins = sum(sign * (y - x) > 0 for x, y in zip(before, after))
        delta = f"{(a - b) / b:+.1%}" if b else "n/a"
        print(f"{name:<12} {metric['better']:<7} {b:>14.6g} {f'{q1:.6g}-{q3:.6g}':>22} "
              f"{a:>14.6g} {delta:>8} {f'{wins}/{len(before)}':>6}")
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side} failed/attempted: {failed}/{attempted}")


def ab(args: argparse.Namespace) -> int:
    sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}").strip()
    changed = benchmark_changes(sha)
    if changed:
        raise Refused(f"the benchmark differs between {args.rev} and the working tree: {', '.join(changed)}")
    tmp = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    checkouts = {"parent": tmp / "parent", "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    try:
        git("worktree", "add", "--detach", str(checkouts["parent"]), sha)
        print(f"{args.workload}, seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s runs; "
              f"parent {args.rev} ({sha[:10]}), change the working tree; parent first in odd pairs",
              flush=True)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(checkouts[side], args))
            line = "  ".join(
                f"{side} " + " ".join(f"{k} {m['value']:.6g}" for k, m in runs[side][-1]["metrics"].items())
                for side in order)
            print(f"pair {i + 1}: {line}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(checkouts["parent"])], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
    report(runs)
    wrong = [f"{side} run {j + 1}" for side, results in runs.items()
             for j, r in enumerate(results) if r["correct"] is not True]
    if wrong:
        print("incorrect runs: " + ", ".join(wrong))
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("ab", help="alternate runs of REV and the working tree")
    p.add_argument("rev", help="the parent side: any commit git names")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    try:
        return ab(args)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
