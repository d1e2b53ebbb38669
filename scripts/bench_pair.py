#!/usr/bin/env python3
"""Paired benchmark runs of two commits, recorded as ``BENCH_<n>.json``.

Run from the root of a checkout:

    python3 scripts/bench_pair.py --number 23 --base HEAD~1 --head HEAD \\
        --workload realize:10 --workload catalog:3 --workload duals:3

Each commit is checked out once, in a temporary ``git worktree``.  Every pair
runs ``perfbench/run.py`` unchanged (``--trace 0``) on both sides with the
same seed, the first pair of a workload with seed ``--seed`` and each next
pair with the next seed; the side that runs first alternates from pair to
pair.  The run length is always ``run_seconds`` of this checkout's
``BENCHMARK.json``.  The file records both shas, the Python and numpy
versions, ``nproc``, every run's answer counts and metrics and, per
workload and side, the median and interquartile range (inclusive
quartiles) of each metric.  The worktrees are removed at the end,
also when a run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def spread(values: list[float]) -> dict:
    """Median, inclusive quartiles and their distance of one metric."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


def summarize(runs: list[dict]) -> dict:
    """``{workload: {side: {metric: spread}}}`` over the runs, which carry
    ``workload``, ``side`` and ``metrics`` as ``{name: value}``."""
    values: dict = {}
    for run in runs:
        side = values.setdefault(run["workload"], {}).setdefault(run["side"], {})
        for name, value in run["metrics"].items():
            side.setdefault(name, []).append(value)
    return {
        workload: {
            side: {name: spread(vals) for name, vals in metrics.items()}
            for side, metrics in sides.items()
        }
        for workload, sides in values.items()
    }


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its answer
    counts and metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench exited {proc.returncode} in {checkout}: {proc.stderr.strip()}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def parse_plan(items: list[str]) -> list[tuple[str, int]]:
    """``NAME:PAIRS`` items as (workload, number of pairs)."""
    plan = []
    for item in items:
        name, _, count = item.partition(":")
        if not name or not count.isdigit() or int(count) < 1:
            raise SystemExit(f"bench_pair: --workload wants NAME:PAIRS, got {item!r}")
        plan.append((name, int(count)))
    return plan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True,
                        help="write BENCH_<number>.json in the checkout's root")
    parser.add_argument("--base", default="HEAD~1", help="parent revision")
    parser.add_argument("--head", default="HEAD", help="changed revision")
    parser.add_argument("--workload", action="append", metavar="NAME:PAIRS",
                        help="default: realize:5, catalog:3 and duals:3")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()

    plan = parse_plan(args.workload or ["realize:5", "catalog:3", "duals:3"])
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.base, args.head))}
    record = {
        "number": args.number,
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": seconds,
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        try:
            for side in SIDES:
                git("worktree", "add", "--detach", str(trees[side]), shas[side])
            for workload, pairs in plan:
                for pair in range(pairs):
                    seed = args.seed + pair
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for first, side in enumerate(order):
                        run = run_bench(trees[side], workload, seed, seconds)
                        record["runs"].append({
                            "workload": workload, "pair": pair, "seed": seed,
                            "side": side, "ran_first": first == 0, **run,
                        })
                        print(f"bench_pair: {workload} pair {pair} {side}:"
                              f" {run['metrics']}", file=sys.stderr)
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
            git("worktree", "prune")
    record["summary"] = summarize(record["runs"])
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_pair: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
