#!/usr/bin/env python3
"""Benchmark of tffcomb's table build, certificate dualities and realizer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Workloads are ``catalog``, ``duals`` and ``realize`` (see README.md).  The run
builds the workload's inputs from the seed, runs whole rounds of its ops in
one closed loop (one caller, BLAS pinned to one thread) until the ops have
taken ``--seconds`` (to the nearest whole round), checks every answer, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the same rounds run once
untraced and once with spans around every call into tffcomb, and the metrics
are the per-layer ones (per round), with the spans saved under
``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7


def load_program():
    """Import tffcomb from this checkout's ``src`` and the reference tables
    from ``tests/refdata.py``; exit 1 when the checkout lacks them."""
    package = ROOT / "src" / "tffcomb" / "__init__.py"
    tables = ROOT / "tests" / "refdata.py"
    if not package.is_file() or not tables.is_file():
        sys.exit(f"perfbench: {package} or {tables} is missing; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import tffcomb

    if Path(tffcomb.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported tffcomb from {tffcomb.__file__}, not {package}")
    spec = importlib.util.spec_from_file_location("perfbench_refdata", tables)
    refdata = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refdata)
    return refdata


def set_up(name: str, seed: int):
    """Everything before the first timed op: imports, inputs, warm-up."""
    refdata = load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, refdata)
    workload.warm_up()
    gc.collect()
    gc.freeze()
    return workload, refdata


def run_rounds(workload, rec, seconds: float | None, rounds: int | None) -> list[float]:
    """Whole rounds until the ops have taken ``seconds``, to the nearest
    round boundary (at least one round), or exactly ``rounds`` rounds;
    returns each round's ops per second."""
    rates = []
    while True:
        first, busy = len(rec.latencies), rec.busy
        workload.round(rec)
        gc.collect()
        last = rec.busy - busy
        rates.append((len(rec.latencies) - first) / last)
        if rounds is not None and len(rates) >= rounds:
            return rates
        if rounds is None and rec.busy >= seconds - last / 2:
            return rates


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of the time from spawning the process to
    the end of its set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe exited {probe.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("catalog", "duals", "realize"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    workload, refdata = set_up(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    from checks import checks_catch_wrong_answers
    from tracing import PER_LAYER, Tracer
    from workloads import Recorder

    rec = Recorder()
    rates = run_rounds(workload, rec, args.seconds, None)
    if args.trace:
        untraced = rec.busy
        tracer = Tracer()
        tracer.install()
        try:
            run_rounds(workload, rec, None, len(rates))
        finally:
            tracer.remove()
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    misses = checks_catch_wrong_answers(refdata)
    for line in rec.errors + misses:
        print(f"perfbench: {line}", file=sys.stderr)

    if args.trace:
        figures = tracer.layer_metrics(len(rates))
        figures["trace.overhead_s"] = (rec.busy - 2 * untraced) / len(rates)
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        lat = rec.latencies
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_tail_ms": {
                "value": statistics.quantiles(lat, n=100)[workload.tail_percentile - 1] * 1e3,
                "unit": "ms",
            },
            "setup_s": {"value": setup_seconds(args.workload, args.seed), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not misses,
        "attempted": len(rec.latencies),
        "failed": len(rec.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
