"""Benchmark of hafnet's entry points, run from the root of a checkout.

    python3 perfbench/run.py --workload {static,timevary,oracle} \
        --seed N --seconds S --trace {0,1}

The run imports hafnet from the checkout's `src/`, runs whole rounds of
items (see workloads.py) for S seconds in this one process, checks every
item's output against computations made apart from hafnet (checks.py) and
prints one JSON object as the last line of standard output:

* `--trace 0`: the end-to-end metrics `setup_s`, `solves_per_s`,
  `item_p50_ms` and `peak_rss_mb`. The three times are normalised to a
  reference host speed: each item (and each set-up) is bracketed by the
  fixed kernel of calibrate.py, and its wall time is scaled by
  `REF_KERNEL_S` over the median of the kernel times around it;
* `--trace 1`: each item runs once untraced and once traced (tracing.py);
  the per-layer metrics are averaged per traced item, and
  `trace.overhead_pct` compares the two timings.

A JSON file with every item's raw and normalised timing, the kernel times
(and the span table when traced) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads

# One BLAS thread: the benchmark measures hafnet's single-threaded path.
# numpy is first imported by workloads.setup, after this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# A fresh interpreter doing what this process does before its first item.
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import workloads; workloads.setup(sys.argv[2]); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def speed_factors(kernel_times: list) -> list:
    """Scale factor of the timing between kernel runs k and k+1: the
    reference kernel time over the median of the (up to) four kernel times
    around it, so a single disturbed kernel run moves no factor far."""
    n = len(kernel_times) - 1
    return [
        calibrate.REF_KERNEL_S / statistics.median(kernel_times[max(0, k - 1) : k + 3])
        for k in range(n)
    ]


def measure_setup(workload: str) -> tuple:
    """Seconds from launching a fresh interpreter until it has done what this
    process does before its first item, SETUP_REPEATS times, each bracketed
    by runs of the calibration kernel. The child reads the same system-wide
    monotonic clock when it is ready. Returns (setup times, kernel times)."""
    times, kernel = [], [calibrate.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(HERE), workload],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            capture_output=True,
            text=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
        kernel.append(calibrate.kernel_seconds())
    return times, kernel


class Item:
    """One entry-point call: its inputs, output, wall time and verdict."""

    def __init__(self, k: int, cfg, master_seed: int):
        self.k, self.cfg, self.master_seed = k, cfg, master_seed
        self.rows = None
        self.seconds = None
        self.traced_seconds = None
        self.problems: list = []

    @property
    def ok(self) -> bool:
        return self.rows is not None and not self.problems


def run_item(wl: workloads.Workload, item: Item, out_dir: Path, tracer=None) -> None:
    """Time one call; with a tracer, time a second, traced call and require
    the same output."""
    try:
        t0 = time.perf_counter()
        rows = wl.run(item.cfg, item.master_seed, out_dir)
        item.seconds = time.perf_counter() - t0
        if tracer is not None:
            with tracer:
                t0 = time.perf_counter()
                traced = wl.run(item.cfg, item.master_seed, out_dir)
                item.traced_seconds = time.perf_counter() - t0
            if traced != rows:
                item.problems.append("traced run returned different rows")
        item.rows = rows
    except Exception:  # an item that raises is a failed operation; the run goes on
        item.problems.append(traceback.format_exc())


def run_items(wl: workloads.Workload, seed: int, seconds: float, out_dir: Path, tracer=None) -> tuple:
    """Whole rounds of items for about `seconds` of wall time: a round starts
    only while at least half of the last round's time is left. The kernel of
    calibrate.py runs before every item and after the last one. Returns
    (items, kernel times)."""
    items, kernel = [], []
    t_end = time.perf_counter() + seconds
    last_round = 0.0
    while not items or time.perf_counter() + 0.5 * last_round < t_end:
        t0 = time.perf_counter()
        for _ in range(workloads.ROUND):
            cfg, master_seed = wl.item(seed, len(items))
            item = Item(len(items), cfg, master_seed)
            kernel.append(calibrate.kernel_seconds())
            run_item(wl, item, out_dir, tracer)
            items.append(item)
        last_round = time.perf_counter() - t0
    kernel.append(calibrate.kernel_seconds())
    return items, kernel


def check_items(wl: workloads.Workload, items: list) -> bool:
    """Check every item that ran; return False if any output is wrong."""
    correct = True
    for item in items:
        if item.rows is None:
            continue
        problems = wl.check(item.cfg, item.master_seed, item.rows)
        if problems:
            correct = False
            item.problems.extend(problems)
    return correct


def end_to_end(items: list, item_factors: list, setup_times: list, setup_factors: list, peak_rss_mb: float) -> dict:
    """The end-to-end metrics, every time scaled to the reference host speed."""
    ok = [(it, f) for it, f in zip(items, item_factors) if it.ok]
    secs = [it.seconds * f for it, f in ok]
    decisions = sum(len(it.rows) for it, _ in ok)
    setup = [t * f for t, f in zip(setup_times, setup_factors)]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "solves_per_s": {"value": decisions / sum(secs) if secs else 0.0, "unit": "1/s"},
        "item_p50_ms": {"value": 1e3 * statistics.median(secs) if secs else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(items: list, tracer) -> dict:
    done = [it for it in items if it.traced_seconds is not None]
    out = {name: {"value": v, "unit": u} for name, (v, u) in tracer.layer_metrics(len(done)).items()}
    plain = sum(it.seconds for it in done)
    traced = sum(it.traced_seconds for it in done)
    out["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0) if plain else 0.0, "unit": "%"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_times, setup_kernel = ([], []) if args.trace else measure_setup(args.workload)
    wl = workloads.setup(args.workload)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = RESULTS / f"work-{tag}-{os.getpid()}"
    try:
        items, item_kernel = run_items(wl, args.seed, args.seconds, out_dir, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = check_items(wl, items)

    item_factors = speed_factors(item_kernel)
    if tracer is not None:
        metrics = per_layer(items, tracer)
    else:
        metrics = end_to_end(items, item_factors, setup_times, speed_factors(setup_kernel), peak_rss_mb)
    failed = sum(not it.ok for it in items)
    for it in items:
        for problem in it.problems:
            print(f"item {it.k} (master seed {it.master_seed}): {problem}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    detail = {
        "args": vars(args),
        "setup_s": setup_times,
        "setup_kernel_s": setup_kernel,
        "item_kernel_s": item_kernel,
        "items": [
            {"k": it.k, "master_seed": it.master_seed, "seconds": it.seconds,
             "speed_factor": f, "traced_seconds": it.traced_seconds, "ok": it.ok}
            for it, f in zip(items, item_factors)
        ],
        "metrics": metrics,
        "spans": tracer.spans() if tracer is not None else None,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    result = {"correct": correct, "attempted": len(items), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
