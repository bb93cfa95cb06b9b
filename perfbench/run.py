"""The groupdual benchmark: one process, one thread, a closed loop of
seeded tasks, as a researcher's script or notebook session drives the
library.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

With --trace 0 it runs blocks of three whole decks of the workload (see
workloads.py) until --seconds have been measured, then prints the
end-to-end metrics. With --trace 1 it runs the seed's first
deck in fresh interpreters, plain and traced in turn while --seconds
allow, and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

It imports groupdual only from this checkout's src/ and fails without it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# p90 needs at least ten samples beyond it.
MIN_TASKS = 100
# Decks per block: three decks of any workload hold at least 100 tasks.
BLOCK_DECKS = 3
SETUP_REPEATS = 15
# Import cost only: the interpreter's own start-up is not groupdual's.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import groupdual, groupdual.cli\n"
    "print(time.perf_counter() - start, groupdual.__file__)\n"
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def setup_seconds():
    """Median time of `import groupdual, groupdual.cli` in a fresh
    interpreter, after one unmeasured import that writes the bytecode
    cache a CLI user would also have."""
    src = workloads.SRC
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(src)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != (src / "groupdual").resolve():
            raise SystemExit(f"error: set-up imported groupdual from {path}")
        if i:
            times.append(float(seconds))
    return statistics.median(times)


def end_to_end(workload, seed, seconds, max_size=0, min_tasks=MIN_TASKS):
    """Blocks of BLOCK_DECKS whole decks until `seconds` are measured.

    Each slot's latency is the fastest of its repeats, one per deck: load
    from other processes on a shared machine only ever slows a task, and
    the repeats lie seconds apart. The latency percentiles are over the
    slots, and the throughput is slots per deck over their summed latency.
    Whole blocks keep every slot's repeat count equal.
    """
    stream = workloads.decks(workload, seed, max_size)
    first = next(stream)
    workloads.warm_up(first)
    stream = itertools.chain([first], stream)
    by_slot = defaultdict(list)
    attempted = failed = 0
    wall = 0.0
    while True:
        start = time.perf_counter()
        for _ in range(BLOCK_DECKS):
            for task in next(stream):
                elapsed, ok = workloads.execute(task)
                by_slot[task.slot].append(elapsed)
                attempted += 1
                failed += not ok
        block_wall = time.perf_counter() - start
        wall += block_wall
        # Stop at the block boundary nearest to the requested duration.
        enough = attempted >= min_tasks and wall + block_wall / 2 >= seconds
        if enough or wall >= 4 * seconds:
            break
    passed = attempted - failed
    latency = [min(v) for v in by_slot.values()]
    metrics = {
        "tasks_per_s": _metric(passed / attempted * len(latency) / sum(latency), "1/s"),
        "task_p50_ms": _metric(statistics.median(latency) * 1000, "ms"),
        "task_p90_ms": _metric(statistics.quantiles(latency, n=10)[-1] * 1000, "ms"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "success_rate": _metric(passed / attempted, "ratio"),
    }
    return attempted, failed, metrics


def _spawn_pass(workload, seed, traced, max_size):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace_pass.py"), workload, str(seed), str(int(traced)), str(max_size)],
        stdout=subprocess.PIPE, text=True, env=env, check=True, timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(workload, seed, seconds, max_size=0):
    """Plain and traced passes of the same deck, alternating while the
    next pair still fits in `seconds` (at least one pair)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain.append(_spawn_pass(workload, seed, False, max_size))
        traced.append(_spawn_pass(workload, seed, True, max_size))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    layers = dict(traced[0]["layers"])
    steady = True
    for name, entry in layers.items():
        values = [t["layers"][name]["value"] for t in traced]
        if entry["unit"] == "s":
            layers[name] = _metric(statistics.median(values), "s")
        elif any(v != values[0] for v in values):
            steady = False
    plain_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(t["wall"] for t in traced)
    layers["trace.overhead_frac"] = _metric((traced_wall - plain_wall) / plain_wall, "ratio")
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    return attempted, failed, steady, layers


def measure(workload, seed, seconds, trace, max_size=0, min_tasks=MIN_TASKS):
    """The result object of one run; max_size and min_tasks shrink it for tests."""
    if trace:
        attempted, failed, steady, metrics = per_layer(workload, seed, seconds, max_size)
    else:
        setup = setup_seconds()
        attempted, failed, metrics = end_to_end(workload, seed, seconds, max_size, min_tasks)
        metrics["setup_s"] = _metric(setup, "s")
        steady = True
    return {
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.use_checkout_source()
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
