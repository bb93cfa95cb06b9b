"""One untimed-set-up pass over a workload's first deck, in a fresh
interpreter so no in-process cache leaks between the plain and the traced
pass. Prints one JSON line with the pass's wall time, task counts and,
when traced, the per-layer metrics; spans go to .perfbench-out/.

Usage: python3 perfbench/trace_pass.py WORKLOAD SEED TRACED(0|1) [MAX_SIZE]
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from tracer import Tracer

OUT = workloads.ROOT / ".perfbench-out"


def run_pass(workload, seed, traced, max_size=0):
    workloads.use_checkout_source()
    deck = next(workloads.decks(workload, seed, max_size))
    workloads.warm_up(deck)
    tracer = Tracer() if traced else None
    attempted = failed = 0
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, task in enumerate(deck):
            if tracer is not None:
                tracer.task = i
            _, ok = workloads.execute(task)
            attempted += 1
            failed += not ok
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"wall": wall, "attempted": attempted, "failed": failed}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(OUT / f"spans-{workload}.json")
    return result


if __name__ == "__main__":
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    max_size = int(sys.argv[4]) if len(sys.argv) > 4 else 0
    print(json.dumps(run_pass(workload, seed, traced, max_size)))
