"""Opt-in cProfile dump of one workload's first deck, for finding
optimisation candidates. Never part of a measured run: cProfile adds cost
to every Python call and shifts the proportions.

    python3 perfbench/hotspots.py --workload census --seed 1 --top 25
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    workloads.use_checkout_source()
    deck = next(workloads.decks(args.workload, args.seed))
    workloads.warm_up(deck)
    profiler = cProfile.Profile()
    profiler.enable()
    for task in deck:
        workloads.execute(task)
    profiler.disable()
    pstats.Stats(profiler).sort_stats("tottime").print_stats(args.top)


if __name__ == "__main__":
    main()
