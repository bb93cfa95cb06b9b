#!/usr/bin/env python3
"""Census of dualities for a list of groups: totals, symmetric counts,
congruence-class sizes.

Usage: python3 scripts/duality_census.py 2,2 2,4 3,3
"""

import sys

from groupdual import aut_order, congruence_classes, count_symmetric_dualities, make_group


def main() -> int:
    specs = sys.argv[1:] or ["2,2", "2,4", "3,3"]
    for spec in specs:
        A = make_group([int(d) for d in spec.split(",")])
        sizes = sorted(len(c) for c in congruence_classes(A))
        print(
            f"Z/{' x Z/'.join(map(str, A.orders))}: "
            f"{aut_order(A)} dualities, {count_symmetric_dualities(A)} symmetric, "
            f"class sizes {sizes}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
