"""Seeded task decks for the three benchmark workloads, and the per-task
correctness checks.

A deck is one balanced round of a workload: every slot of the workload's
input pool appears once, the seed picks the concrete inputs of each slot
and the order of the deck. A run executes whole decks, so its task mix is
the same for every seed and only the inputs differ, and each slot is
measured once per deck.

Each task is one `groupdual.cli.run(argv)` invocation with stdout
captured, or one public library call (two invocations for `dual_codes`,
whose second step consumes the first step's output). The library only
ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source():
    """Import groupdual from this checkout's `src/` and nowhere else."""
    if not (SRC / "groupdual" / "__init__.py").is_file():
        raise SystemExit(f"error: no groupdual sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import groupdual

    if Path(groupdual.__file__).resolve().parent != (SRC / "groupdual").resolve():
        raise SystemExit(f"error: groupdual imported from {groupdual.__file__}")


@dataclass
class Task:
    kind: str
    # |A| or |A^n| of the ambient group; warm-up and tests pick small tasks by it.
    size: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    # Position in the deck before shuffling: the same input slot in every
    # deck of a workload.
    slot: int = -1


def execute(task):
    """Run one task: (seconds spent in the call, whether it passed).

    Any exception fails the task; the traceback goes to stderr.
    """
    start = time.perf_counter()
    try:
        out = task.call()
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        ok = bool(task.check(out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return elapsed, ok


def cli(argv):
    """One in-process CLI invocation: (exit code, captured stdout)."""
    import groupdual.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = groupdual.cli.run(argv)
    return code, out.getvalue()


def _group_arg(orders):
    return ",".join(str(d) for d in orders)


def _cli_task(kind, orders, argv, check):
    def checked(result):
        code, out = result
        return code == 0 and check(out)

    return Task(kind, oracles.cardinality(orders), lambda: cli(argv), checked)


def _set_size(text):
    """Number of elements in a subgroup printed as '{a,b,...}'."""
    return len(text.strip("{}").split(","))


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _prime_power_base(orders):
    """p if |A| is a power of the prime p, else None."""
    n = oracles.cardinality(orders)
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


# --- census ---------------------------------------------------------------

# Small groups whose Aut(A) ranges from 1 to 168 elements; every group
# recurs across the commands of a deck.
CENSUS_GROUPS = [(2,), (2, 2), (2, 4), (3, 3), (2, 8), (4, 4), (2, 2, 2), (2, 2, 3), (27,)]


def _pair_pool(orders):
    """(H, K) pairs that construct-pair supports: the size condition in an
    elementary abelian group, complementary direct summands otherwise."""
    subs = oracles.subgroups(orders)
    size = oracles.cardinality(orders)
    elementary = len(set(orders)) == 1 and _is_prime(orders[0])
    zero = frozenset([(0,) * len(orders)])
    return [
        (h, k)
        for h in subs
        for k in subs
        if len(h[0]) * len(k[0]) == size and (elementary or h[0] & k[0] == zero)
    ]


def _check_count(aut):
    def check(out):
        total, _, symmetric, _ = out.split()
        return int(total) == aut and 1 <= int(symmetric) <= aut

    return check


def _check_listing(orders, aut):
    def check(out):
        rows = json.loads(out)
        taus = [tuple(map(tuple, r["tau"])) for r in rows]
        return (
            [r["index"] for r in rows] == list(range(aut))
            and len(set(taus)) == aut
            and all(r["symmetric"] == oracles.is_symmetric(orders, t) for r, t in zip(rows, taus))
        )

    return check


def _check_congruence(aut):
    def check(out):
        sizes = [c["size"] for c in json.loads(out)]
        return sum(sizes) == aut and all(aut % s == 0 for s in sizes)

    return check


def _check_filtration(orders, p):
    size = oracles.cardinality(orders)
    levels, m = 1, oracles.exponent(orders)
    while m % p == 0:
        m //= p
        levels += 1

    def check(out):
        data = json.loads(out)
        return (
            data["mutual_duals_under_every_duality"] is True
            and len(data["levels"]) == levels
            and all(lv["ker"]["order"] * lv["im"]["order"] == size for lv in data["levels"])
        )

    return check


def _check_duals_table(orders, aut):
    size = oracles.cardinality(orders)
    proper = [len(h) for h, _ in oracles.subgroups(orders) if 1 < len(h) < size]

    def check(out):
        rows = json.loads(out)
        return len(rows) == aut and all(
            len(r["duals"]) == len(proper)
            and all(
                _set_size(d["left"]) == _set_size(d["right"]) == size // h
                for d, h in zip(r["duals"], proper)
            )
            for r in rows
        )

    return check


def _check_pair(orders, h_gens, k_gens):
    def check(out):
        tau = json.loads(out)["tau"]
        return oracles.is_symmetric(orders, tau) and all(
            oracles.pairing(orders, tau, h, k) == 0 for h in h_gens for k in k_gens
        )

    return check


def census_deck(rng):
    tasks = []
    for orders in CENSUS_GROUPS:
        g = _group_arg(orders)
        aut = oracles.aut_order(orders)
        if rng.random() < 0.5:
            argv = ["dualities", "--group", g, "--count-only"]
            tasks.append(_cli_task("dualities", orders, argv, _check_count(aut)))
        else:
            argv = ["dualities", "--group", g, "--list", "--format", "json"]
            tasks.append(_cli_task("dualities", orders, argv, _check_listing(orders, aut)))
        argv = ["congruence", "--group", g, "--format", "json"]
        tasks.append(_cli_task("congruence", orders, argv, _check_congruence(aut)))
        p = _prime_power_base(orders)
        if p is not None:
            argv = ["filtration", "--group", g, "--format", "json"]
            tasks.append(_cli_task("filtration", orders, argv, _check_filtration(orders, p)))
        argv = ["duals-table", "--group", g, "--format", "json"]
        tasks.append(_cli_task("duals-table", orders, argv, _check_duals_table(orders, aut)))
        (_, h_gens), (_, k_gens) = rng.choice(_pair_pool(orders))
        argv = ["construct-pair", "--group", g, "--format", "json", "--h-gens"]
        argv += [oracles.format_element(orders, x) for x in h_gens]
        argv += ["--k-gens"] + [oracles.format_element(orders, x) for x in k_gens]
        tasks.append(_cli_task("construct-pair", orders, argv, _check_pair(orders, h_gens, k_gens)))
    return tasks


# --- dual_codes -----------------------------------------------------------

# (base, lengths n); every d_i of a base is a power of one prime.
DUAL_CODE_SHAPES = [
    ((2, 4), (2, 3)),
    ((2, 2), (3, 4)),
    ((3,), (4, 5, 6)),
    ((4,), (3, 4, 5)),
    ((2,), (8, 9, 10)),
]
# Slots whose first dual would be larger are left out: the dual-of-dual
# step closes |D| generators, which grows as |D|^2.
MAX_DUAL_ORDER = 128


def dual_code_slots():
    return [
        (base, n, k)
        for base, lengths in DUAL_CODE_SHAPES
        for n in lengths
        for k in (1, 2, 3)
        if oracles.cardinality(base) ** n // oracles.max_code_order(base, n, k) <= MAX_DUAL_ORDER
    ]


def _dual_argv(base, n, words, index, side):
    return (
        ["dual", "--group", _group_arg(base), "--n", str(n), "--code-gens"]
        + words
        + ["--duality-index", str(index), "--side", side, "--format", "json"]
    )


def _code_words(base, n, gens):
    return [oracles.split_word(len(base), oracles.format_element(base * n, g)) for g in gens]


def dual_codes_deck(rng):
    tasks = []
    for base, n, k in dual_code_slots():
        gens, code = oracles.random_code(rng, base, n, k)
        index = rng.randrange(oracles.aut_order(base))
        side, other = rng.choice([("left", "right"), ("right", "left")])
        first = _dual_argv(base, n, _code_words(base, n, gens), index, side)
        tasks.append(_dual_task(base, n, code, first, index, other))
    return tasks


def _dual_task(base, n, code, first, index, other):
    spec = base * n
    size = oracles.cardinality(spec)
    expected = {oracles.format_element(spec, c) for c in code}

    def call():
        code1, out1 = cli(first)
        if code1 != 0:
            return code1, out1, None, None
        words = [oracles.split_word(len(base), w) for w in json.loads(out1)["elements"]]
        code2, out2 = cli(_dual_argv(base, n, words, index, other))
        return code1, out1, code2, out2

    def check(result):
        code1, out1, code2, out2 = result
        if code1 != 0 or code2 != 0:
            return False
        dual = json.loads(out1)
        back = json.loads(out2)["elements"]
        return (
            dual["order"] * len(code) == size
            and len(set(dual["elements"])) == dual["order"]
            and set(back) == expected
            and len(back) == len(expected)
        )

    return Task("dual", size, call, check)


# --- macwilliams ----------------------------------------------------------

# Cyclotomic degrees 2 to 6: Z[zeta_4] for (2,4), Z[zeta_3] for (3,3),
# Z[zeta_5], Z[zeta_8], Z[zeta_7], Z[zeta_9].
MACWILLIAMS_BASES = [(8,), (9,), (5,), (7,), (3, 3), (2, 4)]


def _check_macwilliams(enumerator, dual_order):
    def check(out):
        data = json.loads(out)
        if enumerator == "hamming":
            total = sum(data["direct"])
        else:
            total = sum(t["coeff"] for t in data["direct"])
        return data["match"] is True and data["transformed"] == data["direct"] and total == dual_order

    return check


def _macwilliams_task(rng, base, n, k, enumerator):
    draw = oracles.rich_code if enumerator == "complete" else oracles.random_code
    gens, code = draw(rng, base, n, k)
    index = rng.randrange(oracles.aut_order(base))
    side = rng.choice(["left", "right"])
    argv = ["macwilliams", "verify", "--group", _group_arg(base), "--n", str(n), "--code-gens"]
    argv += _code_words(base, n, gens)
    argv += ["--duality-index", str(index), "--enumerator", enumerator, "--side", side, "--format", "json"]
    dual_order = oracles.cardinality(base) ** n // len(code)
    return _cli_task("macwilliams", base * n, argv, _check_macwilliams(enumerator, dual_order))


def _poisson_task(rng, orders):
    """poisson_check(H, f) for a random subgroup H and a random function f
    with values in Z[zeta_m]-valued polynomials."""
    import groupdual

    m = oracles.exponent(orders)
    spec = oracles.cardinality(orders)
    gens = [tuple(rng.randrange(d) for d in orders) for _ in range(rng.randint(1, len(orders)))]
    values = {
        a: {key: [rng.randint(-4, 4) for _ in range(m)] for key in ("x", "y")}
        for a in itertools.product(*(range(d) for d in orders))
    }

    def call():
        A = groupdual.make_group(orders)
        H = groupdual.subgroup_closure(A, [A.element(g) for g in gens])
        f = {a: {key: groupdual.CycInt(m, tuple(c)) for key, c in v.items()} for a, v in values.items()}
        return groupdual.poisson_check(H, f)

    return Task("poisson_check", spec, call, lambda result: result is True)


def macwilliams_deck(rng):
    tasks = []
    for base in MACWILLIAMS_BASES:
        for n in (2, 3):
            for k in (1, 2):
                tasks.append(_macwilliams_task(rng, base, n, k, "complete"))
        tasks.append(_macwilliams_task(rng, base, 3, 2, "hamming"))
        tasks.append(_poisson_task(rng, base))
    return tasks


DECKS = {
    "census": census_deck,
    "dual_codes": dual_codes_deck,
    "macwilliams": macwilliams_deck,
}


def decks(workload, seed, max_size=0):
    """Endless seeded stream of decks; max_size > 0 keeps only tasks whose
    ambient group has at most that many elements."""
    rng = random.Random(seed)
    make = DECKS[workload]
    while True:
        deck = make(rng)
        for slot, task in enumerate(deck):
            task.slot = slot
        rng.shuffle(deck)
        yield [t for t in deck if t.size <= max_size] if max_size else deck


def warm_up(deck):
    """Run the deck's smallest task once, untimed, so one-time lazy set-up
    inside the session (imports, memoised cyclotomic polynomials) is done."""
    execute(min(deck, key=lambda t: t.size))
