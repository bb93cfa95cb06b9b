"""Command-line surface: every library operation, text or JSON output.

Exit codes: 0 success, 1 domain error, 2 usage error.  Data goes to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .codes import (
    UnsupportedPairError,
    _filtration_is_dual,
    code_from_generators,
    construct_duality_for_pair,
    duals_table,
    left_dual,
    mult_by_p_filtration,
    right_dual,
    search_duality_for_pair,
)
from .dualities import all_dualities, congruence_classes, is_symmetric
from .enumerators import (
    NonIntegralError,
    cwe,
    hwe,
    mw_complete_transform,
    mw_hamming_transform,
)
from .groups import (
    GroupSpec,
    all_subgroups,
    make_group,
    primary_decomposition,
    subgroup_closure,
)
from .limits import LimitExceededError, Limits
from .tables import paper_table


def _parse_group(text: str) -> GroupSpec:
    try:
        orders = [int(part) for part in text.split(",")]
    except ValueError:
        raise SystemExit(_usage_error(f"bad group orders {text!r}"))
    return make_group(orders)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _limits(args) -> Limits:
    base = Limits.from_env()
    if getattr(args, "limit", None) is not None:
        return Limits(
            enumeration_bound=args.limit, scan_bound=args.limit
        )
    return base


def _emit(args, text_body: str, json_body) -> None:
    if args.format == "json":
        print(json.dumps(json_body, sort_keys=True))
    else:
        sys.stdout.write(text_body)


def _sub_json(A: GroupSpec, sub) -> dict:
    return {
        "order": sub.order,
        "elements": [A.format_element(e) for e in sub.elements],
    }


def _cmd_group(args) -> int:
    A = _parse_group(args.group)
    info = {
        "orders": list(A.orders),
        "exponent": A.exponent,
        "cardinality": A.cardinality,
        "weights": list(A.weights),
        "primary": {
            str(p): list(part.orders)
            for p, part in primary_decomposition(A).items()
        },
    }
    lines = [
        f"group Z/{' x Z/'.join(str(d) for d in A.orders)}",
        f"exponent {A.exponent}  cardinality {A.cardinality}  "
        f"weights {','.join(str(w) for w in A.weights)}",
    ]
    if args.subgroups:
        subs = all_subgroups(A, _limits(args))
        info["subgroups"] = [_sub_json(A, s) for s in subs]
        lines.append(f"{len(subs)} subgroups:")
        for s in subs:
            lines.append(f"  order {s.order}: {s}")
    _emit(args, "\n".join(lines) + "\n", info)
    return 0


def _cmd_dualities(args) -> int:
    A = _parse_group(args.group)
    dualities = all_dualities(A, _limits(args))
    sym = [is_symmetric(phi) for phi in dualities]
    if args.count_only:
        line = f"{len(dualities)} total, {sum(sym)} symmetric"
        _emit(args, line + "\n", {"total": len(dualities), "symmetric": sum(sym)})
        return 0
    rows = []
    lines = []
    for i, (phi, s) in enumerate(zip(dualities, sym)):
        mat = [list(r) for r in phi.tau.matrix]
        rows.append({"index": i, "tau": mat, "symmetric": s})
        flag = "symmetric" if s else ""
        lines.append(f"{i}: {mat} {flag}".rstrip())
    _emit(args, "\n".join(lines) + "\n", rows)
    return 0


def _duality_by_index(A: GroupSpec, index: int, limits: Limits):
    dualities = all_dualities(A, limits)
    if not 0 <= index < len(dualities):
        raise IndexError(
            f"duality index {index} out of range (0..{len(dualities) - 1})"
        )
    return dualities[index]


def _parse_code(A: GroupSpec, n: int, gen_words: Sequence[str]):
    gens = [
        PowerParse(A, n).parse(word) for word in gen_words
    ]
    return code_from_generators(A, n, gens)


class PowerParse:
    """Parse a length-n codeword as n base-group element words joined by ':'
    (or a single word when n = 1)."""

    def __init__(self, A: GroupSpec, n: int) -> None:
        from .codes import PowerGroup

        self.power = PowerGroup(A, n)

    def parse(self, word: str):
        A = self.power.base
        parts = word.split(":") if self.power.n > 1 else [word]
        if len(parts) != self.power.n:
            raise ValueError(f"expected {self.power.n} blocks in {word!r}")
        return self.power.word([A.parse_element(p) for p in parts])


def _cmd_dual(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    phi = _duality_by_index(A, args.duality_index, limits)
    C = _parse_code(A, args.n, args.code_gens)
    fn = left_dual if args.side == "left" else right_dual
    D = fn(C, phi, limits)
    spec = C.power.spec
    words = [spec.format_element(e) for e in D.subgroup.elements]
    _emit(
        args,
        f"{args.side} dual ({D.order} elements): " + " ".join(words) + "\n",
        {"side": args.side, "order": D.order, "elements": words},
    )
    return 0


def _cmd_duals_table(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    subs = all_subgroups(A, limits)
    if args.order:
        subs = [s for s in subs if s.order == args.order]
    else:
        subs = [s for s in subs if 1 < s.order < A.cardinality]
    rows = duals_table(A, subs, limits=limits)
    # The duals are a few distinct subgroups repeated across many rows;
    # each is formatted once.
    name = cache(str)
    json_rows = []
    lines = ["subgroups: " + " ".join(str(s) for s in subs)]
    for row in rows:
        duals = [
            {"left": name(d["left"]), "right": name(d["right"])}
            for d in row["duals"]
        ]
        json_rows.append({"tau": row["tau"], "duals": duals})
        cells = "  ".join(f"L={d['left']} R={d['right']}" for d in duals)
        lines.append(f"{row['tau']}: {cells}")
    _emit(args, "\n".join(lines) + "\n", json_rows)
    return 0


def _cmd_congruence(args) -> int:
    A = _parse_group(args.group)
    classes = congruence_classes(A, _limits(args))
    json_out = [
        {
            "size": len(cls),
            "representative": [list(r) for r in cls[0].tau.matrix],
        }
        for cls in classes
    ]
    lines = [f"{len(classes)} congruence classes"]
    for entry in json_out:
        lines.append(f"  size {entry['size']}, rep {entry['representative']}")
    _emit(args, "\n".join(lines) + "\n", json_out)
    return 0


def _cmd_filtration(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    primes = A.primes()
    p = args.p or (primes[0] if len(primes) == 1 else None)
    if p is None:
        raise ValueError("group is not a p-group; pass --p")
    pairs = mult_by_p_filtration(A, p, limits)
    ok = _filtration_is_dual(A, pairs, limits)
    json_out = {
        "p": p,
        "levels": [
            {"ker": _sub_json(A, ker), "im": _sub_json(A, im)}
            for ker, im in pairs
        ],
        "mutual_duals_under_every_duality": ok,
    }
    lines = [f"multiplication-by-{p} filtration:"]
    for j, (ker, im) in enumerate(pairs):
        lines.append(f"  j={j}: ker {ker}  im {im}")
    lines.append(
        "kernels and images are mutual left/right duals under every duality: "
        + ("yes" if ok else "NO")
    )
    _emit(args, "\n".join(lines) + "\n", json_out)
    return 0 if ok else 1


def _cmd_macwilliams(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    phi = _duality_by_index(A, args.duality_index, limits)
    C = _parse_code(A, args.n, args.code_gens)
    fn = left_dual if args.side == "left" else right_dual
    D = fn(C, phi, limits)
    if args.enumerator == "hamming":
        expected = hwe(D)
        got = mw_hamming_transform(hwe(C), A.cardinality, hwe(C).total)
        ok = got == expected
        json_out = {
            "enumerator": "hamming",
            "transformed": list(got.coeffs),
            "direct": list(expected.coeffs),
            "match": ok,
        }
        lines = [
            f"hwe(C)          = {list(hwe(C).coeffs)}",
            f"transform       = {list(got.coeffs)}",
            f"hwe({args.side} dual) = {list(expected.coeffs)}",
            "match" if ok else "MISMATCH",
        ]
    else:
        expected = cwe(D)
        got = mw_complete_transform(
            cwe(C), phi, args.side, direction="dual_from_code"
        )
        ok = got == expected
        def terms_out(E):
            return [
                {"counts": list(k), "coeff": c} for k, c in E.terms
            ]
        json_out = {
            "enumerator": "complete",
            "transformed": terms_out(got),
            "direct": terms_out(expected),
            "match": ok,
        }
        lines = [
            f"cwe transform terms: {terms_out(got)}",
            f"cwe direct terms:    {terms_out(expected)}",
            "match" if ok else "MISMATCH",
        ]
    _emit(args, "\n".join(lines) + "\n", json_out)
    return 0 if ok else 1


_TABLE_ALIASES = {
    "example-4.4": "4.4",
    "example-4.5": "4.5",
    "example-4.11": "4.11",
    "example-6.3": "6.3-duals",
}


def _cmd_paper_table(args) -> int:
    table_id = _TABLE_ALIASES.get(args.table_id, args.table_id)
    body = paper_table(table_id)
    _emit(args, body, {"id": table_id, "text": body})
    return 0


def _cmd_construct_pair(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    H = subgroup_closure(A, [A.parse_element(w) for w in args.h_gens])
    K = subgroup_closure(A, [A.parse_element(w) for w in args.k_gens])
    try:
        phi = construct_duality_for_pair(H, K, limits)
        how = "constructed"
    except UnsupportedPairError:
        if not args.search:
            raise
        found = search_duality_for_pair(H, K, limits)
        if found is None:
            print(
                "no duality pairs these subgroups (exhaustive search)",
                file=sys.stderr,
            )
            return 1
        phi = found
        how = "found by search"
    mat = [list(r) for r in phi.tau.matrix]
    _emit(
        args,
        f"{how}: tau = {mat}\n",
        {"tau": mat, "method": how},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupdual",
        description="Exact dualities, dual codes, and MacWilliams identities "
        "over finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, group_required=True):
        p.add_argument(
            "--group",
            required=group_required,
            help="comma-separated cyclic orders, e.g. 2,4 for Z/2 x Z/4",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--limit", type=int, default=None, help="override enumeration/scan bound"
        )

    p = sub.add_parser("group", help="describe a group; optionally list subgroups")
    common(p)
    p.add_argument("--subgroups", action="store_true")
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("dualities", help="enumerate dualities")
    common(p)
    p.add_argument("--list", action="store_true", help="index <-> matrix mapping")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_dualities)

    p = sub.add_parser("dual", help="left or right dual of a code")
    common(p)
    p.add_argument("--code-gens", nargs="+", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--duality-index", type=int, required=True)
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser(
        "duals-table", help="left/right duals of subgroups under every duality"
    )
    common(p)
    p.add_argument("--order", type=int, default=None, help="filter by subgroup order")
    p.set_defaults(fn=_cmd_duals_table)

    p = sub.add_parser("congruence", help="congruence classes of dualities")
    common(p)
    p.set_defaults(fn=_cmd_congruence)

    p = sub.add_parser(
        "filtration", help="multiplication-by-p filtration and its duals"
    )
    common(p)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(fn=_cmd_filtration)

    p = sub.add_parser("macwilliams", help="verify a MacWilliams identity")
    msub = p.add_subparsers(dest="action", required=True)
    pv = msub.add_parser("verify")
    common(pv)
    pv.add_argument("--code-gens", nargs="+", required=True)
    pv.add_argument("--n", type=int, default=1)
    pv.add_argument("--duality-index", type=int, required=True)
    pv.add_argument(
        "--enumerator", choices=("hamming", "complete"), default="hamming"
    )
    pv.add_argument("--side", choices=("left", "right"), required=True)
    pv.set_defaults(fn=_cmd_macwilliams)

    p = sub.add_parser("paper-table", help="emit a worked table byte-stably")
    p.add_argument("table_id")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_paper_table)

    p = sub.add_parser(
        "construct-pair",
        help="symmetric duality making two subgroups mutual duals",
    )
    common(p)
    p.add_argument("--h-gens", nargs="+", required=True)
    p.add_argument("--k-gens", nargs="+", required=True)
    p.add_argument(
        "--search", action="store_true", help="fall back to exhaustive search"
    )
    p.set_defaults(fn=_cmd_construct_pair)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first run() and kept for the process."""
    return build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (
        ValueError,
        IndexError,
        KeyError,
        LimitExceededError,
        NonIntegralError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
