"""Command-line surface: every library operation, text or JSON output.

Exit codes: 0 success, 1 domain error or stdout closed early, 2 usage
error.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections.abc import Sequence
from functools import cache
from itertools import repeat
from operator import eq
from types import SimpleNamespace

from .codes import (
    AdditiveCode,
    PowerGroup,
    UnsupportedPairError,
    _image_columns,
    _swapped_by_l0,
    construct_duality_for_pair,
    left_dual,
    mult_by_p_filtration,
    right_dual,
    search_duality_for_pair,
)
from .dualities import (
    Duality,
    _congruence_orbits,
    count_symmetric_dualities,
)
from .enumerators import (
    NonIntegralError,
    _forward_follows,
    cwe,
    hwe,
    mw_complete_transform,
    mw_hamming_transform,
)
from .groups import (
    GroupSpec,
    _adjoints,
    _aut,
    _aut_rows,
    _closure,
    _coords,
    _known_automorphism,
    _lattice,
    _packing,
    _unpacker,
    all_subgroups,
    aut_order,
    make_group,
    primary_decomposition,
)
from .limits import LimitExceededError, Limits, check_enumeration
from .tables import paper_table


class _UsageError(Exception):
    """A malformed argument that argparse does not catch; exit 2."""


def _parse_group(text: str) -> GroupSpec:
    try:
        orders = [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad group orders {text!r}") from None
    return make_group(orders)


def _limits(args) -> Limits:
    """`--limit`, or else `ADK_LIMIT`, which is read only then."""
    if args.limit is not None:
        return Limits(enumeration_bound=args.limit, scan_bound=args.limit)
    return Limits.from_env()


# Listings over Aut(A) are built and written this many rows at a time.
_BLOCK = 256
# str() of each element of A as an int list, which JSON reads the same, in
# `_coords` order: the text of a tau row.  Kept per group.
_element_texts = cache(lambda A: [str(list(c)) for c in _coords(A)])


def _write_blocks(A: GroupSpec, count: int, json_out: bool, block) -> None:
    """Write block(lo, hi, taus) for each run of `_BLOCK` Aut indices below
    `count`, taus the texts of the tau in Aut(A)[lo:hi] read from the texts
    of their rows: as text, or as the bytes that `json.dumps` gives for the
    list of all rows, each block one run of rows joined by ", "."""
    text, fmt = _element_texts(A).__getitem__, "[" + ", ".join(["{}"] * A.rank) + "]"
    sep = "[" if json_out else ""
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        taus = map(fmt.format, *(map(text, r) for r in _aut_rows(A, lo, hi)))
        sys.stdout.write(sep + block(lo, hi, taus))
        sep = ", " if json_out else ""
    if json_out:
        sys.stdout.write("]\n" if count else "[]\n")


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True).  The first call imports json and
    rebinds this global to the `encode` of the encoder that such a dumps
    call builds, so a text command never loads json and a later call costs
    one global lookup."""
    global _dumps
    import json

    _dumps = json.JSONEncoder(sort_keys=True).encode
    return _dumps(obj)


def _emit(args, text, body) -> None:
    """Print body() as JSON under `--format json`, else text(): only the
    output asked for is built."""
    if args.format == "json":
        print(_dumps(body()))
    else:
        sys.stdout.write(text())


def _sub_json(sub) -> dict:
    return {"order": sub.order, "elements": sub.words()}


def _cmd_group(args) -> int:
    A = _parse_group(args.group)
    subs = all_subgroups(A, _limits(args)) if args.subgroups else None
    if args.format == "json":
        info = {"orders": list(A.orders), "exponent": A.exponent, "cardinality": A.cardinality,
                "weights": list(A.weights), "primary": {
                    str(p): list(part.orders) for p, part in primary_decomposition(A).items()}}
        if subs is not None:
            info["subgroups"] = [_sub_json(s) for s in subs]
        print(_dumps(info))
        return 0
    sys.stdout.write(
        f"group Z/{' x Z/'.join(str(d) for d in A.orders)}\n"
        f"exponent {A.exponent}  cardinality {A.cardinality}  "
        f"weights {','.join(str(w) for w in A.weights)}\n"
    )
    if subs is not None:
        sys.stdout.write(f"{len(subs)} subgroups:\n")
        sys.stdout.writelines(f"  order {s.order}: {s}\n" for s in subs)
    return 0


def _cmd_dualities(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    if args.count_only:
        # The closed forms build no duality; |A| is still checked.
        check_enumeration(A.cardinality, limits)
        total, sym = aut_order(A), count_symmetric_dualities(A)
        _emit(args, lambda: f"{total} total, {sym} symmetric\n",
              lambda: {"total": total, "symmetric": sym})
        return 0
    # phi is symmetric exactly when phi* = phi, a fixed point of tau -> tau*.
    count, star, json_out = len(_aut(A, limits)), _adjoints(A), args.format == "json"
    # Keys in sorted order; the fields are the index, the flag and tau.
    line, sep, flags = (
        ('{{"index": {}, "symmetric": {}, "tau": {}}}', ", ", ("false", "true")) if json_out
        else ("{0}: {2}{1}\n", "", ("", " symmetric")))
    _write_blocks(A, count, json_out, lambda lo, hi, taus: sep.join(map(
        line.format, range(lo, hi), map(flags.__getitem__, map(eq, star[lo:hi], range(lo, hi))),
        taus)))
    return 0


def _duality_by_index(A: GroupSpec, index: int, limits: Limits) -> Duality:
    auts = _aut(A, limits)
    if not 0 <= index < len(auts):
        raise IndexError(f"duality index {index} out of range (0..{len(auts) - 1})")
    return Duality(_known_automorphism(A, _unpacker(A)(auts[index])))


def _parse_code(A: GroupSpec, n: int, gen_words: Sequence[str]) -> AdditiveCode:
    """The code generated by length-n codewords, each written as n base-group
    element words joined by ':'.  Words all in reduced ASCII digits are
    packed in one pass; else each distinct block is parsed once."""
    power = PowerGroup(A, n)
    P = _packing(power.spec)
    gens = P.from_digits(gen_words, A.rank)
    if gens is None:
        block, gens = cache(A.parse_coords), []
        for word in gen_words:
            if word.count(":") != n - 1:
                raise ValueError(f"expected {n} blocks in {word!r}")
            gens.append(P.pack(sum(map(block, word.split(":")), ())))
    return AdditiveCode(power, _closure(power.spec, tuple(gens)))


def _code_and_dual(args):
    """(A, phi, C, D) for `dual` and `macwilliams verify`: the group, the
    duality by index, the parsed code and its dual on the chosen side."""
    A = _parse_group(args.group)
    limits = _limits(args)
    phi = _duality_by_index(A, args.duality_index, limits)
    C = _parse_code(A, args.n, args.code_gens)
    fn = left_dual if args.side == "left" else right_dual
    return A, phi, C, fn(C, phi, limits)


def _cmd_dual(args) -> int:
    _, _, C, D = _code_and_dual(args)
    words = D.subgroup.words()
    if args.format == "json":
        json_out = {"side": args.side, "order": D.order, "elements": words}
        print(_dumps(json_out))
    else:
        sys.stdout.write(f"{args.side} dual ({D.order} elements): {' '.join(words)}\n")
    return 0


def _cmd_duals_table(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    subs = all_subgroups(A, limits)
    if args.order is not None:
        subs = [s for s in subs if s.order == args.order]
    else:
        subs = [s for s in subs if 1 < s.order < A.cardinality]
    auts, cols = _image_columns(A, subs, limits)
    # The duals of H under tau are L_0 of H tau* and H tau (`_image_rows`):
    # H's column at tau* and tau.  Each id is named once, as the text of a
    # cell before and after its middle; a row is one join of texts.
    l0, star, json_out = _lattice(A).l0, _adjoints(A), args.format == "json"
    names = {i: str(l0(i)) for i in set().union(*cols)}
    if json_out:
        names = {i: _dumps(name) for i, name in names.items()}
        left = {i: f'{{"left": {name}, "right": ' for i, name in names.items()}
        right = {i: name + "}" for i, name in names.items()}
        cell_sep, ends = ", ", lambda t: ((repeat('{"duals": ['),), (repeat('], "tau": '), t, repeat("}")))
    else:
        sys.stdout.write("subgroups: " + " ".join(str(s) for s in subs) + "\n")
        left, right = {i: f"L={name} R=" for i, name in names.items()}, names
        cell_sep, ends = "  ", lambda t: ((t, repeat(": ")), (repeat("\n"),))

    def block(lo: int, hi: int, taus) -> str:
        cells = [part for col in cols for part in (
            repeat(cell_sep), map(left.__getitem__, map(col.__getitem__, star[lo:hi])),
            map(right.__getitem__, col[lo:hi]))]
        head, tail = ends(taus)
        return (", " if json_out else "").join(map("".join, zip(*head, *cells[1:], *tail)))

    _write_blocks(A, len(auts), json_out, block)
    return 0


def _cmd_congruence(args) -> int:
    A = _parse_group(args.group)
    auts, unpack = _aut(A, _limits(args)), _unpacker(A)
    classes = [
        (len(orbit), [list(r) for r in unpack(auts[orbit[0]])])
        for orbit in _congruence_orbits(A)
    ]
    _emit(
        args,
        lambda: f"{len(classes)} congruence classes\n"
        + "".join(f"  size {size}, rep {rep}\n" for size, rep in classes),
        lambda: [{"size": size, "representative": rep} for size, rep in classes],
    )
    return 0


def _cmd_filtration(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    primes = A.primes()
    p = args.p if args.p is not None else (primes[0] if len(primes) == 1 else None)
    if p is None:
        raise ValueError("group is not a p-group; pass --p")
    # mult_by_p_filtration has checked that every level is characteristic.
    pairs = mult_by_p_filtration(A, p, limits)
    ok = _swapped_by_l0(A, pairs)
    _emit(
        args,
        lambda: f"multiplication-by-{p} filtration:\n"
        + "".join(f"  j={j}: ker {ker}  im {im}\n" for j, (ker, im) in enumerate(pairs))
        + "kernels and images are mutual left/right duals under every duality: "
        + ("yes\n" if ok else "NO\n"),
        lambda: {"p": p, "mutual_duals_under_every_duality": ok, "levels": [
            {"ker": _sub_json(ker), "im": _sub_json(im)} for ker, im in pairs]},
    )
    return 0 if ok else 1


def _cmd_macwilliams(args) -> int:
    A, phi, C, D = _code_and_dual(args)
    if args.enumerator == "hamming":
        expected = hwe(D)
        code_hwe = hwe(C)
        got = mw_hamming_transform(code_hwe, A.cardinality, code_hwe.total)
        transformed, direct = list(got.coeffs), list(expected.coeffs)
    else:
        code_cwe, expected, got = cwe(C), cwe(D), None
        # If cwe(D) has fewer terms and transforms back to cwe(C), then the
        # forward transform gives cwe(D) (`_forward_follows`).
        if len(expected.terms) < len(code_cwe.terms) and _forward_follows(
            code_cwe, expected
        ):
            with contextlib.suppress(NonIntegralError):
                back = mw_complete_transform(expected, phi, args.side, "code_from_dual")
                got = expected if back == code_cwe else None
        if got is None:
            got = mw_complete_transform(code_cwe, phi, args.side, "dual_from_code")
        transformed, direct = (
            [{"counts": list(k), "coeff": c} for k, c in E.terms]
            for E in (got, expected)
        )
    ok = got == expected
    if args.format == "json":
        json_out = {"enumerator": args.enumerator, "transformed": transformed,
                    "direct": direct, "match": ok}
        print(_dumps(json_out))
        return 0 if ok else 1
    if args.enumerator == "hamming":
        lines = [
            f"hwe(C)          = {list(code_hwe.coeffs)}",
            f"transform       = {transformed}",
            f"hwe({args.side} dual) = {direct}",
        ]
    else:
        lines = [f"cwe transform terms: {transformed}", f"cwe direct terms:    {direct}"]
    lines.append("match" if ok else "MISMATCH")
    sys.stdout.write("\n".join(lines) + "\n")
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
    _emit(args, lambda: body, lambda: {"id": table_id, "text": body})
    return 0


def _cmd_construct_pair(args) -> int:
    A = _parse_group(args.group)
    limits = _limits(args)
    pack = _packing(A).pack
    H, K = (_closure(A, tuple(map(pack, map(A.parse_coords, words))))
            for words in (args.h_gens, args.k_gens))
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
    _emit(args, lambda: f"{how}: tau = {mat}\n", lambda: {"tau": mat, "method": how})
    return 0


# The command line, declared once: each command's words map to its help,
# its options as (flag, add_argument kwargs) pairs in help order, and its
# fn.  `build_parser` builds argparse from it, `_reader` the argv reader.
_FLAG = {"action": "store_true"}
_INT = {"type": int, "default": None}
_WORDS = {"nargs": "+", "required": True}
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_GROUP = (
    ("--group", {"required": True,
                 "help": "comma-separated cyclic orders, e.g. 2,4 for Z/2 x Z/4"}),
    _FORMAT,
    ("--limit", {**_INT, "help": "override enumeration/scan bound"}),
)
_CODE = (
    ("--code-gens", _WORDS),
    ("--n", {"type": int, "default": 1}),
    ("--duality-index", {"type": int, "required": True}),
)
_SIDE = ("--side", {"choices": ("left", "right"), "required": True})
_COMMANDS = {
    ("group",): (
        "describe a group; optionally list subgroups",
        (*_GROUP, ("--subgroups", _FLAG)), _cmd_group),
    ("dualities",): (
        "enumerate dualities",
        (*_GROUP, ("--list", {**_FLAG, "help": "no-op: listing is the default"}),
         ("--count-only", _FLAG)), _cmd_dualities),
    ("dual",): ("left or right dual of a code", (*_GROUP, *_CODE, _SIDE), _cmd_dual),
    ("duals-table",): (
        "left/right duals of subgroups under every duality",
        (*_GROUP, ("--order", {**_INT, "help": "filter by subgroup order"})), _cmd_duals_table),
    ("congruence",): ("congruence classes of dualities", _GROUP, _cmd_congruence),
    ("filtration",): (
        "multiplication-by-p filtration and its duals",
        (*_GROUP, ("--p", _INT)), _cmd_filtration),
    ("macwilliams", "verify"): (
        "verify a MacWilliams identity",
        (*_GROUP, *_CODE,
         ("--enumerator", {"choices": ("hamming", "complete"), "default": "hamming"}), _SIDE),
        _cmd_macwilliams),
    ("paper-table",): (
        "emit a worked table byte-stably", (("table_id", {}), _FORMAT), _cmd_paper_table),
    ("construct-pair",): (
        "symmetric duality making two subgroups mutual duals",
        (*_GROUP, ("--h-gens", _WORDS), ("--k-gens", _WORDS),
         ("--search", {**_FLAG, "help": "fall back to exhaustive search"})), _cmd_construct_pair),
}
# The attribute that each command word sets: `subcommand`, then `action`.
_WORD_DESTS = ("subcommand", "action")


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of `_COMMANDS`; a second command word, as in
    `macwilliams verify`, is the one subcommand of the first word's parser.
    argparse is imported here, for help and usage errors only."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="groupdual",
        description="Exact dualities, dual codes, and MacWilliams identities "
        "over finite abelian groups.",
    )
    sub = parser.add_subparsers(dest=_WORD_DESTS[0], required=True)
    for words, (text, options, fn) in _COMMANDS.items():
        p = sub.add_parser(words[0], help=text)
        if len(words) == 2:
            p = p.add_subparsers(dest=_WORD_DESTS[1], required=True).add_parser(words[1])
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first run() and kept for the process."""
    return build_parser()


@cache
def _reader():
    """The argv reader's view of `_COMMANDS`, built on first use: words ->
    (flags, defaults, required, positional).  flags maps each flag to
    (dest, kwargs); defaults are the attributes that argparse sets before
    reading any option, the command words and fn among them; positional is
    the dest of the command's one positional, or None; required lists the
    required flags and the positional, which argparse requires."""
    view = {}
    for words, (_, options, fn) in _COMMANDS.items():
        flags, defaults, positional = {}, dict(zip(_WORD_DESTS, words), fn=fn), None
        for flag, kwargs in options:
            if flag[0] != "-":
                positional = flag
                continue
            dest = flag[2:].replace("-", "_")
            flags[flag] = dest, kwargs
            store_true = kwargs.get("action") == "store_true"
            defaults[dest] = False if store_true else kwargs.get("default")
        required = [flag for flag, kwargs in options if kwargs.get("required") or flag == positional]
        view[words] = flags, defaults, required, positional
    return view


def _is_value(token: str) -> bool:
    """Whether argparse reads `token` as a value, in a parser with no option
    that looks like a negative number: no leading '-', or a negative
    integer in ASCII digits."""
    return token[:1] != "-" or (token[1:].isdigit() and token[1:].isascii())


def _run_end(argv: list[str], i: int) -> int:
    """Where the run of values from argv[i] ends: at the first token
    starting with '-' that is not a negative integer, else at the end.
    Each token follows a NUL in `text`, so such a token starts at a '-'
    after a NUL, and the NULs before it count the tokens; a NUL inside a
    token, which no command line holds, is read as a blank."""
    rest = argv[i:]
    text = "\0" + "\0".join(rest)
    if text.count("\0") != len(rest):
        text = "\0" + "\0".join([token.replace("\0", " ") for token in rest])
    q = 0
    while (q := text.find("-", q + 1)) >= 0:
        if text[q - 1] == "\0" and not _is_value(argv[end := i + text.count("\0", 0, q - 1)]):
            return end
    return len(argv)


def _read(view, argv: list[str]) -> dict | None:
    """The attributes that argparse sets from argv, or None where the reader
    leaves argv to argparse: help, every error, and every form beyond the
    exact command words, flags with their values and one positional."""
    i = 1 if tuple(argv[:1]) in view else 2
    command = view.get(tuple(argv[:i]))
    if command is None:
        return None
    flags, defaults, required, positional = command
    ns, seen = dict(defaults), set()
    while i < len(argv):
        option = flags.get(argv[i])
        if option is None:
            # The one positional, which argparse reads where a value stands.
            if positional is None or positional in seen or not _is_value(argv[i]):
                return None
            ns[positional] = argv[i]
            seen.add(positional)
            i += 1
            continue
        dest, kwargs = option
        seen.add(argv[i])
        i += 1
        if kwargs.get("action") == "store_true":
            ns[dest] = True
            continue
        many = kwargs.get("nargs") == "+"
        end = _run_end(argv, i) if many else i + (i < len(argv) and _is_value(argv[i]))
        values = argv[i:end]
        if not values:
            return None
        i = end
        if kwargs.get("type") is int:
            try:
                values = list(map(int, values))
            except ValueError:
                return None
        choices = kwargs.get("choices")
        if choices is not None and any(v not in choices for v in values):
            return None
        ns[dest] = values if many else values[0]
    if not seen.issuperset(required):
        return None
    return ns


# The least value of each integer option; below it is a usage error.
_LEAST = {"limit": 0, "n": 1, "order": 0, "p": 2}


def _check_least(args) -> None:
    for dest, least in _LEAST.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise _UsageError(f"--{dest} must be at least {least}, got {value}")


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command line; argv defaults to sys.argv[1:].

    Accepted argv is read from `_COMMANDS` by `_read`, which gives a
    SimpleNamespace with the attributes of parse_args; help and usage
    errors are argparse's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _read(_reader(), argv)
    if ns is not None:
        args = SimpleNamespace(**ns)
    else:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help.
            return int(exc.code or 0)
    try:
        _check_least(args)
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    """run() on sys.argv; a reader that closes stdout early (`| head`) ends
    it with exit 1 and an empty stderr (the Python docs' SIGPIPE note)."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # So that the interpreter's own flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
