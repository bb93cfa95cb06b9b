"""CLI surface: exit codes, text/JSON output, golden table stability."""

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from groupdual import (
    all_dualities,
    all_subgroups,
    aut_order,
    cli,
    congruence_classes,
    cwe,
    duals_table,
    hwe,
    is_symmetric,
    make_group,
    mw_complete_transform,
)
from groupdual.cli import run
from groupdual.groups import GroupSpec
import census_oracle
from span_oracle import _span
from groupdual.tables import PAPER_TABLES, paper_table

GOLDENS = Path(__file__).parent / "goldens"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_only_line(capsys):
    code, out, _ = _run(capsys, "dualities", "--group", "3,3", "--count-only")
    assert code == 0
    assert out.strip() == "48 total, 18 symmetric"


def test_group_subgroups_listing(capsys):
    code, out, _ = _run(capsys, "group", "--group", "2,4", "--subgroups")
    assert code == 0
    assert "8 subgroups" in out


def test_group_json_round_trip(capsys):
    code, out, _ = _run(
        capsys, "group", "--group", "2,4", "--subgroups", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["orders"] == [2, 4]
    assert len(data["subgroups"]) == 8
    assert json.loads(json.dumps(data)) == data


def test_dualities_listing_is_indexed(capsys):
    code, out, _ = _run(
        capsys, "dualities", "--group", "2,4", "--list", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["index"] for r in rows] == list(range(8))
    assert sum(r["symmetric"] for r in rows) == 4


def test_dual_subcommand(capsys):
    code, out, _ = _run(
        capsys,
        "dual",
        "--group",
        "2,4",
        "--code-gens",
        "02",
        "--duality-index",
        "0",
        "--side",
        "left",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert data["elements"] == ["00", "10", "02", "12"] or sorted(
        data["elements"]
    ) == ["00", "02", "10", "12"]


def test_congruence_subcommand(capsys):
    code, out, _ = _run(capsys, "congruence", "--group", "3,3", "--format", "json")
    assert code == 0
    sizes = sorted(entry["size"] for entry in json.loads(out))
    assert sizes == [2, 6, 8, 8, 12, 12]


def test_filtration_subcommand(capsys):
    code, out, _ = _run(capsys, "filtration", "--group", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["mutual_duals_under_every_duality"] is True
    assert len(data["levels"]) == 4


def test_filtration_p_zero_is_not_the_default(capsys):
    # --p 0 is refused as a usage error, not read as "no --p given".
    code, out, err = _run(capsys, "filtration", "--group", "4", "--p", "0")
    assert code == 2
    assert out == ""
    assert err == "error: --p must be at least 2, got 0\n"


@pytest.mark.parametrize("order", ["-1", "-8"])
def test_duals_table_negative_order_is_a_usage_error(capsys, order):
    code, out, err = _run(capsys, "duals-table", "--group", "2,2", "--order", order)
    assert (code, out) == (2, "")
    assert err == f"error: --order must be at least 0, got {order}\n"


@pytest.mark.parametrize("p", ["1", "-2"])
def test_filtration_p_below_two_is_a_usage_error(capsys, p):
    code, out, err = _run(capsys, "filtration", "--group", "4", "--p", p)
    assert (code, out) == (2, "")
    assert err == f"error: --p must be at least 2, got {p}\n"


_CODE_ARGS = ("--group", "2,2", "--code-gens", "10", "--duality-index", "0", "--side", "left")


@pytest.mark.parametrize("command", [("dual",), ("macwilliams", "verify")])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_length_below_one_is_a_usage_error(capsys, command, n):
    assert _run(capsys, *command, *_CODE_ARGS, "--n", n) == (
        2, "", f"error: --n must be at least 1, got {n}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("group", "--group", "2,4"),
        ("dualities", "--group", "2,4", "--count-only"),
        ("dual", *_CODE_ARGS),
        ("duals-table", "--group", "2,4"),
        ("congruence", "--group", "2,4"),
        ("filtration", "--group", "8"),
        ("macwilliams", "verify", *_CODE_ARGS),
        ("construct-pair", "--group", "2,2", "--h-gens", "10", "--k-gens", "01"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("limit", ["-1", "-4096"])
def test_limit_below_zero_is_a_usage_error(capsys, argv, limit):
    assert _run(capsys, *argv, "--limit", limit) == (
        2, "", f"error: --limit must be at least 0, got {limit}\n"
    )


def _duals_table_in_memory(A, subs, fmt):
    """Oracle: the whole duals table rendered at once, as the CLI rendered
    it before it streamed rows."""
    rows = [
        {
            "tau": row["tau"],
            "duals": [{"left": str(d["left"]), "right": str(d["right"])} for d in row["duals"]],
        }
        for row in duals_table(A, subs)
    ]
    if fmt == "json":
        return json.dumps(rows, sort_keys=True) + "\n"
    lines = ["subgroups: " + " ".join(str(s) for s in subs)]
    for row in rows:
        cells = "  ".join(f"L={d['left']} R={d['right']}" for d in row["duals"])
        lines.append(f"{row['tau']}: {cells}")
    return "\n".join(lines) + "\n"


def _dualities_list_in_memory(A, fmt):
    """Oracle: `dualities --list` rendered at once."""
    rows = [
        {"index": i, "tau": [list(r) for r in phi.tau.matrix], "symmetric": is_symmetric(phi)}
        for i, phi in enumerate(all_dualities(A))
    ]
    if fmt == "json":
        return json.dumps(rows, sort_keys=True) + "\n"
    lines = [
        f"{r['index']}: {r['tau']} {'symmetric' if r['symmetric'] else ''}".rstrip()
        for r in rows
    ]
    return "\n".join(lines) + "\n"


CENSUS_GROUPS = ("2", "2,2", "2,4", "3,3", "2,8", "4,4", "2,2,2", "2,2,3", "27")


def _refuse_aut(A):
    raise AssertionError("Aut(A) enumerated")


@pytest.mark.parametrize(
    "group", [g for g in CENSUS_GROUPS if g != "2,2,3"] + ["4,4,4"]
)
def test_filtration_enumerates_no_automorphism(capsys, monkeypatch, group):
    # The oracle run tests each level by its stabilizer, which enumerates
    # Aut(A); the run under test must print the same bytes with the one
    # route to Aut(A) patched to raise.
    from groupdual import codes, groups

    def oracle(H, limits=None):
        return len(groups.stabilizer(H, limits)) == len(
            groups.automorphism_group(H.parent, limits)
        )

    for fmt in ("text", "json"):
        argv = ("filtration", "--group", group, "--format", fmt)
        with monkeypatch.context() as patch:
            patch.setattr(codes, "is_characteristic", oracle)
            want = _run(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(groups, "_automorphisms", _refuse_aut)
            got = _run(capsys, *argv)
        assert got == want
        code, out, err = got
        assert code == 0 and err == ""
        if fmt == "json":
            assert json.loads(out)["mutual_duals_under_every_duality"] is True
        else:
            assert out.endswith(" yes\n")


@pytest.mark.parametrize("group", [",".join(["2"] * 13), ",".join(["3"] * 9), "4,4,4,4,4,4,4"])
def test_filtration_refuses_a_group_above_the_bound(capsys, monkeypatch, group):
    from groupdual import codes

    def refuse(*args):
        raise AssertionError("a filtration level was built")

    monkeypatch.delenv("ADK_LIMIT", raising=False)
    monkeypatch.setattr(codes, "_multiples", refuse)
    order = make_group([int(d) for d in group.split(",")]).cardinality
    err = f"error: group of order {order} exceeds enumeration bound 4096\n"
    assert _run(capsys, "filtration", "--group", group) == (1, "", err)


def test_construct_pair_outputs_and_parse_errors(capsys):
    argv = ("construct-pair", "--group", "2,4,8,16", "--h-gens", "1,1,1,1", "--k-gens")
    out = "constructed: tau = [[1, 0, 0, 8], [0, 1, 0, 12], [0, 0, 1, 14], [1, 3, 7, 15]]\n"
    assert _run(capsys, *argv, "1,0,0,0", "0,1,0,0", "0,0,1,0") == (0, out, "")
    argv = ("construct-pair", "--group", "4,8,8", "--h-gens", "122", "014", "--k-gens", "001")
    out = '{"method": "constructed", "tau": [[3, 0, 6], [0, 1, 4], [3, 4, 1]]}\n'
    assert _run(capsys, *argv, "--format", "json") == (0, out, "")
    # --h-gens and --k-gens keep the parse errors of the element route.
    for h, k in (("1", "10"), ("10", "1")):
        got = _run(capsys, "construct-pair", "--group", "2,2", "--h-gens", h, "--k-gens", k)
        assert got == (1, "", "error: expected 2 coordinates in '1'\n")
    for h, k in (("1x", "10"), ("10", "x1")):
        code, out, err = _run(capsys, "construct-pair", "--group", "2,2", "--h-gens", h, "--k-gens", k)
        assert (code, out) == (1, "") and "invalid literal for int()" in err


def test_census_commands_build_no_group_element(capsys, monkeypatch):
    # construct-pair parses --h-gens and --k-gens to coordinates, and the
    # identity and the congruence walk start from unit rows.
    from groupdual import groups

    built = []
    post_init = groups.GroupElement.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(groups.GroupElement, "__post_init__", counting)
    for group, h, k in (("2,4", ["10"], ["01"]), ("2,2,2", ["100"], ["010", "001"])):
        for argv in (
            ("dualities", "--count-only"),
            ("dualities", "--list", "--format", "json"),
            ("congruence", "--format", "json"),
            ("filtration",),
            ("duals-table", "--format", "json"),
            ("construct-pair", "--h-gens", *h, "--k-gens", *k),
        ):
            assert _run(capsys, argv[0], "--group", group, *argv[1:])[0] == 0
    assert built == []


_BY_INDEX = ("--group", "2,4", "--code-gens", "01", "--duality-index", "3", "--side", "left")
_UNSUPPORTED = ("construct-pair", "--group", "2,4", "--h-gens", "02", "--k-gens", "01")


@pytest.mark.parametrize("argv", [
    ("dualities", "--group", "2,4"),
    ("congruence", "--group", "2,4"),
    ("duals-table", "--group", "2,4"),
    ("dual", *_BY_INDEX),
    ("macwilliams", "verify", *_BY_INDEX),
    (*_UNSUPPORTED, "--search"),
])
def test_every_aut_route_takes_the_one_enumeration(capsys, monkeypatch, argv):
    # Warm caches first, so that a route that kept its own copy of Aut(A)
    # would pass without reaching the enumeration.
    from groupdual import groups

    assert _run(capsys, *argv)[0] in (0, 1)
    monkeypatch.setattr(groups, "_automorphisms", _refuse_aut)
    with pytest.raises(AssertionError, match=r"Aut\(A\) enumerated"):
        run(list(argv))


@pytest.mark.parametrize("group", CENSUS_GROUPS + ("2,2,2,2",))
def test_listing_flags_the_fixed_points_of_the_adjoint(capsys, group):
    # The listing reads phi as symmetric when tau* = tau; the oracle is
    # is_symmetric, the Gram test, on each duality in the same order.
    phis = all_dualities(make_group([int(d) for d in group.split(",")]))
    code, out, err = _run(capsys, "dualities", "--group", group, "--list", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [r["tau"] for r in rows] == [[list(t) for t in phi.tau.matrix] for phi in phis]
    flags = [r["symmetric"] for r in rows]
    assert flags == [is_symmetric(phi) for phi in phis]
    assert True in flags and (False in flags or "," not in group)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_only_reads_the_closed_forms(capsys, monkeypatch, fmt):
    # The enumerated census gives the small lines; the large ones would
    # enumerate millions of automorphisms.
    from groupdual import dualities, groups

    want = {}
    for group in CENSUS_GROUPS + ("2,2,6", "4,2", "12,2"):
        phis = all_dualities(make_group([int(d) for d in group.split(",")]))
        want[group] = (len(phis), sum(map(is_symmetric, phis)))
    want.update({
        "2,2,2,2,2": (9999360, 13888),
        "2,2,6,6": (967680, 8064),
        "5,5,5": (1488000, 12400),
        "8,8,8": (44040192, 114688),
    })
    monkeypatch.setattr(groups, "_automorphisms", _refuse_aut)
    monkeypatch.setattr(dualities, "_automorphisms", _refuse_aut)
    for group, (total, sym) in want.items():
        out = _run(capsys, "dualities", "--group", group, "--count-only", "--format", fmt)
        if fmt == "json":
            line = json.dumps({"symmetric": sym, "total": total})
        else:
            line = f"{total} total, {sym} symmetric"
        assert out == (0, line + "\n", "")


def test_congruence_walks_each_group_once(capsys, monkeypatch):
    from groupdual import dualities

    walks = []
    walk = dualities._walk

    def counted(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(dualities, "_walk", counted)
    dualities._congruence_orbits.cache_clear()
    A = make_group([2, 2, 2])
    argv = ("congruence", "--group", "2,2,2", "--format", "json")
    first = _run(capsys, *argv)
    classes = congruence_classes(A)
    assert len(walks) == len(classes) == len(json.loads(first[1])) > 1
    walks.clear()
    assert _run(capsys, *argv) == first
    assert congruence_classes(A) == classes
    assert walks == []


def test_adk_limit_bounds_a_warm_congruence(capsys, monkeypatch):
    assert _run(capsys, "congruence", "--group", "2,2,2")[0] == 0
    monkeypatch.setenv("ADK_LIMIT", "7")
    err = "error: group of order 8 exceeds enumeration bound 7\n"
    assert _run(capsys, "congruence", "--group", "2,2,2") == (1, "", err)


def test_library_aut_routes_take_the_one_enumeration(capsys, monkeypatch):
    from groupdual import canonical_duality, congruent, groups, is_characteristic
    from groupdual.codes import duality_dependence

    A = make_group([2, 4])
    subs = all_subgroups(A)
    dualities = all_dualities(A)
    for H in subs:
        groups.stabilizer(H)
        duality_dependence(H)
    monkeypatch.setattr(groups, "_automorphisms", _refuse_aut)
    for H in subs:
        for route in (groups.stabilizer, duality_dependence):
            with pytest.raises(AssertionError, match=r"Aut\(A\) enumerated"):
                route(H)
    # These walk the generators of Aut(A) or build one duality.
    assert [is_characteristic(H) for H in subs].count(True) >= 2
    phi0 = canonical_duality(A)
    assert all(congruent(phi0, phi) is not None for phi in dualities if is_symmetric(phi))
    assert _run(capsys, "construct-pair", "--group", "2,4", "--h-gens", "10", "--k-gens", "01")[0] == 0
    assert _run(capsys, "filtration", "--group", "2,4")[0] == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("group,order", [(g, None) for g in CENSUS_GROUPS] + [("2,4,4", 4)])
def test_streamed_tables_match_the_in_memory_rendering(capsys, fmt, group, order):
    A = make_group([int(d) for d in group.split(",")])
    subs = [
        s
        for s in all_subgroups(A)
        if (s.order == order if order is not None else 1 < s.order < A.cardinality)
    ]
    argv = ["duals-table", "--group", group, "--format", fmt]
    argv += ["--order", str(order)] if order is not None else []
    assert _run(capsys, *argv) == (0, _duals_table_in_memory(A, subs, fmt), "")
    argv = ["dualities", "--group", group, "--list", "--format", fmt]
    assert _run(capsys, *argv) == (0, _dualities_list_in_memory(A, fmt), "")


# (group, --order) with 1 row, fewer rows than a block, a whole number of
# blocks (1,536 = 6 x 256) and a count that is not one (480, 336, 20,160).
_BLOCK_CASES = [("2", None), ("3,3", None), ("2,2,2", 2), ("2,4,4", 4), ("5,5", None),
                ("2,2,6", 2), ("2,2,2,2", None), ("2,2,2,2", 4)]


def test_block_cases_cover_the_row_counts():
    counts = {aut_order(make_group(map(int, g.split(",")))) for g, _ in _BLOCK_CASES}
    assert 1 in counts and any(1 < c < cli._BLOCK for c in counts)
    assert any(c % cli._BLOCK == 0 for c in counts)
    assert any(c > cli._BLOCK and c % cli._BLOCK for c in counts)


def _selected(A, order):
    return [s for s in all_subgroups(A)
            if (s.order == order if order is not None else 1 < s.order < A.cardinality)]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("group,order", _BLOCK_CASES)
def test_block_writer_matches_the_row_writer(capsys, fmt, group, order):
    # The rows built a block at a time from per-id texts are the bytes the
    # row-at-a-time writer with its (left, right) cell cache gave.
    A = make_group([int(d) for d in group.split(",")])
    argv = ["duals-table", "--group", group, "--format", fmt]
    argv += ["--order", str(order)] if order is not None else []
    want = census_oracle.duals_table_output(A, _selected(A, order), fmt)
    assert _run(capsys, *argv) == (0, want, "")
    argv = ["dualities", "--group", group, "--list", "--format", fmt]
    assert _run(capsys, *argv) == (0, census_oracle.dualities_output(A, fmt), "")


@pytest.mark.parametrize("block", [1, 5, 48])
@pytest.mark.parametrize("group,order", [("2,2", None), ("3,3", 3), ("2,8", None)])
def test_any_block_size_writes_the_same_bytes(capsys, monkeypatch, block, group, order):
    # Blocks of 1 row, and blocks that do and do not divide the row count.
    monkeypatch.setattr(cli, "_BLOCK", block)
    A = make_group([int(d) for d in group.split(",")])
    for fmt in ("text", "json"):
        argv = ["duals-table", "--group", group, "--format", fmt]
        argv += ["--order", str(order)] if order is not None else []
        want = census_oracle.duals_table_output(A, _selected(A, order), fmt)
        assert _run(capsys, *argv) == (0, want, "")
        argv = ["dualities", "--group", group, "--list", "--format", fmt]
        assert _run(capsys, *argv) == (0, census_oracle.dualities_output(A, fmt), "")


def test_duals_table_hashes_no_subgroup(capsys, monkeypatch):
    # The rows are lattice ids; each printed dual is named once by its id,
    # so no cell looks a Subgroup up in a cache.
    from groupdual import groups

    hashed = []
    subgroup_hash = groups.Subgroup.__hash__

    def counting(self):
        hashed.append(1)
        return subgroup_hash(self)

    monkeypatch.setattr(groups.Subgroup, "__hash__", counting)
    code, out, err = _run(capsys, "duals-table", "--group", "2,2,2", "--format", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 168
    assert hashed == []


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("group", ["2,4", "3,3"])
def test_dualities_list_flag_is_the_default_output(capsys, fmt, group):
    listed = _run(capsys, "dualities", "--group", group, "--list", "--format", fmt)
    assert listed[0] == 0 and listed[1]
    assert _run(capsys, "dualities", "--group", group, "--format", fmt) == listed


def test_duals_table_order_zero_selects_no_subgroup(capsys):
    code, out, err = _run(capsys, "duals-table", "--group", "2,2", "--order", "0")
    assert code == 0 and err == ""
    assert (code, out, err) == _run(
        capsys, "duals-table", "--group", "2,2", "--order", "3"
    )
    assert out.splitlines()[0] == "subgroups: "


def test_macwilliams_verify(capsys):
    code, out, _ = _run(
        capsys,
        "macwilliams",
        "verify",
        "--group",
        "2,4",
        "--code-gens",
        "12",
        "--duality-index",
        "3",
        "--enumerator",
        "complete",
        "--side",
        "right",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["match"] is True


def test_macwilliams_hamming_enumerates_each_code_once(capsys, monkeypatch):
    codes = []

    def counting(C):
        codes.append(C)
        return hwe(C)

    monkeypatch.setattr(cli, "hwe", counting)
    code, out, _ = _run(
        capsys,
        "macwilliams", "verify", "--group", "2,4", "--n", "2",
        "--code-gens", "12:01", "--duality-index", "3",
        "--enumerator", "hamming", "--side", "left",
    )
    assert code == 0 and out.endswith("match\n")
    assert len(codes) == len(set(codes)) == 2



# `macwilliams verify --enumerator complete` argv, with the direction it
# transforms in: |C| = 8,192 with a dual of 4 words, then |C| = 8 with a
# dual of 64 words.
_COMPLETE_VERIFY = [
    (("--group", "2,4", "--n", "5", "--code-gens", "13:00:00:00:00", "01:10:00:00:00",
      "00:12:00:00:00", "00:00:10:00:00", "00:00:01:00:00", "00:00:00:10:00",
      "00:00:00:01:00", "00:00:00:00:10", "00:01:00:00:03", "--duality-index", "3",
      "--side", "left"), "code_from_dual"),
    (("--group", "2,4", "--n", "3", "--code-gens", "01:13:00", "--duality-index", "5",
      "--side", "right"), "dual_from_code"),
]


def _forward_output(argv, fmt, dual=None):
    """The output of `macwilliams verify`, from mw_complete_transform of
    cwe(C) called directly; dual replaces cwe(D) if given."""
    ns = cli._read(cli._reader(), ["macwilliams", "verify", *argv])
    _, phi, C, D = cli._code_and_dual(argparse.Namespace(**ns))
    got = mw_complete_transform(cwe(C), phi, ns["side"])
    expected = cwe(D) if dual is None else dual
    transformed, direct = (
        [{"counts": list(k), "coeff": c} for k, c in E.terms] for E in (got, expected)
    )
    ok = got == expected
    if fmt == "json":
        out = {"enumerator": "complete", "transformed": transformed, "direct": direct,
               "match": ok}
        return json.dumps(out, sort_keys=True) + "\n"
    return (f"cwe transform terms: {transformed}\ncwe direct terms:    {direct}\n"
            + ("match\n" if ok else "MISMATCH\n"))


def _spy_directions(monkeypatch):
    directions = []

    def spy(E, phi, side, direction="dual_from_code"):
        directions.append(direction)
        return mw_complete_transform(E, phi, side, direction)

    monkeypatch.setattr(cli, "mw_complete_transform", spy)
    return directions


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,direction", _COMPLETE_VERIFY)
def test_complete_verify_prints_the_forward_transform_on_both_paths(
    capsys, monkeypatch, fmt, argv, direction
):
    directions = _spy_directions(monkeypatch)
    code, out, _ = _run(capsys, "macwilliams", "verify", *argv,
                        "--enumerator", "complete", "--format", fmt)
    assert code == 0 and directions == [direction]
    assert out == _forward_output(argv, fmt)


# Changes to cwe(D) of the first argv above.  Over Z/2 x Z/4 negation swaps
# letters 1, 3 and 5, 7: it fixes the zero word's count vector (5, 0, ...)
# and (3, 0, 2, 0, ...), and moves (2, 1, 0, 0, 0, 1, 1, 0).
_ZERO, _FIXED = (5,) + (0,) * 7, (3, 0, 2) + (0,) * 5
_MOVED = (2, 1, 0, 0, 0, 1, 1, 0)
_CORRUPTIONS = {
    "moved": {_ZERO: 1, _FIXED: -1},
    "not-invariant": {_ZERO: 1, _MOVED: -1},
    "wrong-total": {_ZERO: 1},
}


@pytest.mark.parametrize("kind", list(_CORRUPTIONS))
def test_complete_verify_falls_back_to_the_forward_transform(capsys, monkeypatch, kind):
    # cwe(D) corrupted: the output is the forward transform, never the input.
    argv, real, bad = _COMPLETE_VERIFY[0][0], cli.cwe, []

    def corrupting(C):
        E = real(C)
        if C.order == 8192:
            return E
        terms = dict(E.terms)
        for k, d in _CORRUPTIONS[kind].items():
            terms[k] += d
        bad.append(type(E)(E.base, E.n, tuple((k, c) for k, c in sorted(terms.items()) if c)))
        return bad[-1]

    monkeypatch.setattr(cli, "cwe", corrupting)
    directions = _spy_directions(monkeypatch)
    code, out, _ = _run(capsys, "macwilliams", "verify", *argv,
                        "--enumerator", "complete", "--format", "json")
    # Only a moved coefficient passes the preconditions; the transform back
    # then differs from cwe(C).
    assert code == 1
    assert directions == ["code_from_dual"] * (kind == "moved") + ["dual_from_code"]
    assert out == _forward_output(argv, "json", dual=bad[0])
    assert json.loads(out)["transformed"] != json.loads(out)["direct"]

def test_construct_pair(capsys):
    code, out, _ = _run(
        capsys,
        "construct-pair",
        "--group",
        "3,3",
        "--h-gens",
        "11",
        "--k-gens",
        "12",
        "--format",
        "json",
    )
    assert code == 0
    assert "tau" in json.loads(out)


def test_construct_pair_respects_limit(capsys):
    argv = ("construct-pair", "--group", "2,2,2", "--h-gens", "100", "--k-gens", "010", "001")
    code, out, err = _run(capsys, *argv, "--limit", "2")
    assert code == 1 and not out
    assert "exceeds enumeration bound 2" in err
    code, out, _ = _run(capsys, *argv, "--limit", "8")
    assert code == 0 and out.startswith("constructed: tau = ")


def test_construct_pair_impossible_without_search(capsys):
    code, _, err = _run(
        capsys,
        "construct-pair",
        "--group",
        "2,4",
        "--h-gens",
        "02",
        "--k-gens",
        "01",
    )
    assert code == 1
    assert err


@pytest.mark.parametrize("table_id", sorted(PAPER_TABLES))
def test_paper_tables_match_goldens(table_id, capsys):
    code, out, _ = _run(capsys, "paper-table", table_id)
    assert code == 0
    assert out == (GOLDENS / f"table-{table_id}.txt").read_text()
    # Byte-stable across runs.
    assert paper_table(table_id) == out


def test_paper_table_alias(capsys):
    code, out, _ = _run(capsys, "paper-table", "example-6.3")
    assert code == 0
    assert out == (GOLDENS / "table-6.3-duals.txt").read_text()


def test_unknown_table_id_is_domain_error(capsys):
    code, _, err = _run(capsys, "paper-table", "99.9")
    assert code == 1
    assert "unknown table id" in err


def test_bad_duality_index_is_domain_error(capsys):
    code, _, err = _run(
        capsys,
        "dual",
        "--group",
        "2,2",
        "--code-gens",
        "10",
        "--duality-index",
        "42",
        "--side",
        "left",
    )
    assert code == 1
    assert err == "error: duality index 42 out of range (0..5)\n"


@pytest.mark.parametrize("command", [("dual",), ("macwilliams", "verify")])
@pytest.mark.parametrize("index", ["6", "-1"])
def test_out_of_range_duality_index_line(capsys, command, index):
    argv = ("--group", "2,2", "--code-gens", "10", "--duality-index", index, "--side", "left")
    assert _run(capsys, *command, *argv) == (
        1, "", f"error: duality index {index} out of range (0..5)\n"
    )


def test_usage_error_exit_code(capsys):
    assert _run(capsys, "dualities")[0] == 2  # missing --group
    assert _run(capsys, "no-such-command")[0] == 2


@pytest.mark.parametrize("group", ["2,x", "2,4,"])
def test_malformed_group_is_a_usage_error(capsys, group):
    code, out, err = _run(capsys, "group", "--group", group)
    assert (code, out) == (2, "")
    assert err == f"error: bad group orders {group!r}\n"


def test_adk_limit_bounds_the_enumeration(capsys, monkeypatch):
    monkeypatch.setenv("ADK_LIMIT", "7")
    code, out, err = _run(capsys, "dualities", "--group", "2,2,2", "--count-only")
    assert (code, out) == (1, "")
    assert "exceeds enumeration bound 7" in err


def test_limit_flag_overrides_a_malformed_adk_limit(capsys, monkeypatch):
    monkeypatch.setenv("ADK_LIMIT", "abc")
    argv = ["dualities", "--group", "2,2", "--count-only"]
    assert _run(capsys, *argv, "--limit", "5") == (0, "6 total, 4 symmetric\n", "")
    code, _, err = _run(capsys, *argv)
    assert code == 1 and "ADK_LIMIT must be an integer, got 'abc'" in err


def test_a_negative_adk_limit_is_refused_unless_limit_overrides_it(capsys, monkeypatch):
    monkeypatch.setenv("ADK_LIMIT", "-1")
    argv = ["dualities", "--group", "2", "--count-only"]
    assert _run(capsys, *argv) == (1, "", "error: ADK_LIMIT must be at least 0, got -1\n")
    assert _run(capsys, *argv, "--limit", "5") == (0, "1 total, 1 symmetric\n", "")


def test_consecutive_runs_match_separate_runs(capsys):
    argvs = [
        ["dualities", "--group", "2,4", "--count-only"],
        ["dualities", "--group", "2,4", "--no-such-flag"],
        ["congruence", "--group", "2,2", "--format", "json"],
        ["dual", "--group", "2,4", "--code-gens", "02", "--duality-index", "0"],
        ["group", "--group", "2,4", "--subgroups"],
        ["macwilliams", "--help"],
        ["dualities", "--group", "2,4", "--list"],
    ]
    separate = []
    for argv in argvs:
        cli._parser.cache_clear()
        separate.append(_run(capsys, *argv))
    assert [code for code, _, _ in separate] == [0, 2, 0, 2, 0, 0, 0]
    consecutive = [_run(capsys, *argv) for argv in argvs]
    assert consecutive == separate
    assert cli._parser.cache_info().currsize == 1


def test_parser_is_not_built_at_import():
    code = (
        "import groupdual.cli as c; "
        "print(c._parser.cache_info().currsize, c._reader.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "0 0"


def _argparse_vars(argv):
    """Oracle: vars of parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


def _check_reader(argv):
    """The reader returns None, or argparse's attributes; None wherever
    argparse exits.  Returns what the reader returned."""
    got = cli._read(cli._reader(), list(argv))
    assert got is None or got == _argparse_vars(argv)
    return got


def _option_strings(parser):
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)


_PARSER = cli.build_parser()
_OPTIONS = sorted(set(_option_strings(_PARSER)))
_SUBCOMMANDS = [
    name
    for action in _PARSER._actions
    if isinstance(action, argparse._SubParsersAction)
    for name in action.choices
]
_WORDS = (
    ["2,4", "2,2", "8", "01", "10", "12", "11:10", "0", "3", "-1", "-0", "7", "-12"]
    + ["left", "right", "text", "json", "hamming", "complete", "4.4", "verify"]
    + ["", "-", "--", "-h", "-x", "--no-such-flag", "stray", " 5", "1_0", "-1.5", "-1 2"]
    + [option[:3] for option in _OPTIONS if option.startswith("--")]
    + [option[:-1] for option in _OPTIONS if option.startswith("--")]
    + [option + "=3" for option in _OPTIONS]
    + _SUBCOMMANDS
)


def _readme_examples():
    """The argv of each `groupdual ...` example in the README's CLI section."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("groupdual ")
    ]


# Option groups that some subcommand accepts.
_GROUPS = [
    ("--group", "2,4"), ("--format", "json"), ("--limit", "-1"), ("--limit", "0"),
    ("--n", "1"), ("--n", "-0"), ("--duality-index", "-12"), ("--side", "right"),
    ("--enumerator", "hamming"), ("--code-gens", "01", "-1"), ("--code-gens", ""),
    ("--order", "2"), ("--p", "3"), ("--h-gens", "10"), ("--k-gens", "01", "10"),
    ("--count-only",), ("--list",), ("--subgroups",), ("--search",),
]


@given(
    st.sampled_from(_readme_examples()),
    st.sets(st.integers(0, 20), max_size=2),
    st.lists(
        st.tuples(
            st.integers(0, 20),
            st.one_of(
                st.sampled_from(_GROUPS),
                st.lists(st.sampled_from(_OPTIONS + _WORDS), min_size=1, max_size=3),
            ),
        ),
        max_size=3,
    ),
)
@settings(max_examples=400, deadline=None)
def test_the_reader_agrees_with_argparse(base, drops, inserts):
    # A README example with tokens dropped and words inserted at the end or
    # before an option.
    argv = [token for k, token in enumerate(base) if k not in drops]
    for at, tokens in inserts:
        points = [k for k in range(len(argv)) if argv[k][:2] == "--"] + [len(argv)]
        at = points[at % len(points)]
        argv[at:at] = tokens
    _check_reader(argv)


_DUAL = ["dual", "--group", "2,4", "--code-gens", "01", "--duality-index", "3", "--side", "left"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dualities", "--group", "2,2", "--count-only", "--count-only"],
        ["dualities", "--group", "2,2", "--group", "3,3", "--list"],
        ["dual", "--group", "2,4", "--code-gens", "01", "-1", "--duality-index", "-0",
         "--side", "left"],
        [*_DUAL, "--code-gens", "10", "11", "--n", "1", "--format", "json"],
        ["filtration", "--group", "8", "--limit", "-1", "--p", " 3"],
        ["group", "--group", "", "--subgroups"],
        ["duals-table", "--group", "2,2", "--order", "1_0", "--limit", "٣"],
        ["congruence", "--group", "3,3", "--format", "json", "--format", "text"],
        ["macwilliams", "verify", *_DUAL[1:], "--enumerator", "complete", "--n", "1"],
        ["construct-pair", "--group", "2,2", "--h-gens", "10", "--k-gens", "01", "--search"],
        ["paper-table", "4.4"],
        ["paper-table", "--format", "json", "example-4.11"],
        ["paper-table", "-5", "--format", "text"],
        ["paper-table", ""],
    ],
)
def test_the_reader_takes_exact_options_and_their_values(argv):
    assert _check_reader(argv) is not None


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["dualities", "-h"],
        ["dualities", "--group", "2,2", "--help"],
        ["macwilliams"],
        ["macwilliams", "-h"],
        ["macwilliams", "verif", *_DUAL[1:]],
        ["macwilliams", "verify", "--help"],
        ["dualities", "--group=2,2"],
        ["dualities", "--gr", "2,2"],
        ["dualities", "--group", "2,2", "--count"],
        ["dualities", "--", "--group", "2,2"],
        ["dualities", "--group", "2,2", "--"],
        ["dualities", "--group", "--", "2,2"],
        [*_DUAL, "--code-gens", "-x"],
        [*_DUAL, "--code-gens", "01", "-"],
        [*_DUAL, "--duality-index", "-1.5"],
        [*_DUAL, "--duality-index", "-٣"],
        [*_DUAL, "--code-gens"],
        [*_DUAL, "--side", "up"],
        [*_DUAL, "--n", "x"],
        _DUAL[:-2],
        ["paper-table"],
        ["no-such-command"],
        ["dualitie", "--group", "2,2"],
        ["--group", "2,2", "dualities"],
        ["dualities", "--group", "2,2", "stray"],
        ["dualities", "--group", "2,2", "-5"],
        ["dualities", "--group", "2,2", "--no-such-flag"],
        ["dualities", "--group", "2,2", "--format", "yaml"],
        ["dualities", "--group", "2,2", "--limit", "1e3"],
        ["dualities"],
        ["dualities", "--group"],
        ["paper-table", "4.4", "4.5"],
        ["paper-table", "--", "4.4"],
        ["paper-table", "-x"],
        ["paper-table", "-1.5"],
        ["paper-table", "--format", "json"],
        ["paper-table", "4.4", "--format"],
        ["paper-table", "-h"],
    ],
)
def test_the_reader_leaves_help_errors_and_other_forms_to_argparse(argv):
    assert _check_reader(argv) is None


def _takewhile_read(view, argv):
    """Oracle: `cli._read` as it was, testing each token for a value with
    `_is_value` through takewhile."""
    i = 1 if tuple(argv[:1]) in view else 2
    command = view.get(tuple(argv[:i]))
    if command is None:
        return None
    flags, defaults, required, positional = command
    ns, seen = dict(defaults), set()
    while i < len(argv):
        option = flags.get(argv[i])
        if option is None:
            if positional is None or positional in seen or not cli._is_value(argv[i]):
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
        values = list(takewhile(cli._is_value, argv[i : len(argv) if many else i + 1]))
        if not values:
            return None
        i += len(values)
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


# Tokens around a run of values: negative integers, '--', '-', non-ASCII
# digits, '-x' and empty values.
_RUN_TOKENS = ["01", "10", "-1", "-0", "-12", "--", "-", "-٣", "٣", "", "-x", "1-", "-1.5",
               " -1", "--code-gens", "--side", "--n", "3", "left"]


@given(
    st.sampled_from(_readme_examples() + [_DUAL]),
    st.integers(0, 40),
    st.lists(st.sampled_from(_RUN_TOKENS), max_size=12),
)
@settings(max_examples=500, deadline=None)
def test_the_reader_ends_runs_of_values_as_takewhile_did(base, at, tokens):
    argv = list(base)
    at = at % (len(argv) + 1)
    argv[at:at] = tokens
    assert cli._read(cli._reader(), argv) == _takewhile_read(cli._reader(), argv)


@pytest.mark.parametrize("words", [
    ["01"] * 128, ["01", "-1", "-0", "10"], ["-1"] * 5, ["01", "--", "10"], ["01", "-٣"],
    ["٣", "01"], ["01", "-x"], ["", "01", ""], ["01", "-"], ["-05", "-1 2", "01"],
])
@pytest.mark.parametrize("after", [[], ["--side", "left"], ["--n", "-1"], ["--format"]])
def test_the_reader_reads_long_and_odd_runs_as_takewhile_did(words, after):
    argv = ["dual", "--group", "2", "--duality-index", "0", "--code-gens", *words, *after]
    assert cli._read(cli._reader(), argv) == _takewhile_read(cli._reader(), argv)


_FAST_EXAMPLES = _readme_examples()
# One argv of each shape that the benchmark decks send (perfbench/workloads.py).
_DECK_SHAPES = [
    ["dualities", "--group", "2,4", "--list", "--format", "json"],
    ["dualities", "--group", "2,4", "--count-only"],
    ["congruence", "--group", "2,2", "--format", "json"],
    ["filtration", "--group", "2,4", "--format", "json"],
    ["duals-table", "--group", "2,4", "--format", "json"],
    ["construct-pair", "--group", "2,2", "--format", "json", "--h-gens", "10", "--k-gens", "01"],
    ["dual", "--group", "2,4", "--n", "2", "--code-gens", "01:10", "11:02",
     "--duality-index", "3", "--side", "right", "--format", "json"],
    ["macwilliams", "verify", "--group", "3,3", "--n", "2", "--code-gens", "10:01",
     "--duality-index", "5", "--enumerator", "complete", "--side", "left", "--format", "json"],
    ["macwilliams", "verify", "--group", "2,4", "--n", "3", "--code-gens", "01:10:11",
     "--duality-index", "3", "--enumerator", "hamming", "--side", "right", "--format", "json"],
]


def test_the_readme_has_an_example_of_every_subcommand():
    assert {argv[0] for argv in _readme_examples()} == set(_SUBCOMMANDS)


# Each paper table by its id, and one alias, beyond the README's.
_TABLES = [
    argv
    for argv in [["paper-table", table_id] for table_id in PAPER_TABLES]
    + [["paper-table", "example-6.3", "--format", "json"]]
    if argv not in _FAST_EXAMPLES
]


@pytest.mark.parametrize("argv", _FAST_EXAMPLES + _DECK_SHAPES + _TABLES, ids=" ".join)
def test_readme_examples_are_read_without_argparse(capsys, monkeypatch, argv):
    args = cli.build_parser().parse_args(argv)
    code = args.fn(args)
    want = capsys.readouterr()

    def refuse(*_):
        raise AssertionError("argparse was asked to parse an accepted argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert _run(capsys, *argv) == (code, want.out, want.err)


@pytest.mark.parametrize(
    "argv", _FAST_EXAMPLES + _DECK_SHAPES + [["paper-table", "4.4"]], ids=" ".join)
def test_a_second_run_builds_no_group(capsys, monkeypatch, argv):
    # Every group a command reads, A, A^n and the primary parts, is
    # interned by make_group: a second run finds each one already built.
    first = _run(capsys, *argv)
    built = []
    post_init = GroupSpec.__post_init__
    monkeypatch.setattr(GroupSpec, "__post_init__", lambda A: built.append(A) or post_init(A))
    assert _run(capsys, *argv) == first
    assert built == []


# The shape that build_parser() keeps, independent of the Python version's
# help layout: per (sub)parser by its command words, (help, fn, actions),
# each action (option strings, dest, nargs, type, choices, default,
# required, help).
_HELP = (("-h", "--help"), "help", 0, None, None, "==SUPPRESS==", False,
         "show this help message and exit")
_GROUP = [
    (("--group",), "group", None, None, None, None, True,
     "comma-separated cyclic orders, e.g. 2,4 for Z/2 x Z/4"),
    (("--format",), "format", None, None, ("text", "json"), "text", False, None),
    (("--limit",), "limit", None, "int", None, None, False, "override enumeration/scan bound"),
]
_PARSER_SHAPE = {
    (): (
        "Exact dualities, dual codes, and MacWilliams identities over finite abelian groups.",
        None,
        [
            _HELP,
            ((), "subcommand", "A...", None,
             ("group", "dualities", "dual", "duals-table", "congruence", "filtration",
              "macwilliams", "paper-table", "construct-pair"), None, True, None),
        ],
    ),
    ("group",): ("describe a group; optionally list subgroups", "_cmd_group", [
        _HELP,
        *_GROUP,
        (("--subgroups",), "subgroups", 0, None, None, False, False, None),
    ]),
    ("dualities",): ("enumerate dualities", "_cmd_dualities", [
        _HELP,
        *_GROUP,
        (("--list",), "list", 0, None, None, False, False, "no-op: listing is the default"),
        (("--count-only",), "count_only", 0, None, None, False, False, None),
    ]),
    ("dual",): ("left or right dual of a code", "_cmd_dual", [
        _HELP,
        *_GROUP,
        (("--code-gens",), "code_gens", "+", None, None, None, True, None),
        (("--n",), "n", None, "int", None, 1, False, None),
        (("--duality-index",), "duality_index", None, "int", None, None, True, None),
        (("--side",), "side", None, None, ("left", "right"), None, True, None),
    ]),
    ("duals-table",): ("left/right duals of subgroups under every duality", "_cmd_duals_table", [
        _HELP,
        *_GROUP,
        (("--order",), "order", None, "int", None, None, False, "filter by subgroup order"),
    ]),
    ("congruence",): ("congruence classes of dualities", "_cmd_congruence", [
        _HELP,
        *_GROUP,
    ]),
    ("filtration",): ("multiplication-by-p filtration and its duals", "_cmd_filtration", [
        _HELP,
        *_GROUP,
        (("--p",), "p", None, "int", None, None, False, None),
    ]),
    ("macwilliams",): ("verify a MacWilliams identity", None, [
        _HELP,
        ((), "action", "A...", None, ("verify",), None, True, None),
    ]),
    ("macwilliams", "verify"): (None, "_cmd_macwilliams", [
        _HELP,
        *_GROUP,
        (("--code-gens",), "code_gens", "+", None, None, None, True, None),
        (("--n",), "n", None, "int", None, 1, False, None),
        (("--duality-index",), "duality_index", None, "int", None, None, True, None),
        (("--enumerator",), "enumerator", None, None, ("hamming", "complete"), "hamming", False,
         None),
        (("--side",), "side", None, None, ("left", "right"), None, True, None),
    ]),
    ("paper-table",): ("emit a worked table byte-stably", "_cmd_paper_table", [
        _HELP,
        ((), "table_id", None, None, None, None, True, None),
        (("--format",), "format", None, None, ("text", "json"), "text", False, None),
    ]),
    ("construct-pair",): (
        "symmetric duality making two subgroups mutual duals", "_cmd_construct_pair", [
        _HELP,
        *_GROUP,
        (("--h-gens",), "h_gens", "+", None, None, None, True, None),
        (("--k-gens",), "k_gens", "+", None, None, None, True, None),
        (("--search",), "search", 0, None, None, False, False, "fall back to exhaustive search"),
    ]),
}


def _parser_shape(parser, words=(), help=None, shape=None):
    shape = {} if shape is None else shape
    actions = [
        (tuple(a.option_strings), a.dest, a.nargs, a.type and a.type.__name__,
         a.choices if a.choices is None else tuple(a.choices), a.default, a.required, a.help)
        for a in parser._actions
    ]
    fn = parser._defaults.get("fn")
    shape[words] = (help, fn and fn.__name__, actions)
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in a._choices_actions}
            for name, sub in a.choices.items():
                _parser_shape(sub, words + (name,), helps.get(name), shape)
    return shape


def test_the_parser_keeps_its_shape():
    parser = cli.build_parser()
    assert _parser_shape(parser, help=parser.description) == _PARSER_SHAPE


def test_limit_flag_triggers_limit_error(capsys):
    code, _, err = _run(
        capsys,
        "dualities",
        "--group",
        "3,3",
        "--count-only",
        "--limit",
        "4",
    )
    assert code == 1
    assert "exceed" in err or "limit" in err.lower()


def test_limit_zero_is_a_bound_not_the_default(capsys):
    code, out, err = _run(
        capsys, "dualities", "--group", "2,2", "--count-only", "--limit", "0"
    )
    assert code == 1
    assert out == ""
    assert "bound 0" in err


# A code of order 8^5 * 4 = 131,072 in (Z/2 x Z/4)^10: the unit words of
# blocks 1-5 and one word whose blocks 6-10 have order 4.  |A^10| = 8^10.
_UNITS = [
    ":".join(u if b == j else "00" for b in range(10))
    for j in range(5)
    for u in ("10", "01")
]
_N10_ARGS = ["dual", "--group", "2,4", "--n", "10", "--duality-index", "3",
             "--side", "left", "--format", "json", "--code-gens",
             *_UNITS, "11:13:02:01:12:10:03:11:02:13"]


def test_dual_at_length_ten_is_found_without_scanning_the_space(capsys):
    code, out, _ = _run(capsys, *_N10_ARGS)
    assert code == 0
    body = json.loads(out)
    assert body["order"] == len(body["elements"]) == 8**10 // 131072 == 8192


def test_dual_limit_counts_the_dual_before_enumerating_it(capsys, monkeypatch):
    from groupdual import codes

    def refuse(*args):
        raise AssertionError("the dual was enumerated past its limit")

    monkeypatch.setattr(codes, "_zero_subgroup", refuse)
    code, out, err = _run(capsys, *_N10_ARGS, "--limit", "4096")
    assert code == 1
    assert out == ""
    assert "order 8192" in err and "bound 4096" in err


def test_code_words_keep_their_parse_errors(capsys):
    base = ["dual", "--group", "2,4", "--duality-index", "0", "--side", "left"]
    code, _, err = _run(capsys, *base, "--n", "2", "--code-gens", "01:1")
    assert code == 1 and "expected 2 coordinates in '1'" in err
    code, _, err = _run(capsys, *base, "--n", "2", "--code-gens", "01")
    assert code == 1 and "expected 2 blocks in '01'" in err
    code, _, err = _run(capsys, *base, "--code-gens", "0x")
    assert code == 1 and "invalid literal" in err
    # At n = 1 a ':' splits the word into blocks too, as at every other n.
    code, _, err = _run(capsys, *base, "--code-gens", "0:1")
    assert code == 1 and "expected 1 blocks in '0:1'" in err
    # Coordinates are reduced: 35 is the word 11.
    assert _run(capsys, *base, "--code-gens", "35") == _run(capsys, *base, "--code-gens", "11")


def _tuple_parse_code(A, n, gen_words):
    """Oracle: the reader the packed one replaced.  Each word is split into
    its n blocks, each distinct block parsed once by `parse_coords`, and
    the coordinate tuples are spanned by the tuple closure."""
    blocks, gens = {}, []
    for word in gen_words:
        parts = word.split(":")
        if len(parts) != n:
            raise ValueError(f"expected {n} blocks in {word!r}")
        coords = ()
        for part in parts:
            if part not in blocks:
                blocks[part] = A.parse_coords(part)
            coords += blocks[part]
        gens.append(coords)
    return gens, _span(A.orders * n, gens)


def _same_parse(A, n, words):
    """The packed reader parses and prints `words` as the oracle does, or
    refuses them with the same error."""
    try:
        gens, (basis, span) = _tuple_parse_code(A, n, words)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            cli._parse_code(A, n, words)
        assert str(got.value) == str(exc)
        return False
    H = cli._parse_code(A, n, words).subgroup
    spec = make_group(A.orders * n)
    assert (H.gens, H.basis, H.members) == (tuple(gens), tuple(basis), tuple(sorted(span)))
    assert H.words() == [spec.format_coords(c) for c in sorted(span)]
    return True


_PARSE_CASES = [
    # Digit words, one and several.
    ("2,4", 3, ["01:13:00", "12:01:13"], True),
    ("2", 10, ["1:1:0:1:0:0:1:1:1:0", "0:1:1:0:1:0:0:1:0:1"], True),
    ("3", 1, ["2", "1", "0"], True),
    # Out-of-range digits are reduced: 3 reads as 1 over Z/2.
    ("2", 3, ["3:1:0"], True),
    ("2,4", 2, ["25:09", "01:13"], True),
    # Non-ASCII digits, which int() reads.
    ("2,4", 1, ["\uff11\uff10"], True),
    ("2,4", 2, ["\uff11\uff10:01", "01:13"], True),
    ("3", 2, ["\u0662:1"], True),
    # Spaces around a block are stripped; inside one they are not.
    ("2,4", 2, [" 01:13", "01 :13"], True),
    ("2", 2, ["0:1 1", "0"], False),
    ("2,4", 2, ["01:13", "0 :13"], False),
    # Wrong block and coordinate counts, empty blocks, signs, other bytes.
    ("2,4", 3, ["01:13"], False),
    ("2,4", 3, ["01:13:00:00"], False),
    ("2,4", 3, ["0:113:00"], False),
    ("2,4", 3, ["011:13:00"], False),
    ("2,4", 2, ["01::13"], False),
    ("2,4", 2, ["01:13", ""], False),
    ("2,4", 2, ["-1:13"], False),
    ("2,4", 2, ["0x:13"], False),
    ("2", 2, ["0:1", "0:1:"], False),
    ("2", 2, ["::1"], False),
    ("2,4", 2, ["01:13", "0:::3"], False),
    # Comma words (some d_i > 10), reduced and refused alike.
    ("3,12", 2, ["1,5:2,11", "0,6:1,3"], True),
    ("3,12", 2, ["4,13:0,0"], True),
    ("12,3", 1, ["11, 2"], True),
    ("3,12", 2, ["1,5,0:2,11"], False),
    ("3,12", 2, ["15:2,11"], False),
    ("3,12", 2, ["1;5:2,11"], False),
]


@pytest.mark.parametrize("group, n, words, accepted", _PARSE_CASES)
def test_code_words_parse_and_print_as_the_tuple_reader_did(group, n, words, accepted):
    A = make_group([int(d) for d in group.split(",")])
    assert _same_parse(A, n, words) == accepted


@pytest.mark.parametrize("group, n, words, packed", [
    ("2,4", 3, ["01:13:00", "12:01:13"], True),
    ("2", 10, ["1:1:0:1:0:0:1:1:1:0"] * 3, True),
    ("2,2,3", 2, ["012:112", "002:000", "110:001"], True),
    ("2", 3, ["3:1:0"], False),
    ("2,4", 2, ["01:13", "02:14"], False),
    ("2,4", 2, ["\uff11\uff10:01"], False),
    ("2,4", 2, [" 01:13"], False),
    ("2,4", 2, ["01:13 ", "01:13"], False),
    ("2", 2, ["0:1 1", "0"], False),
    ("2,4", 2, ["01:13:", "01:13"], False),
    ("2", 2, ["::1"], False),
    ("2,4", 2, ["01:13", "0:::3"], False),
    ("3,12", 2, ["1,5:2,11"], False),
])
def test_reduced_ascii_digit_words_are_packed_in_one_pass(group, n, words, packed):
    # Only words all in reduced ASCII digits take the one-pass reader, and
    # it packs each into the coordinates that the tuple reader gives.
    from groupdual.groups import _packing

    A = make_group([int(d) for d in group.split(",")])
    P = _packing(make_group(A.orders * n))
    got = P.from_digits(words, A.rank)
    assert (got is not None) == packed
    if packed:
        assert [P.unpack(x) for x in got] == _tuple_parse_code(A, n, words)[0]


_WORD_GROUPS = [make_group(o) for o in ([2, 4], [2], [3], [2, 2, 3], [12, 3])]


@st.composite
def _code_words(draw):
    """Words of A^n, most in the right shape, some with a byte changed,
    added or dropped."""
    A, n = draw(st.sampled_from(_WORD_GROUPS)), draw(st.integers(1, 4))
    sep = "," if max(A.orders) > 10 else ""
    words = []
    for _ in range(draw(st.integers(1, 4))):
        word = ":".join(sep.join(str(draw(st.integers(0, 12))) for _ in A.orders)
                        for _ in range(n))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(word)))
            junk = draw(st.sampled_from(["", "0", "9", ":", " ", ",", "-", "\uff11", "a"]))
            word = word[:i] + junk + word[i + draw(st.integers(0, 1)):]
        words.append(word)
    return A, n, words


@given(_code_words())
@settings(max_examples=400, deadline=None)
def test_arbitrary_code_words_parse_as_the_tuple_reader_did(case):
    _same_parse(*case)


def _all_code_words(group, n, gens):
    """Every word of the code spanned by `gens`, written as the CLI reads it."""
    A = make_group([int(d) for d in group.split(",")])
    k = A.rank
    return [
        ":".join(A.format_coords(w[i : i + k]) for i in range(0, k * n, k))
        for w in cli._parse_code(A, n, gens).subgroup.members
    ]


@pytest.mark.parametrize(
    "group, n, gens, index",
    [
        ("2,4", 2, ["01:10", "12:03"], 3),
        ("2,4", 3, ["01:13:00"], 5),
        ("4", 1, ["2"], 1),
        ("3,3", 1, ["10", "11"], 7),
        ("12,3", 2, ["1,0:0,1", "6,2:3,0"], 10),
    ],
)
@pytest.mark.parametrize("side", ["left", "right"])
def test_redundant_generators_change_no_output(capsys, group, n, gens, index, side):
    # The code given by all its words, each unit word repeated and the zero
    # word added, must print the bytes of the code given by a few words.
    words = _all_code_words(group, n, gens)
    zero = words[0]
    redundant = words[::-1] + gens + [zero]
    assert len(words) > len(gens) and set(zero) <= {"0", ",", ":"}
    common = ["--group", group, "--n", str(n), "--duality-index", str(index), "--side", side]
    commands = [
        ["dual", *common],
        ["dual", *common, "--format", "json"],
        ["macwilliams", "verify", *common, "--enumerator", "hamming"],
        ["macwilliams", "verify", *common, "--enumerator", "complete", "--format", "json"],
    ]
    for argv in commands:
        plain = _run(capsys, *argv, "--code-gens", *gens)
        assert plain[0] == 0 and plain[1]
        assert _run(capsys, *argv, "--code-gens", *redundant) == plain


_MACWILLIAMS_ARGS = (
    "macwilliams", "verify", "--group", "2,4", "--n", "3", "--code-gens", "01:13:00",
    "--duality-index", "3", "--enumerator", "complete", "--side", "right",
)


@pytest.mark.parametrize(
    "argv, read",
    [
        # About 2 MB of text: the reader stops after 10 bytes, like `head -c 10`.
        (("duals-table", "--group", "2,4,4", "--order", "4"), 10),
        # The reader is gone before the first write.
        (_MACWILLIAMS_ARGS, None),
    ],
)
def test_a_closed_pipe_exits_1_without_a_traceback(argv, read):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    r, w = os.pipe()
    if read is None:
        os.close(r)
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupdual.cli", *argv],
        stdout=w, stderr=subprocess.PIPE, env=env,
    )
    os.close(w)
    if read is not None:
        assert len(os.read(r, read)) > 0
        os.close(r)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")
