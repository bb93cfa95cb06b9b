"""Tests of the benchmark itself, on tiny decks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
# Only tasks whose ambient group has at most this many elements.
TINY = 64
SEED = 7


@pytest.fixture(scope="module", autouse=True)
def checkout_source():
    workloads.use_checkout_source()


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_tiny_run_reports_every_metric_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run.measure(workload, SEED, 0.2, trace, max_size=TINY, min_tasks=20)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _corrupt(task):
    """Make one task's output wrong in a way its check must notice."""
    call = task.call
    if task.kind == "congruence":
        def bad():
            code, out = call()
            classes = json.loads(out)
            classes[0]["size"] += 1
            return code, json.dumps(classes)
    elif task.kind == "dual":
        def bad():
            code1, out1, code2, out2 = call()
            data = json.loads(out2)
            data["elements"].pop()
            return code1, out1, code2, json.dumps(data)
    elif task.kind == "poisson_check":
        def bad():
            call()
            return False
    else:
        return False
    task.call = bad
    return True


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_corrupted_output_counts_as_failure(workload, monkeypatch):
    deck = next(workloads.decks(workload, SEED, TINY))
    corrupted = sum(_corrupt(t) for t in deck)
    assert corrupted >= 1
    monkeypatch.setattr(workloads, "decks", lambda *_: iter([deck] * 100))
    attempted, failed, metrics = run.end_to_end(workload, SEED, 0.0, min_tasks=1)
    assert attempted == run.BLOCK_DECKS * len(deck)
    assert failed == run.BLOCK_DECKS * corrupted
    assert metrics["success_rate"]["value"] == (attempted - failed) / attempted < 1


def test_two_traced_runs_give_identical_counts():
    first = run.per_layer("macwilliams", SEED, 0.0, TINY)
    second = run.per_layer("macwilliams", SEED, 0.0, TINY)
    assert first[:3] == second[:3]
    counts = {
        name for name, m in first[3].items() if m["unit"] != "s" and name != "trace.overhead_frac"
    }
    assert {n: first[3][n] for n in counts} == {n: second[3][n] for n in counts}
    assert first[3]["cyclotomic.CycInt.mul.calls"]["value"] > 0


def test_tracer_counts_limit_errors_and_restores_every_binding():
    import groupdual.codes
    import groupdual.groups
    from tracer import Tracer

    before = (groupdual.codes.subgroup_closure, groupdual.groups.Homomorphism.apply)
    tracer = Tracer()
    tracer.install()
    try:
        assert groupdual.codes.subgroup_closure is not before[0]
        assert workloads.cli(["dualities", "--group", "2,2,2", "--count-only", "--limit", "4"])[0] == 1
    finally:
        tracer.uninstall()
    assert (groupdual.codes.subgroup_closure, groupdual.groups.Homomorphism.apply) == before
    assert tracer.layer_metrics()["limits.exceeded"]["value"] == 1


@pytest.mark.parametrize("orders", workloads.CENSUS_GROUPS)
def test_oracles_agree_with_the_library_on_the_census_pool(orders):
    from groupdual import all_subgroups, automorphism_group, make_group

    A = make_group(orders)
    assert oracles.aut_order(orders) == len(automorphism_group(A))
    assert [len(h) for h, _ in oracles.subgroups(orders)] == [s.order for s in all_subgroups(A)]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
