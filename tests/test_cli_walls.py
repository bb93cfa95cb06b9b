"""scripts/cli_walls.py: fresh-process walls, peak RSS, exit codes and
stdout hashes, rows killed at their timeout, pairs, and a parent exported
from a git revision."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from groupdual.tables import paper_table

REPO = Path(__file__).resolve().parent.parent
RUN_FIELDS = {"wall_s", "peak_rss_mib", "exit_code", "state", "stdout_sha256", "stdout_bytes",
              "stderr_first_line"}
# A stand-in parent: the warm-up exits at once, `paper-table` prints nothing
# after 0.2 s, and any other command sleeps far past its timeout.
SLOW_CLI = """import sys, time
if sys.argv[1:] != ["paper-table", "3.3"]:
    time.sleep(0.2 if sys.argv[1] == "paper-table" else 60)
"""


def cli_walls(*args):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "cli_walls.py"), *args],
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_cli_walls_times_hashes_and_kills():
    # Listing the 9,999,360 dualities of (Z/2)^5 prints one line each: no
    # speed-up brings that under 1 s.
    report = cli_walls("--parent", str(REPO), "--rounds", "1", "paper-table 4.4",
                       "dualities --group 2,4 --limit 1 --count-only",
                       "timeout=1 dualities --group 2,2,2,2,2 --limit 100000000")
    assert report["python"].count(".") == 2 and "CPU" in report["hardware"]
    assert report["parent"] == {"source": str(REPO), "commit": None}
    assert report["rounds"] == 1 and report["repeat"] == 1
    table, refused, killed = report["rows"]
    assert [row["command"] for row in report["rows"]] == [
        "groupdual paper-table 4.4", "groupdual dualities --group 2,4 --limit 1 --count-only",
        "groupdual dualities --group 2,2,2,2,2 --limit 100000000"]
    assert [row["timeout_s"] for row in report["rows"]] == [20.0, 20.0, 1.0]
    text = paper_table("4.4").encode()
    for row in (table, refused, killed):
        for side in ("parent", "change"):
            (run,) = row[side]["runs"]
            assert set(run) == RUN_FIELDS
            assert 0 < run["wall_s"] < 20 and 5 < run["peak_rss_mib"] < 200
        # One round is one pair, too few for quartiles.
        assert row["pairs"]["change_gains"] is False and "parent_quartiles_s" not in row["pairs"]
    for side in ("parent", "change"):
        (run,) = table[side]["runs"]
        assert run["state"] == "exited" and run["exit_code"] == 0
        assert run["stdout_sha256"] == hashlib.sha256(text).hexdigest()
        assert run["stdout_bytes"] == len(text) and run["stderr_first_line"] == ""
        assert table[side]["best_wall_s"] == table[side]["median_wall_s"] == run["wall_s"] < 1
        assert table["pairs"][f"{side}_s"] == [run["wall_s"]]
        (run,) = refused[side]["runs"]
        assert run["state"] == "exited" and run["exit_code"] == 1 and run["stdout_bytes"] == 0
        assert run["stderr_first_line"] == "error: group of order 8 exceeds enumeration bound 1"
        assert refused[side]["best_wall_s"] < 1
        (run,) = killed[side]["runs"]
        assert run["state"] == "killed" and run["exit_code"] == -9
        assert run["stdout_sha256"] is None and 1 <= run["wall_s"] < 5
        assert killed[side]["best_wall_s"] is None
        assert killed["pairs"][f"{side}_s"] == [None]
    assert table["same_stdout"] and refused["same_stdout"] and not killed["same_stdout"]


def test_cli_walls_pairs_and_a_row_killed_on_one_side(tmp_path):
    package = tmp_path / "src" / "groupdual"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(SLOW_CLI)
    report = cli_walls("--parent", str(tmp_path), "--rounds", "2", "--repeat", "2",
                       "paper-table 4.4", "timeout=0.5 dualities --group 2,4 --count-only")
    assert report["repeat"] == 2
    table, counted = report["rows"]
    for row in (table, counted):
        assert len(row["parent"]["runs"]) == len(row["change"]["runs"]) == 4
        assert not row["same_stdout"]
    # The parent is 0.2 s slower in every pair.
    assert table["pairs"]["change_faster"] == 2 and table["pairs"]["parent_faster"] == 0
    assert all(p > c + 0.1 for p, c in zip(table["pairs"]["parent_s"], table["pairs"]["change_s"]))
    assert table["pairs"]["change_gains"] is True
    # Killed on every parent run and finished on every change run.
    assert {run["state"] for run in counted["parent"]["runs"]} == {"killed"}
    assert {run["state"] for run in counted["change"]["runs"]} == {"exited"}
    assert counted["pairs"]["parent_s"] == [None, None]
    assert counted["pairs"]["change_faster"] == 0 and counted["pairs"]["change_gains"] is False


def test_cli_walls_exports_a_git_revision():
    head = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    report = cli_walls("--parent", "HEAD", "--rounds", "1", "paper-table 4.4")
    assert report["parent"] == {"source": "HEAD", "commit": head.stdout.strip()}
    (row,) = report["rows"]
    assert row["same_stdout"]
    assert row["parent"]["runs"][0]["stdout_sha256"] == hashlib.sha256(
        paper_table("4.4").encode()).hexdigest()
