#!/usr/bin/env python3
"""Wall time, peak RSS, exit code and stdout hash of groupdual commands, each
run in a fresh process on a parent checkout and this working tree in turn.

Usage: python3 scripts/cli_walls.py --parent REV_OR_DIR [--rounds 5]
           [--repeat 1] ROW [ROW ...] > walls.json

Each ROW is one groupdual command line without the program name, as
"dualities --group 2,4,4 --count-only"; a first token "timeout=S" gives the
row its own timeout in seconds, else it has 20 s.  --parent is a checkout
directory or a git revision of this repository, whose src/ is exported to a
temporary directory.  Each child runs `python -m groupdual.cli ROW` from its
side's checkout with PYTHONPATH=<checkout>/src and PYTHONDONTWRITEBYTECODE
unset.  One unmeasured `paper-table 3.3` per side writes the bytecode
caches.  Each round runs every row --repeat times on each side, the sides
alternating and the parent first in even rounds.  A child still running at
its row's timeout is killed and recorded as killed.  The result is one JSON
object on stdout.  Linux only (pidfd_open, wait4).

Each round is one pair of a row.  A side's figure in a pair is the fastest
wall of its runs in that round, or null if one of them was killed: load
from other processes on a shared machine only ever slows a run.  The
change gains on a row when it is faster in at least nine tenths of all
pairs and its median figure is below the parent's by more than the
distance between the parent's quartiles.

Children start by vfork, and exec carries the parent's RSS high-water mark
into the child's ru_maxrss.  So each child's parent is a fresh bare
interpreter (`LAUNCHER`) that spawns it, times it and kills it at the
timeout, while this process hashes its stdout in chunks, never whole.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHUNK = 1 << 16
WARM_UP = ["paper-table", "3.3"]
SIDES = ("parent", "change")
TIMEOUT_S = 20.0
# The child's parent: a bare interpreter that spawns the child with its own
# stdout, kills it at the timeout, and writes "wall maxrss status killed"
# on stderr.  It stays near 9 MiB, below any child's peak.
LAUNCHER = """
import os, select, sys, time
timeout, stderr_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
err = os.open(stderr_path, os.O_WRONLY)
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, err, 2)])
killed = not select.select([os.pidfd_open(pid)], [], [], timeout)[0]
if killed:
    os.kill(pid, 9)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(2, f"{wall!r} {usage.ru_maxrss} {status} {int(killed)}\\n".encode())
"""


def _git(*args):
    """stdout of a git command in this repository, or None if it fails."""
    proc = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _parent_checkout(ref, tmp):
    """(checkout directory, commit) of --parent: a directory as given, or
    the src/ of a git revision exported under tmp."""
    if Path(ref).is_dir():
        return Path(ref).resolve(), None
    commit = _git("rev-parse", "--verify", ref + "^{commit}")
    if commit is None:
        raise SystemExit(f"error: --parent {ref!r} is neither a directory nor a git revision")
    archive = Path(tmp) / "src.tar"
    subprocess.run(["git", "-C", str(REPO), "archive", "--output", str(archive), commit, "src"],
                   check=True)
    with tarfile.open(archive) as tar:
        # The archive is this repository's own; filter= needs 3.10.12 or 3.11.4.
        tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return Path(tmp), commit


def run_child(checkout, argv, timeout):
    """One fresh `python -m groupdual.cli argv` on a checkout: its wall time,
    peak RSS, exit code, state ("exited", or "killed" at the timeout), the
    sha256 and size of its stdout, and the first line of its stderr."""
    # Bytecode caches are written, as a user's first run writes them.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(checkout / "src")
    child = [sys.executable, "-m", "groupdual.cli", *argv]
    digest, size = hashlib.sha256(), 0
    with tempfile.NamedTemporaryFile() as err:
        launcher = [sys.executable, "-I", "-S", "-c", LAUNCHER, str(timeout), err.name, *child]
        with subprocess.Popen(launcher, cwd=checkout, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            out = proc.stdout.fileno()
            while chunk := os.read(out, CHUNK):
                digest.update(chunk)
                size += len(chunk)
            report = proc.stderr.read().decode()
        if proc.returncode != 0:
            raise RuntimeError(f"launcher failed on {argv}: {report}")
        wall, maxrss_kib, status, killed = report.split()
        stderr_line = err.readline(200).decode(errors="replace").rstrip("\n")
    killed = killed == "1"
    return {
        "wall_s": round(float(wall), 4),
        "peak_rss_mib": round(int(maxrss_kib) / 1024, 1),
        "exit_code": os.waitstatus_to_exitcode(int(status)),
        "state": "killed" if killed else "exited",
        "stdout_sha256": None if killed else digest.hexdigest(),
        "stdout_bytes": size,
        "stderr_first_line": stderr_line,
    }


def parse_row(row):
    """(argv, timeout) of one ROW."""
    argv = shlex.split(row)
    if argv and argv[0].startswith("timeout="):
        return argv[1:], float(argv[0][len("timeout="):])
    return argv, TIMEOUT_S


def _hardware():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            model = next(line.split(":", 1)[1].strip() for line in info
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPU ({model}), {platform.system()} {platform.release()}"


def pairs(row_runs, rounds, repeat):
    """Each side's figure per pair, who was faster in how many pairs, the
    parent's and the change's quartiles, and whether the change gains."""
    figures = {}
    for side in SIDES:
        figures[side] = []
        for r in range(rounds):
            runs = row_runs[side][r * repeat:(r + 1) * repeat]
            exited = all(run["state"] == "exited" for run in runs)
            figures[side].append(min(run["wall_s"] for run in runs) if exited else None)
    both = [(p, c) for p, c in zip(figures["parent"], figures["change"]) if None not in (p, c)]
    result = {f"{side}_s": figures[side] for side in SIDES}
    result["change_faster"] = sum(c < p for p, c in both)
    result["parent_faster"] = sum(p < c for p, c in both)
    result["change_gains"] = False
    if len(both) == rounds >= 2:
        for side in SIDES:
            result[f"{side}_quartiles_s"] = [
                round(q, 5) for q in statistics.quantiles(figures[side], n=4, method="inclusive")]
        q1, median, q3 = result["parent_quartiles_s"]
        result["change_gains"] = (result["change_faster"] >= 0.9 * rounds
                                  and median - result["change_quartiles_s"][1] > q3 - q1)
    return result


def measure(checkouts, rows, rounds, repeat=1):
    """The result rows: for each row, each side's runs, the best and the
    median wall time of the runs that exited, whether every run on both
    sides exited and printed the same stdout, and the pairs."""
    for side in SIDES:
        run_child(checkouts[side], WARM_UP, 60)
    runs = [{side: [] for side in SIDES} for _ in rows]
    for r in range(rounds):
        for (argv, timeout), row_runs in zip(rows, runs):
            for i in range(repeat):
                for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                    row_runs[side].append(run_child(checkouts[side], argv, timeout))
    result = []
    for (argv, timeout), row_runs in zip(rows, runs):
        entry = {"command": "groupdual " + shlex.join(argv), "timeout_s": timeout}
        for side in SIDES:
            walls = [run["wall_s"] for run in row_runs[side] if run["state"] == "exited"]
            entry[side] = {
                "runs": row_runs[side],
                "best_wall_s": min(walls, default=None),
                "median_wall_s": statistics.median(walls) if walls else None,
            }
        # A killed run has no hash, so a row killed on either side never matches.
        hashes = {run["stdout_sha256"] for side in SIDES for run in row_runs[side]}
        entry["same_stdout"] = len(hashes) == 1 and None not in hashes
        entry["pairs"] = pairs(row_runs, rounds, repeat)
        result.append(entry)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout directory or git revision")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=1, help="runs per side in each round")
    parser.add_argument("rows", nargs="+", metavar="ROW")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeat < 1:
        parser.error("--rounds and --repeat must be at least 1")
    rows = [parse_row(row) for row in args.rows]
    with tempfile.TemporaryDirectory() as tmp:
        parent, parent_commit = _parent_checkout(args.parent, tmp)
        dirty = _git("status", "--porcelain", "--untracked-files=no")
        report = {
            "python": platform.python_version(),
            "hardware": _hardware(),
            "parent": {"source": args.parent, "commit": parent_commit},
            "change": {"source": str(REPO), "commit": _git("rev-parse", "HEAD"),
                       "uncommitted_changes": bool(dirty)},
            "rounds": args.rounds,
            "repeat": args.repeat,
            "method": "one fresh `python -m groupdual.cli` child per run under a fresh bare "
                      "interpreter, wall time from spawn to wait4, peak RSS from wait4, stdout "
                      "sha256 read in chunks; the sides alternate run by run, the parent first in "
                      "even rounds; a pair is one round, each side's figure the fastest of its "
                      "runs in it",
            "rows": measure({"parent": parent, "change": REPO}, rows, args.rounds, args.repeat),
        }
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
