#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<label>.json.

Usage: python scripts/bench.py [--root DIR] [--label L] [--seed N]
                               [--against PARENT --pairs N]

Runs ``benchmark/run.py --trace 0`` of the checkout at ``--root`` (default:
this repository) once on each workload named in its ``BENCHMARK.json``, for
that file's ``run_seconds``, then its tier-1 suite once, and writes
``BENCH_<label>.json`` into this repository's root.  The label defaults to
the checkout's short commit hash, with ``-dirty`` when its tree has
uncommitted changes.  The file holds each workload's reported metrics
(``wall_s`` and ``setup_s`` are medians over the run's repetitions,
``peak_rss_mb`` their maximum), whether its outputs were correct and how
many operations failed, the tier-1 wall time and summary line, its ten
slowest test phases as pytest's ``--durations=10`` reports them,
``src_lines`` (the total line count of the checkout's ``src/sifbm/*.py``,
as ``wc -l`` counts it) and ``src_module_lines`` (each module's count, by
file name), the core count and the numpy and Python versions.
Exit 1 when a workload's outputs were incorrect or tier-1 did not pass; the
file is written either way.

With ``--against PARENT`` it compares the checkout with the one at PARENT
(say, a ``git archive`` of the parent commit) in ``--pairs`` pairs of runs,
each side through its own ``benchmark/run.py --trace 0``.  Pair i, from 0,
runs every workload at seed ``--seed + i`` on both sides, the parent first
when i is odd.  ``runs`` holds every run, and ``summary`` per workload: the
operations attempted and failed on each side, and per end-to-end metric each
side's median and quartiles (``statistics.quantiles(values, n=4)``), the
change's ``wins`` and ``losses`` over the pairs (a tie counts for neither),
``gain`` (the change wins at least nine tenths of the pairs and its median
is better than the parent's by more than the parent's interquartile range),
``shift`` (the change's median worse than the parent's by this fraction of
it), ``spread`` (the larger side's interquartile range over its median) and
``verdict``: ``worse`` when the shift exceeds the metric's bound,
``unresolved`` when the spread does and not every run of the change reads
better than every run of the parent, else ``holds``.  Tier-1 runs once, on
the checkout at ``--root``.  A tree outside git, such as a ``git archive``
copy, is labelled by its directory name.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
# one line of pytest's --durations report: "2.95s call     tests/x.py::test_y"
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)$")


def git(root: Path, *args) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def checkout(root: Path) -> tuple[str | None, bool | None]:
    """(short commit hash, whether tracked files changed) of the git checkout
    at ``root``, or (None, None) for a tree without ``.git``."""
    if not (root / ".git").exists():
        return None, None
    commit = git(root, "rev-parse", "--short", "HEAD")
    return commit, bool(git(root, "status", "--porcelain", "--untracked-files=no"))


def label_of(root: Path) -> str:
    commit, dirty = checkout(root)
    return commit + ("-dirty" if dirty else "") if commit else root.name


def run_workload(root: Path, name: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: {name} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    slowest = [
        {"s": float(m[1]), "phase": m[2], "test": m[3]}
        for m in map(DURATION.match, lines) if m
    ]
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "", "slowest": slowest}


def run_pairs(sides: dict[str, Path], spec: dict, seed: int, pairs: int) -> list[dict]:
    """Every run of ``pairs`` pairs over the workloads of ``spec``, on the
    ``parent`` and ``change`` checkouts of ``sides``."""
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for wl in spec["workloads"]:
            for side in order:
                print(f"bench: pair {i} {wl['name']} {side} ...", file=sys.stderr)
                result = run_workload(sides[side], wl["name"], seed + i, spec["run_seconds"])
                runs.append({"pair": i, "seed": seed + i, "workload": wl["name"], "side": side,
                             "first": side == order[0], **result})
    return runs


def summarize(parent: list[float], change: list[float], metric: dict) -> dict:
    """One end-to-end metric over paired runs, ``parent[i]`` against
    ``change[i]``, judged by its ``better`` direction and ``bound``."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    gap = sign * (qp[1] - qc[1])  # positive when the change's median is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    shift = -gap / qp[1]
    spread = max((q[2] - q[0]) / q[1] for q in (qp, qc))
    apart = all(sign * (p - c) > 0 for p in parent for c in change)
    if shift > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not apart:
        verdict = "unresolved"
    else:
        verdict = "holds"
    return {
        "parent": dict(zip(("q1", "median", "q3"), qp)),
        "change": dict(zip(("q1", "median", "q3"), qc)),
        "wins": wins,
        "losses": losses,
        "gain": wins >= 0.9 * len(parent) and gap > qp[2] - qp[0],
        "shift": shift,
        "spread": spread,
        "bound": metric["bound"],
        "verdict": verdict,
    }


def summary(runs: list[dict], spec: dict) -> dict:
    """Per workload of ``spec``: the operations each side attempted and
    failed, and ``summarize`` of each end-to-end metric over the pairs."""
    out = {}
    for wl in spec["workloads"]:
        side = {s: [r for r in runs if r["workload"] == wl["name"] and r["side"] == s]
                for s in ("parent", "change")}
        entry = {
            "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in side.items()},
            "failed": {s: sum(r["failed"] for r in rs) for s, rs in side.items()},
        }
        for m in spec["end_to_end"]:
            parent, change = ([r["metrics"][m["name"]]["value"] for r in side[s]] for s in ("parent", "change"))
            entry[m["name"]] = summarize(parent, change, m)
        out[wl["name"]] = entry
    return out


def src_lines(root: Path) -> dict[str, int]:
    """Line count of each ``src/sifbm/*.py`` module, as ``wc -l`` counts it."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "sifbm").glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--label", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--against", type=Path, default=None, help="the parent checkout to pair runs with")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2, for quartiles")
    root = args.root.resolve()
    commit, dirty = checkout(root)
    label = args.label or label_of(root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    if args.against is None:
        workloads = {}
        for wl in spec["workloads"]:
            print(f"bench: {wl['name']} ...", file=sys.stderr)
            workloads[wl["name"]] = run_workload(root, wl["name"], args.seed, seconds)
        runs = workloads.values()
        measured = {"workloads": workloads}
    else:
        against = args.against.resolve()
        runs = run_pairs({"parent": against, "change": root}, spec, args.seed, args.pairs)
        measured = {
            "against": {"label": label_of(against), "src_lines": sum(src_lines(against).values())},
            "pairs": args.pairs,
            "runs": runs,
            "summary": summary(runs, spec),
        }
    print("bench: tier-1 ...", file=sys.stderr)
    tier1 = run_tier1(root)
    modules = src_lines(root)

    record = {
        "label": label,
        "commit": commit,
        "dirty": dirty,
        "benchmark": {"seed": args.seed, "seconds": seconds, "trace": 0},
        **measured,
        "tier1": tier1,
        "src_lines": sum(modules.values()),
        "src_module_lines": modules,
        "host": {
            "cores": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    path = HERE / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"bench: wrote {path}", file=sys.stderr)
    ok = tier1["exit_code"] == 0 and all(r["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
