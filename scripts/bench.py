#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<label>.json.

Usage: python scripts/bench.py [--root DIR] [--label L] [--seed N]

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
"""

import argparse
import json
import os
import platform
import re
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


def src_lines(root: Path) -> dict[str, int]:
    """Line count of each ``src/sifbm/*.py`` module, as ``wc -l`` counts it."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "sifbm").glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--label", default=None)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    commit = git(root, "rev-parse", "--short", "HEAD")
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    label = args.label or commit + ("-dirty" if dirty else "")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    workloads = {}
    for wl in spec["workloads"]:
        print(f"bench: {wl['name']} ...", file=sys.stderr)
        workloads[wl["name"]] = run_workload(root, wl["name"], args.seed, seconds)
    print("bench: tier-1 ...", file=sys.stderr)
    tier1 = run_tier1(root)
    modules = src_lines(root)

    record = {
        "label": label,
        "commit": commit,
        "dirty": dirty,
        "benchmark": {"seed": args.seed, "seconds": seconds, "trace": 0},
        "workloads": workloads,
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
    ok = tier1["exit_code"] == 0 and all(w["correct"] for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
