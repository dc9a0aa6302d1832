#!/usr/bin/env python3
"""Check that two source trees write the same artifacts.

Usage: python scripts/compare_artifacts.py BASE CHANGE [--seed 7]

BASE and CHANGE are checkouts of this repository (a ``git archive`` or
``git clone`` of each commit).  For each of ``configs/demo.json``,
``benchmark/configs/wide.json`` and ``benchmark/configs/intrep_coarse.json``
it runs the six commands, in pipeline order, under each tree's ``src/``: one
fresh interpreter per command, one BLAS thread, the config read from that
tree, the outputs in a temporary directory.  Then it compares:

- the exit code of every command;
- every artifact other than the manifests, byte for byte; a CSV or JSON
  artifact that differs is listed with the largest relative difference of
  its numbers, so a change that moves only the last bits shows as such;
- the manifests as JSON, with ``wall_time_s`` removed;
- CHANGE's ``ensemble.sifb`` against the one a ``simulate --jobs 2`` run
  under CHANGE writes, byte for byte: the data must not depend on --jobs.

Prints one line per difference and exits 1 if there is any, else prints a
summary line and exits 0.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("configs/demo.json", "benchmark/configs/wide.json", "benchmark/configs/intrep_coarse.json")
COMMANDS = ("simulate", "project", "recover-measure", "verify-intrep", "characterize", "report")
ENSEMBLE = "ensemble.sifb"
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_command(tree: Path, command: str, config: str, seed: int, out: Path, *extra: str) -> int:
    """Exit code of one command, run in a fresh interpreter on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), SIFBM_OUT=str(out), **ONE_THREAD)
    proc = subprocess.run(
        [sys.executable, "-m", "sifbm.cli", command, "--config", config, "--seed", str(seed), *extra],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode


def run_pipeline(tree: Path, config: str, seed: int, out: Path) -> list[int]:
    """Exit code of each command, in pipeline order."""
    return [run_command(tree, command, config, seed, out) for command in COMMANDS]


def manifest(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    return data


def compare(base: Path, change: Path) -> list[str]:
    """One line per artifact that differs between two output directories."""
    diffs = []
    names = {p.name for p in base.iterdir()} | {p.name for p in change.iterdir()}
    for name in sorted(names):
        a, b = base / name, change / name
        if not (a.exists() and b.exists()):
            diffs.append(f"{name}: only in {'BASE' if a.exists() else 'CHANGE'}")
        elif name.startswith("manifest_"):
            if manifest(a) != manifest(b):
                diffs.append(f"{name}: manifests differ beyond wall_time_s")
        elif a.read_bytes() != b.read_bytes():
            diffs.append(f"{name}: bytes differ{numeric_gap(a, b)}")
    return diffs


def tokens(path: Path) -> list:
    """The fields of a CSV artifact, or the keys and values of a JSON one in
    sorted-key order, each a float where it is a number and text otherwise."""
    def token(x):
        if isinstance(x, bool) or x is None:
            return json.dumps(x)
        try:
            return float(x)
        except (TypeError, ValueError):
            return x

    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [token(x) for row in csv.reader(fh) for x in row]
    out = []

    def walk(x):
        if isinstance(x, dict):
            for k in sorted(x):
                out.append(k)
                walk(x[k])
        elif isinstance(x, list):
            for v in x:
                walk(v)
        else:
            out.append(token(x))

    walk(json.loads(path.read_text()))
    return out


def numeric_gap(a: Path, b: Path) -> str:
    """For CSV and JSON artifacts, the largest relative difference of their
    numbers, |x - y| / max(|x|, |y|), or a note that more than numbers differ."""
    if a.suffix not in (".csv", ".json"):
        return ""
    try:
        ta, tb = tokens(a), tokens(b)
    except ValueError:
        return " (not parseable)"
    if len(ta) != len(tb) or any(
        isinstance(x, str) != isinstance(y, str) or (isinstance(x, str) and x != y)
        for x, y in zip(ta, tb)
    ):
        return " (more than numbers differ)"
    gap = 0.0
    for x, y in zip(ta, tb):
        if isinstance(x, float) and x != y and not (math.isnan(x) and math.isnan(y)):
            rel = abs(x - y) / max(abs(x), abs(y))
            gap = math.inf if math.isnan(rel) else max(gap, rel)
    return f" (largest relative difference of numbers {gap:.3g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    diffs, n_files = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            outs = [Path(tmp) / side / Path(config).stem for side in ("base", "change")]
            codes = [
                run_pipeline(tree.resolve(), config, args.seed, out)
                for tree, out in zip((args.base, args.change), outs)
            ]
            for command, a, b in zip(COMMANDS, *codes):
                if a != b:
                    diffs.append(f"{config}: {command} exits {a} in BASE, {b} in CHANGE")
            diffs += [f"{config}: {line}" for line in compare(*outs)]
            jobs_out = Path(tmp) / "jobs2" / Path(config).stem
            run_command(args.change.resolve(), "simulate", config, args.seed, jobs_out, "--jobs", "2")
            ensembles = [out / ENSEMBLE for out in (outs[1], jobs_out)]
            if not all(p.exists() for p in ensembles) or len({p.read_bytes() for p in ensembles}) != 1:
                diffs.append(f"{config}: {ENSEMBLE} of simulate --jobs 2 differs from --jobs 1 in CHANGE")
            n_files += len(list(outs[1].iterdir()))
            print(f"{config}: exit codes {codes[1]}", file=sys.stderr)
    for line in diffs:
        print(line)
    if diffs:
        return 1
    print(f"no differences: {len(CONFIGS)} configs, {len(COMMANDS)} commands, {n_files} artifacts, --jobs 2 ensembles equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
