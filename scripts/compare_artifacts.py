#!/usr/bin/env python3
"""Check that two source trees write the same artifacts.

Usage: python scripts/compare_artifacts.py BASE CHANGE [--seed 7 [--seed 11 ...]]

BASE and CHANGE are checkouts of this repository (a ``git archive`` or
``git clone`` of each commit).  For each of ``configs/demo.json``,
``benchmark/configs/wide.json`` and ``benchmark/configs/intrep_coarse.json``
it runs the six commands, in pipeline order, under each tree's ``src/``: one
fresh interpreter per command, one BLAS thread, the config read from that
tree, the outputs in a temporary directory.  Then it compares:

- the exit code of every command;
- every artifact other than the manifests, byte for byte; an
  ``ensemble.sifb`` that differs is listed with the largest absolute
  difference of its samples and where it is, and a CSV or JSON
  artifact that differs with the largest relative difference of
  its nonzero numbers and where it is, so a change that moves only the last
  bits shows as such; counted apart are the numbers that move to or from 0
  (their relative difference is 1 whatever their size) and those that move
  by at most ``ROUND_OFF`` times the largest |number| of the two files (a
  round-off value's relative move can be large and would hide the moves
  that matter), with the largest of those moves and where it is; then the
  first text field that differs with both values,
  and for JSON whether any ``passed``, ``verdict`` or ``overall`` value
  differs;
- the manifests as JSON, with ``wall_time_s`` removed;
- CHANGE's ``ensemble.sifb`` against the one a ``simulate --jobs 2`` run
  under CHANGE writes, byte for byte: the data must not depend on --jobs.

Each ``--seed`` runs all of this at that seed (7 when none is given).
Prints one line per difference, led by its seed, and exits 1 if there is
any, else prints a summary line and exits 0.
"""

import argparse
import csv
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = ("configs/demo.json", "benchmark/configs/wide.json", "benchmark/configs/intrep_coarse.json")
COMMANDS = ("simulate", "project", "recover-measure", "verify-intrep", "characterize", "report")
ENSEMBLE = "ensemble.sifb"
SIFB_HEADER = struct.Struct("<4sBQQ")  # magic, version, rows, columns
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
            diffs.append(f"{name}: bytes differ{difference_note(a, b)}")
    return diffs


# JSON keys whose values are verdicts: a change to one is a flipped outcome
VERDICT_KEYS = ("passed", "verdict", "overall")
# a number that moves by at most this times the largest |number| in the two
# files moves at round-off scale: its relative difference is not ranked
ROUND_OFF = 1e-12


def fields(path: Path) -> dict:
    """Where -> value of each field of a CSV artifact, by line and column, or
    of each leaf of a JSON one, by its key path in sorted-key order (an empty
    object or list is a leaf); a float where the value is a number and text
    otherwise."""
    def token(x):
        if isinstance(x, bool) or x is None or x == [] or x == {}:
            return json.dumps(x)
        try:
            return float(x)
        except (TypeError, ValueError):
            return x

    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return {
                f"line {i + 1} field {j + 1}": token(x)
                for i, row in enumerate(csv.reader(fh)) for j, x in enumerate(row)
            }
    out = {}

    def walk(x, where):
        if isinstance(x, dict) and x:
            for k in sorted(x):
                walk(x[k], f"{where}.{k}" if where else k)
        elif isinstance(x, list) and x:
            for i, v in enumerate(x):
                walk(v, f"{where}[{i}]")
        else:
            out[where] = token(x)

    walk(json.loads(path.read_text()), "")
    return out


def difference_note(a: Path, b: Path) -> str:
    """For CSV and JSON artifacts: the largest relative difference of their
    numbers where neither is 0, |x - y| / max(|x|, |y|), with its field,
    over the numbers that move by more than ``ROUND_OFF`` times the largest
    finite |number| of the two files; how many numbers move to or from 0,
    and how many move by less, each with the first, and the largest of
    those smaller moves with its field; the first field that
    differs otherwise, with its value on each side; and for JSON, whether a
    ``VERDICT_KEYS`` value differs.  For SIFB ensembles, ``sifb_note``."""
    if a.suffix == ".sifb":
        return sifb_note(a, b)
    if a.suffix not in (".csv", ".json"):
        return ""
    try:
        fa, fb = fields(a), fields(b)
    except ValueError:
        return " (not parseable)"
    numbers = [abs(v) for f in (fa, fb) for v in f.values() if isinstance(v, float)]
    floor = ROUND_OFF * max((v for v in numbers if math.isfinite(v)), default=0.0)
    gap, gap_at, zeros, small, text, flip = 0.0, None, [], [], None, None
    move, move_at = 0.0, None
    for where in [*fa, *(w for w in fb if w not in fa)]:
        x, y = fa.get(where, "<absent>"), fb.get(where, "<absent>")
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            if x == 0 or y == 0:
                zeros.append(f"{where}: {x!r} in BASE, {y!r} in CHANGE")
                continue
            if abs(x - y) <= floor:
                small.append(f"{where}: {x!r} in BASE, {y!r} in CHANGE")
                if abs(x - y) > move:
                    move, move_at = abs(x - y), where
                continue
            rel = abs(x - y) / max(abs(x), abs(y))
            rel = math.inf if math.isnan(rel) else rel
            if rel > gap:
                gap, gap_at = rel, where
        elif x != y:
            text = text or f"first text difference at {where}: {x!r} in BASE, {y!r} in CHANGE"
            if where.rsplit(".", 1)[-1] in VERDICT_KEYS:
                flip = flip or where
    notes = [f"largest relative difference of numbers {gap:.3g}" + (f" at {gap_at}" if gap_at else "")]
    if zeros:
        notes.append(f"{len(zeros)} number(s) move to or from 0, first at {zeros[0]}")
    if small:
        notes.append(
            f"{len(small)} number(s) move by at most {floor:.3g} ({ROUND_OFF:g} of the largest "
            f"|number|), first at {small[0]}"
        )
        notes.append(f"the largest of them moves by {move:.3g} at {move_at}")
    notes += [text] * (text is not None)
    if a.suffix == ".json":
        notes.append(f"a verdict differs at {flip}" if flip else "no passed, verdict or overall value differs")
    return f" ({'; '.join(notes)})"


def sifb_note(a: Path, b: Path) -> str:
    """The largest absolute difference of two SIFB ensembles' samples, with
    its row and column, if their headers and sizes agree."""
    raw = [p.read_bytes() for p in (a, b)]
    if raw[0][:SIFB_HEADER.size] != raw[1][:SIFB_HEADER.size] or len(raw[0]) != len(raw[1]):
        return " (headers or sizes differ)"
    _, _, rows, cols = SIFB_HEADER.unpack_from(raw[0])
    x, y = (np.frombuffer(r, "<f8", rows * cols, SIFB_HEADER.size).reshape(rows, cols) for r in raw)
    gap = np.abs(x - y)
    i, j = np.unravel_index(np.argmax(gap), gap.shape)
    return f" (largest absolute difference of samples {gap[i, j]:.3g} at row {i} column {j})"


def compare_seed(base: Path, change: Path, seed: int, tmp: Path) -> tuple[list[str], int]:
    """The difference lines of the three configs at one seed, and the
    number of artifacts CHANGE wrote, with the outputs under ``tmp``."""
    diffs, n_files = [], 0
    for config in CONFIGS:
        outs = [tmp / side / Path(config).stem for side in ("base", "change")]
        codes = [
            run_pipeline(tree.resolve(), config, seed, out)
            for tree, out in zip((base, change), outs)
        ]
        for command, a, b in zip(COMMANDS, *codes):
            if a != b:
                diffs.append(f"{config}: {command} exits {a} in BASE, {b} in CHANGE")
        diffs += [f"{config}: {line}" for line in compare(*outs)]
        jobs_out = tmp / "jobs2" / Path(config).stem
        run_command(change.resolve(), "simulate", config, seed, jobs_out, "--jobs", "2")
        ensembles = [out / ENSEMBLE for out in (outs[1], jobs_out)]
        if not all(p.exists() for p in ensembles) or len({p.read_bytes() for p in ensembles}) != 1:
            diffs.append(f"{config}: {ENSEMBLE} of simulate --jobs 2 differs from --jobs 1 in CHANGE")
        n_files += len(list(outs[1].iterdir()))
        print(f"seed {seed}: {config}: exit codes {codes[1]}", file=sys.stderr)
    return diffs, n_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, action="append", help="seed to run at; repeat for more (default 7)")
    args = parser.parse_args(argv)
    seeds = args.seed or [7]
    diffs, n_files = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            lines, n = compare_seed(args.base, args.change, seed, Path(tmp) / f"seed{seed}")
            diffs += [f"seed {seed}: {line}" for line in lines]
            n_files += n
    for line in diffs:
        print(line)
    if diffs:
        return 1
    print(
        f"no differences: {len(seeds)} seed(s), {len(CONFIGS)} configs, {len(COMMANDS)} commands, "
        f"{n_files} artifacts, --jobs 2 ensembles equal"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
