#!/usr/bin/env python3
"""Benchmark of the sifbm CLI: three workloads, each checked for correctness.

Usage:
    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The checkout root is the parent of this directory; the program is imported
from its ``src/``.  Each repetition runs the workload's timed commands in a
fresh interpreter (a closed loop of one client, ``--jobs 1``), one repetition
after another.  A run makes ``--seconds`` divided by the workload's nominal
repetition time ``rep_s`` repetitions, rounded, and at least ``MIN_REPS``:
the count depends on nothing measured, so every run of a workload at one
``--seconds`` attempts the same operations.  The workload seed
is passed to every command as ``sifbm --seed``; the configs stay as
committed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced repetitions and reports
the per-layer ones.  See README.md in this directory.
"""

import os

# One BLAS thread per process, set before numpy loads here or in a child, so
# a run uses one thread, and two only in the --jobs 2 check.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# Start no repetition after this many seconds, so a run ends within 180 s
# even on a host far slower than the nominal repetition times assume.
LAST_START_S = 100

WORKLOADS = {
    "demo-simulate": {
        "config": "configs/demo.json",
        "setup": [],
        "commands": ["simulate"],
        "rep_s": 10.0,
        "jobs2_check": True,
    },
    "wide-project": {
        "config": "benchmark/configs/wide.json",
        "setup": ["simulate"],
        "commands": ["project", "report"],
        "rep_s": 2.5,
    },
    "intrep-coarse": {
        "config": "benchmark/configs/intrep_coarse.json",
        "setup": [],
        "commands": ["verify-intrep"],
        "rep_s": 8.0,
    },
}

ALL_COMMANDS = list(dict.fromkeys(
    c for wl in WORKLOADS.values() for c in wl["setup"] + wl["commands"]
))

# Per-layer count metric -> (counter recorded by tracing.py, wrapped targets
# it needs; if one of them is absent, so is the metric).
COUNT_METRICS = {
    "gaussian.rows_sampled": ("gaussian.rows_sampled", ["gaussian.sample_ensemble"]),
    "stats.profile_pairs": ("stats.profile_pairs", ["stats.variance_profile"]),
    "rects.rect_intersection_calls": ("rects.rect_intersection", ["rects.rect_intersection"]),
    "rects.union_measure_calls": ("rects.union_measure", ["rects.union_measure"]),
    "intrep.grid_cells": (
        "intrep.grid_cells", ["intrep.simulate_via_integral", "intrep.build_kernel_grid"]
    ),
    "intrep.paths_drawn": (
        "intrep.paths_drawn", ["intrep.simulate_via_integral", "intrep.half_case_simulate"]
    ),
}


@dataclass
class Rep:
    """One repetition of the timed commands."""

    traced: bool
    ok: bool = True
    setup_s: float = 0.0
    wall_s: float = 0.0
    times: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    codes: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def spawn(commands, config, seed, out: Path, jobs=1, trace=False) -> dict | None:
    """Run commands in a fresh interpreter; None if it produced no result."""
    result_path = out / f"result_{'_'.join(commands)}.json"
    result_path.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    spec = {
        "root": str(ROOT), "config": str(ROOT / config), "seed": seed, "out": str(out),
        "commands": commands, "jobs": jobs, "trace": trace, "t_spawn": t_spawn,
        "result": str(result_path),
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=sys.stderr, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {commands} timed out", file=sys.stderr)
        return None
    t_end = time.monotonic()
    if proc.returncode != 0 or not result_path.exists():
        print(f"bench: child for {commands} exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["process_s"] = t_end - t_spawn
    return result


def run_rep(wl: dict, seed: int, out: Path, trace: bool) -> Rep:
    """Run the timed commands once, in a fresh interpreter."""
    rep = Rep(traced=trace)
    got = spawn(wl["commands"], wl["config"], seed, out, trace=trace)
    if got is None:
        rep.ok = False
        rep.codes = [None] * len(wl["commands"])
        return rep
    rep.setup_s = got["setup_s"]
    rep.times = got["times"]
    rep.wall_s = sum(rep.times)
    rep.peak_rss_mb = got["peak_rss_mb"]
    rep.codes = got["codes"]
    rep.traces.append(got.get("trace"))
    return rep


def data_digests(out: Path) -> dict:
    """sha256 of every data artifact; manifests carry wall time, so they
    are left out."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and not p.name.startswith(("manifest_", "result_"))
    }


def program_config(wl: dict, seed: int):
    from sifbm.config import load_config

    return load_config(ROOT / wl["config"], seed_override=seed)


def check_demo(wl: dict, seed: int, out: Path):
    cfg = program_config(wl, seed)
    corners = np.array([u.corner for u in cfg.ensemble_indices()], dtype=float)
    samples = checks.read_sifb(out / "ensemble.sifb", cfg.n_samples, len(corners))
    checks.check_zero_columns(samples, corners)
    checks.check_covariance(samples, corners, cfg.hurst.value)
    if (out / "ensemble.csv").exists():
        checks.check_csv_matches(out / "ensemble.csv", samples, corners)


def check_wide(wl: dict, seed: int, out: Path):
    raw = json.loads((ROOT / wl["config"]).read_text())
    for spec in raw["flows"]:
        if spec["kind"] != "simple":
            profile = checks.read_profile(out / f"profile_{spec['name']}.csv")
            checks.check_elementary_profile(profile, spec, raw["hurst"])
    cfg = program_config(wl, seed)
    checks.read_sifb(out / "ensemble.sifb", cfg.n_samples, len(cfg.ensemble_indices()))


def check_intrep(wl: dict, seed: int, out: Path):
    raw = json.loads((ROOT / wl["config"]).read_text())
    checks.check_intrep(json.loads((out / "intrep.json").read_text()), raw["integral_rep"])


CHECKS = {
    "demo-simulate": check_demo,
    "wide-project": check_wide,
    "intrep-coarse": check_intrep,
}


def merge_traces(traces: list) -> dict:
    """Sum the trace summaries of the processes of one repetition."""
    merged = {"self_s": {}, "command_s": {}, "covered_s": 0.0, "counts": {}, "absent": set()}
    for t in traces:
        for key in ("self_s", "command_s", "counts"):
            for name, value in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["covered_s"] += t["covered_s"]
        merged["absent"] |= set(t["absent"])
    merged["absent"] = sorted(merged["absent"])
    return merged


def layer_metrics(trace: dict) -> tuple[dict, set]:
    """Per-layer (value, unit) of one traced repetition, and the names whose
    wrapped function is absent."""
    values, absent = {}, set()
    for command in ALL_COMMANDS:
        values[f"cli.{command.replace('-', '_')}_s"] = (
            trace["command_s"].get(f"cli.{command}", 0.0), "s")
    for name in tracing.SPANNED:
        values[f"{name}_s"] = (trace["self_s"].get(name, 0.0), "s")
        if name in trace["absent"]:
            absent.add(f"{name}_s")
    counts = trace["counts"]
    for metric, (key, sources) in COUNT_METRICS.items():
        values[metric] = (counts.get(key, 0), "count")
        if any(src in trace["absent"] for src in sources):
            absent.add(metric)
    values["storage.bytes_written_mb"] = (counts.get("storage.bytes_written", 0) / 1e6, "MB")
    command_total = sum(trace["command_s"].values())
    values["trace.span_coverage"] = (
        trace["covered_s"] / command_total if command_total else 0.0, "ratio")
    return values, absent


def per_layer_metrics(reps: list, wl: dict, seed: int, base: Path) -> dict:
    """Median over traced repetitions of each layer metric, plus the config
    sizes and the tracing overhead against the untraced repetitions."""
    traced = [r for r in reps if r.ok and r.traced]
    timed = [r for r in reps if r.ok and not r.traced]
    per_rep, absent = [], set()
    for r in traced:
        values, gone = layer_metrics(merge_traces(r.traces))
        per_rep.append(values)
        absent |= gone
    metrics = {
        name: {"value": statistics.median(v[name][0] for v in per_rep) if per_rep else 0.0,
               "unit": unit}
        for name, (_, unit) in layer_metrics(merge_traces([]))[0].items()
    }
    cfg = program_config(wl, seed)
    metrics["config.ensemble_columns"] = {"value": len(cfg.ensemble_indices()), "unit": "count"}
    overhead = (statistics.median(r.wall_s for r in traced)
                - statistics.median(r.wall_s for r in timed)) if traced and timed else 0.0
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    if absent:
        print(f"bench: absent (reported as 0): {', '.join(sorted(absent))}", file=sys.stderr)
    (base / "trace.json").write_text(json.dumps(
        {"absent": sorted(absent), "repetitions": [merge_traces(r.traces) for r in traced]},
        indent=1))
    return metrics


def end_to_end_metrics(reps: list) -> dict:
    timed = [r for r in reps if r.ok]
    return {
        "wall_s": {"value": statistics.median(r.wall_s for r in timed) if timed else 0.0,
                   "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup_s for r in timed) if timed else 0.0,
                    "unit": "s"},
        "peak_rss_mb": {"value": max((r.peak_rss_mb for r in timed), default=0.0),
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "sifbm" / "__init__.py").is_file():
        print(f"bench: no sifbm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if not (ROOT / wl["config"]).is_file():
        print(f"bench: missing config {wl['config']}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    out = base / "rep"
    out.mkdir(parents=True)

    t_run = time.monotonic()
    errors: list[str] = []
    ops: list = []  # exit codes of the commands run outside the repetitions
    # Set-up that writes the workload's input runs once per run; its whole
    # process time is added to every repetition's setup_s.
    setup_once, setup_traces = 0.0, []
    if wl["setup"]:
        got = spawn(wl["setup"], wl["config"], args.seed, out, trace=trace)
        ops += got["codes"] if got else [None] * len(wl["setup"])
        if got is None:
            errors.append("set-up did not complete")
        else:
            setup_once = got["process_s"]
            setup_traces = [got["trace"]] if trace else []
    keep = {p.name for p in out.iterdir()}
    # The --jobs 2 run also warms the file cache and bytecode before timing.
    jobs2_digests = None
    if wl.get("jobs2_check"):
        jobs_out = base / "jobs2"
        jobs_out.mkdir(parents=True)
        got = spawn(wl["commands"], wl["config"], args.seed, jobs_out, jobs=2)
        ops += got["codes"] if got else [None] * len(wl["commands"])
        jobs2_digests = data_digests(jobs_out)

    reps: list[Rep] = []
    digests = None
    t0 = time.monotonic()
    n_reps = max(MIN_REPS, round(args.seconds / wl["rep_s"]))
    while not errors and len(reps) < n_reps:
        if len(reps) >= MIN_REPS and time.monotonic() - t0 > LAST_START_S:
            print(f"bench: stopped after {len(reps)} of {n_reps} repetitions: "
                  f"{LAST_START_S} s passed", file=sys.stderr)
            break
        for stale in out.iterdir():
            if stale.name not in keep:
                stale.unlink()
        rep = run_rep(wl, args.seed, out, trace=trace and len(reps) % 2 == 1)
        rep.setup_s += setup_once
        if rep.traced:
            rep.traces = setup_traces + rep.traces
        reps.append(rep)
        print(f"bench: repetition {len(reps)}{' traced' if rep.traced else ''}: "
              f"wall {rep.wall_s:.3f} s {[round(t, 3) for t in rep.times]}, "
              f"setup {rep.setup_s:.3f} s, codes {rep.codes}", file=sys.stderr)
        if not rep.ok:
            errors.append(f"repetition {len(reps)} did not complete")
            break
        got = data_digests(out)
        if digests is None:
            digests = got
        elif got != digests:
            errors.append(f"repetition {len(reps)} wrote different data artifacts")
    if jobs2_digests is not None and digests is not None and jobs2_digests != digests:
        errors.append("the --jobs 2 run wrote different data artifacts than --jobs 1")
    if not errors:
        try:
            CHECKS[args.workload](wl, args.seed, out)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    for message in errors:
        print(f"bench: check failed: {message}", file=sys.stderr)

    codes = ops + [c for r in reps for c in r.codes]
    if trace:
        metrics = per_layer_metrics(reps, wl, args.seed, base)
    else:
        metrics = end_to_end_metrics(reps)
    print(f"bench: {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{time.monotonic() - t_run:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(codes),
                      "failed": sum(1 for c in codes if c != 0), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
