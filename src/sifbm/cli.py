"""Batch front-end: simulate / project / recover-measure / verify-intrep /
characterize / report, driven by one JSON config.

Exit codes: 0 success, 1 usage or configuration error, 2 a verification
criterion failed.  Artifacts land in the config's output directory (or
$SIFBM_OUT when set) with a per-command manifest: config hash, seed,
versions, wall time, and for simulate the fields its ensemble is drawn from.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, canonical_hash, load_config
from .gaussian import ResolutionError, build_cov_matrix, cholesky, ensemble_blocks
from .intrep import verify_intrep
from .recovery import CharacterizationReport, characterize, recover_measure
from .stats import DegenerateDataError, flow_statistics, gaussianity_check, hurst_estimate
from .storage import (
    ArtifactError,
    StoredEnsemble,
    read_json,
    rect_to_json,
    write_ensemble_binary,
    write_json,
    write_profile_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CRITERION = 2

ENSEMBLE_BIN = "ensemble.sifb"

REPORT_FILES = {
    "project": "projections.json",
    "recover-measure": "recovery.json",
    "verify-intrep": "intrep.json",
    "characterize": "characterization.json",
    "report": "summary.json",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class Outcome:
    """What a command produced: ``note`` is its status line unless
    ``failed`` names failed criteria of its verdict."""

    note: str = "pass"
    files: tuple[str, ...] = ()
    report: dict | None = None
    failed: tuple[str, ...] = ()
    manifest: dict = field(default_factory=dict)


def _verdict(report: CharacterizationReport, **extra) -> Outcome:
    return Outcome(report={**report.to_dict(), **extra}, failed=tuple(report.failed))


def _manifest(out: Path, command: str) -> Path:
    return out / f"manifest_{command.replace('-', '_')}.json"


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(os.environ.get("SIFBM_OUT", cfg.output_dir))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _simulation_record(cfg: ExperimentConfig, idx) -> dict:
    """The config fields an ensemble is drawn from: ``simulate`` records them
    in its manifest, and every command that reads the ensemble checks them."""
    return {
        "hurst": cfg.hurst.value,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "indices_sha256": canonical_hash([rect_to_json(u) for u in idx]),
    }


def _checked_ensemble(cfg: ExperimentConfig, out: Path) -> StoredEnsemble:
    """The stored ensemble, once the simulate manifest shows it was drawn
    from this config."""
    path, manifest = out / ENSEMBLE_BIN, _manifest(out, "simulate")
    if not path.exists():
        raise FileNotFoundError(
            f"missing input artifact {path}; run 'sifbm simulate' with this config first"
        )
    idx = cfg.ensemble_indices()
    want = _simulation_record(cfg, idx)
    try:
        got = read_json(manifest)["simulation"]
        stale = next((k for k in want if got[k] != want[k]), None)
    except (OSError, ValueError, LookupError, TypeError):
        raise ArtifactError(
            f"{manifest}: no simulation record; rerun 'sifbm simulate' with this config"
        ) from None
    if stale:
        raise ArtifactError(
            f"{path}: simulated with {stale} {got[stale]!r}, but the config gives "
            f"{want[stale]!r}; rerun 'sifbm simulate' with this config"
        )
    return StoredEnsemble(path, tuple(idx), cfg.hurst, cfg.n_samples)


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> Outcome:
    idx = cfg.ensemble_indices()
    factor = cholesky(build_cov_matrix(idx, cfg.hurst))
    blocks = ensemble_blocks(factor, cfg.n_samples, seed=cfg.seed, jobs=cfg.jobs)
    write_ensemble_binary(blocks, out / ENSEMBLE_BIN, (cfg.n_samples, len(idx)))
    return Outcome(
        note=f"{cfg.n_samples} samples over {len(idx)} indices (jitter {factor.jitter:g})",
        files=(ENSEMBLE_BIN,),
        manifest={"simulation": _simulation_record(cfg, idx)},
    )


def cmd_project(cfg: ExperimentConfig, out: Path) -> Outcome:
    e = _checked_ensemble(cfg, out)
    n = e.n_samples
    stats = flow_statistics(e.row_blocks(), e.indices, cfg.flows, cfg.hurst)
    files, report = [], {}
    for name, fs in zip(cfg.flow_names, stats):
        vp = fs.profile
        fname = f"profile_{name}.csv"
        write_profile_csv(vp, out / fname)
        files.append(fname)
        entry = {
            "fraction_within_band": vp.fraction_within(cfg.thresholds.profile_se_mult),
            "n_pairs": vp.observed.size,
        }
        try:
            entry["hurst_estimate"] = hurst_estimate(fs.moments, n, fs.time_change)
        except (DegenerateDataError, ValueError) as exc:
            entry["hurst_estimate_error"] = str(exc)
        if np.std(fs.end) > 0 and n >= 1000:
            g = gaussianity_check(fs.end, z_limit=cfg.thresholds.gaussianity_z)
            entry["gaussianity"] = {
                "skewness_z": g.skewness_z,
                "excess_kurtosis_z": g.excess_kurtosis_z,
                "passed": g.passed,
            }
        report[name] = entry
    return Outcome(note=f"{len(cfg.flows)} flows", files=tuple(files), report=report)


def cmd_recover_measure(cfg: ExperimentConfig, out: Path) -> Outcome:
    e = _checked_ensemble(cfg, out)
    report, table = recover_measure(e, cfg.thresholds, cfg.table_indices)
    psi = {
        repr(list(u.corner)): {"value": v, "stderr": se}
        for u, v, se in zip(table.boxes, table.value.tolist(), table.stderr.tolist())
    }
    return _verdict(report, psi=psi)


def cmd_verify_intrep(cfg: ExperimentConfig, out: Path) -> Outcome:
    return _verdict(verify_intrep(cfg.intrep, cfg.seed))


def cmd_characterize(cfg: ExperimentConfig, out: Path) -> Outcome:
    e = _checked_ensemble(cfg, out)
    return _verdict(characterize(e, list(cfg.flows), cfg.hurst, cfg.thresholds, cfg.table_indices))


def cmd_report(cfg: ExperimentConfig, out: Path) -> Outcome:
    summary, failed = {}, []
    for command, fname in REPORT_FILES.items():
        path = out / fname
        if command == "report":
            continue
        if not path.exists():
            summary[command] = {"status": "missing"}
            continue
        try:
            payload = read_json(path)
            if not isinstance(payload, dict):
                raise TypeError
            entry = {"status": "informational"} if command == "project" else {  # no verdict
                "status": payload["verdict"],
                "failed": [c["name"] for c in payload["criteria"] if not c["passed"]],
            }
        except (ValueError, LookupError, TypeError):
            raise ArtifactError(f"{path}: malformed report; rerun 'sifbm {command}'") from None
        # the hash covers the resolved seed, so a report under another seed fails here too
        try:
            same = read_json(_manifest(out, command))["config_hash"] == cfg.config_hash()
        except (OSError, ValueError, LookupError, TypeError):
            same = False
        if not same:
            raise ArtifactError(
                f"{path}: its manifest does not show this config made it; "
                f"rerun 'sifbm {command}' with this config and seed"
            )
        summary[command] = entry
        if entry["status"] not in ("pass", "informational"):
            failed.append(command)
    if all(s["status"] == "missing" for s in summary.values()):
        raise FileNotFoundError(f"no verification artifacts in {out}")
    return Outcome(
        report={"overall": "fail" if failed else "pass", "commands": summary},
        failed=tuple(failed),
    )


COMMANDS = {
    "simulate": cmd_simulate,
    "project": cmd_project,
    "recover-measure": cmd_recover_measure,
    "verify-intrep": cmd_verify_intrep,
    "characterize": cmd_characterize,
    "report": cmd_report,
}


def run(command: str, cfg: ExperimentConfig, out: Path) -> int:
    """Run one command and write what every command leaves: its report
    file, its manifest and a status line.  Returns the exit code."""
    t0 = time.time()
    res = COMMANDS[command](cfg, out)
    files = list(res.files)
    if res.report is not None:
        write_json(res.report, out / REPORT_FILES[command])
        files.append(REPORT_FILES[command])
    write_json(
        {
            "command": command,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "versions": {
                "sifbm": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "wall_time_s": round(time.time() - t0, 3),
            "artifacts": sorted(files),
            **res.manifest,
        },
        _manifest(out, command),
    )
    status = f"FAIL ({', '.join(res.failed)})" if res.failed else res.note
    print(f"{command}: {status} -> {out}")
    return EXIT_CRITERION if res.failed else EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(
        prog="sifbm",
        description="Simulation and verification lab for set-indexed fractional "
        "Brownian motion on rectangle index families.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--jobs", type=int, default=1, help="worker threads for sampling")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        cfg = load_config(args.config, seed_override=args.seed, jobs=args.jobs)
        return run(args.command, cfg, _outdir(cfg))
    except ConfigError as exc:
        print(f"sifbm: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArtifactError, FileNotFoundError, ResolutionError) as exc:
        print(f"sifbm: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
