"""Batch front-end: simulate / project / recover-measure / verify-intrep /
characterize / report, driven by one JSON config.

Exit codes: 0 success, 1 usage or configuration error, 2 a verification
criterion failed.  Artifacts land in the config's output directory (or
$SIFBM_OUT when set) together with a per-command manifest carrying the
canonical config hash, seed, library versions, and wall time.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .flows import time_change
from .gaussian import build_cov_matrix, cholesky, sample_ensemble, HurstParam
from .intrep import (
    RepConfig,
    discretized_covariance,
    fbm_covariance,
    half_case_simulate,
    simulate_via_integral,
)
from .recovery import (
    CharacterizationReport,
    PreMeasureTable,
    _additivity_criterion,
    _extension_criterion,
    _psi_criteria,
    characterize,
)
from .stats import DegenerateDataError, gaussianity_check, hurst_estimate, variance_profile
from .storage import (
    ArtifactError,
    load_ensemble,
    read_json,
    write_ensemble_binary,
    write_ensemble_csv,
    write_json,
    write_profile_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CRITERION = 2

ENSEMBLE_BIN = "ensemble.sifb"
ENSEMBLE_CSV = "ensemble.csv"

REPORT_FILES = {
    "project": "projections.json",
    "recover-measure": "recovery.json",
    "verify-intrep": "intrep.json",
    "characterize": "characterization.json",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(os.environ.get("SIFBM_OUT", cfg.output_dir))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(cfg: ExperimentConfig, out: Path, command: str, artifacts, t0: float):
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
            "artifacts": sorted(artifacts),
        },
        out / f"manifest_{command.replace('-', '_')}.json",
    )


def _load_ensemble(cfg: ExperimentConfig, out: Path):
    path = out / ENSEMBLE_BIN
    if not path.exists():
        raise FileNotFoundError(
            f"missing input artifact {path}; run 'sifbm simulate' with this "
            f"config first"
        )
    return load_ensemble(path, cfg.ensemble_indices(), cfg.seed, cfg.hurst)


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.time()
    idx = cfg.ensemble_indices()
    factor = cholesky(build_cov_matrix(idx, cfg.hurst))
    e = sample_ensemble(factor, cfg.n_samples, seed=cfg.seed, jobs=cfg.jobs)
    write_ensemble_csv(e, out / ENSEMBLE_CSV)
    write_ensemble_binary(e, out / ENSEMBLE_BIN)
    _write_manifest(cfg, out, "simulate", [ENSEMBLE_CSV, ENSEMBLE_BIN], t0)
    print(f"simulate: {e.n_samples} samples over {len(idx)} indices "
          f"(jitter {factor.jitter:g}) -> {out}")
    return EXIT_OK


def cmd_project(cfg: ExperimentConfig, out: Path) -> int:
    from .flows import predicted_increment_moment, project

    t0 = time.time()
    e = _load_ensemble(cfg, out)
    artifacts = []
    report = {}
    for name, f in zip(cfg.flow_names, cfg.flows):
        pe = project(e, f)
        tc = time_change(f)
        vp = variance_profile(
            pe.paths, tc, cfg.hurst, predicted=predicted_increment_moment(f, cfg.hurst)
        )
        fname = f"profile_{name}.csv"
        write_profile_csv(vp, out / fname)
        artifacts.append(fname)
        entry = {
            "fraction_within_band": vp.fraction_within(cfg.thresholds.profile_se_mult),
            "n_pairs": len(vp.rows),
        }
        try:
            entry["hurst_estimate"] = hurst_estimate(pe.paths, tc)
        except (DegenerateDataError, ValueError) as exc:
            entry["hurst_estimate_error"] = str(exc)
        end = pe.paths[:, -1]
        if np.std(end) > 0 and e.n_samples >= 1000:
            g = gaussianity_check(end, z_limit=cfg.thresholds.gaussianity_z)
            entry["gaussianity"] = {
                "skewness_z": g.skewness_z,
                "excess_kurtosis_z": g.excess_kurtosis_z,
                "passed": g.passed,
            }
        report[name] = entry
    write_json(report, out / REPORT_FILES["project"])
    artifacts.append(REPORT_FILES["project"])
    _write_manifest(cfg, out, "project", artifacts, t0)
    print(f"project: {len(cfg.flows)} flows -> {out}")
    return EXIT_OK


def cmd_recover_measure(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.time()
    e = _load_ensemble(cfg, out)
    table = PreMeasureTable.from_ensemble(e, indices=cfg.table_indices)
    thr = cfg.thresholds
    criteria = list(_psi_criteria(table, thr))
    criteria.append(_additivity_criterion(table, thr))
    criteria.append(_extension_criterion(table, cfg.covers, thr))
    report = CharacterizationReport(tuple(criteria))
    payload = report.to_dict()
    payload["psi"] = {
        repr(list(u.corner)): {
            "value": table.entry(u).value,
            "stderr": table.entry(u).stderr,
        }
        for u in table.indices()
    }
    write_json(payload, out / REPORT_FILES["recover-measure"])
    _write_manifest(cfg, out, "recover-measure", [REPORT_FILES["recover-measure"]], t0)
    print(f"recover-measure: {'pass' if report.verdict else 'FAIL'} -> {out}")
    return EXIT_OK if report.verdict else EXIT_CRITERION


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _criterion(name: str, statistic: float, threshold: float, passed) -> dict:
    return {"name": name, "passed": bool(passed), "statistic": statistic, "threshold": threshold}


def cmd_verify_intrep(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.time()
    ir = cfg.intrep
    tol, se_mult = ir.variance_rel_tol, ir.covariance_se_mult
    checks = []
    for hi, hv in enumerate(ir.hursts):
        h = HurstParam(hv)
        for ti, theta in enumerate(ir.variance_masses):
            rc = RepConfig(h, seed=_derived_seed(cfg.seed, 1, hi, ti), grid=ir.grid)
            pe = simulate_via_integral([theta], rc, ir.n_samples)
            var = float(np.mean(pe.paths[:, 0] ** 2))
            want = theta ** (2 * hv)
            rel = abs(var - want) / want
            checks.append(_criterion(f"variance_H{hv}_theta{theta}", rel, tol, rel <= tol))
        rc = RepConfig(h, seed=_derived_seed(cfg.seed, 2, hi), grid=ir.grid)
        pe = simulate_via_integral(ir.masses, rc, ir.n_samples)
        emp = (pe.paths.T @ pe.paths) / pe.n_samples
        want = fbm_covariance(ir.masses, h)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / pe.n_samples)
        worst = float(np.max(np.abs(emp - want) / se))
        checks.append(_criterion(f"covariance_H{hv}", worst, se_mult, worst <= se_mult))
        base_err, fine_err = (
            float(np.max(np.abs(discretized_covariance(ir.masses, h, spec) - want)))
            for spec in (ir.grid, ir.grid.refine_overall(2))
        )
        checks.append(_criterion(f"refinement_H{hv}", fine_err, base_err, fine_err < base_err))
    pe = half_case_simulate(ir.masses, seed=_derived_seed(cfg.seed, 3), n_samples=ir.n_samples)
    emp = (pe.paths.T @ pe.paths) / pe.n_samples
    m = np.asarray(ir.masses)
    want = np.minimum(m[:, None], m[None, :])
    se = np.sqrt((np.outer(m, m) + want**2) / pe.n_samples)
    worst = float(np.max(np.abs(emp - want) / np.where(se > 0, se, 1.0)))
    checks.append(_criterion("half_case_covariance", worst, se_mult, worst <= se_mult))
    verdict = all(c["passed"] for c in checks)
    write_json(
        {"verdict": "pass" if verdict else "fail", "criteria": checks},
        out / REPORT_FILES["verify-intrep"],
    )
    _write_manifest(cfg, out, "verify-intrep", [REPORT_FILES["verify-intrep"]], t0)
    print(f"verify-intrep: {'pass' if verdict else 'FAIL'} -> {out}")
    return EXIT_OK if verdict else EXIT_CRITERION


def cmd_characterize(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.time()
    e = _load_ensemble(cfg, out)
    report = characterize(
        e,
        list(cfg.flows),
        cfg.hurst,
        cfg.covers,
        thresholds=cfg.thresholds,
        table_indices=cfg.table_indices,
    )
    write_json(report.to_dict(), out / REPORT_FILES["characterize"])
    _write_manifest(cfg, out, "characterize", [REPORT_FILES["characterize"]], t0)
    status = "pass" if report.verdict else f"FAIL ({', '.join(report.failed)})"
    print(f"characterize: {status} -> {out}")
    return EXIT_OK if report.verdict else EXIT_CRITERION


def cmd_report(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.time()
    summary, all_pass, found = {}, True, False
    for command, fname in REPORT_FILES.items():
        path = out / fname
        if not path.exists():
            summary[command] = {"status": "missing"}
            continue
        found = True
        payload = read_json(path)
        verdict = payload.get("verdict")
        if verdict is None:
            summary[command] = {"status": "informational"}
            continue
        summary[command] = {"status": verdict}
        if verdict != "pass":
            all_pass = False
    if not found:
        print(f"report: no verification artifacts in {out}", file=sys.stderr)
        return EXIT_USAGE
    write_json(
        {"overall": "pass" if all_pass else "fail", "commands": summary},
        out / "summary.json",
    )
    _write_manifest(cfg, out, "report", ["summary.json"], t0)
    print(f"report: {'pass' if all_pass else 'FAIL'} -> {out / 'summary.json'}")
    return EXIT_OK if all_pass else EXIT_CRITERION


COMMANDS = {
    "simulate": cmd_simulate,
    "project": cmd_project,
    "recover-measure": cmd_recover_measure,
    "verify-intrep": cmd_verify_intrep,
    "characterize": cmd_characterize,
    "report": cmd_report,
}


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
        out = _outdir(cfg)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"sifbm: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArtifactError, FileNotFoundError) as exc:
        print(f"sifbm: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
