"""Config parsing, artifact formats, manifest hashing, and CLI exit codes."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sifbm.cli import main
from sifbm.config import ConfigError, canonical_hash, load_config
from sifbm.gaussian import HurstParam, build_cov_matrix, cholesky, sample_ensemble
from sifbm.rects import EMPTY, rect
from sifbm.storage import (
    ArtifactError,
    flow_from_json,
    flow_to_json,
    read_ensemble_csv,
    read_matrix_binary,
    write_ensemble_binary,
    write_ensemble_csv,
    write_matrix_binary,
)
from sifbm.flows import flows_through, SimpleFlow, make_elementary_flow

BASE_CONFIG = {
    "dimension": 2,
    "hurst": 0.3,
    "seed": 7,
    "n_samples": 400,
    "indices": {"lattice": {"shape": [2, 2], "spacing": [1.0, 1.0]}},
    "flows": [
        {"name": "diag", "kind": "linear", "to": [2.0, 2.0], "points": 8},
        {
            "name": "branch",
            "kind": "simple",
            "segments": [
                {"span": [0.0, 0.5], "kind": "linear", "to": [2.0, 1.0], "points": 4},
                {"span": [0.5, 1.0], "kind": "linear", "to": [1.0, 2.0], "points": 4},
            ],
        },
    ],
    "covers": {"tiling": {"corner": [2.0, 2.0], "divisions": [2, 2]}},
    "integral_rep": {
        "masses": [0.8, 1.0],
        "variance_masses": [1.0],
        "hursts": [0.3],
        "n_samples": 4000,
        "grid": {"cells_per_mass": 256, "refine_factor": 4},
        "variance_rel_tol": 0.08,
        "covariance_se_mult": 4.0,
    },
}


def make_config(tmp_path, **overrides):
    raw = copy.deepcopy(BASE_CONFIG)
    raw["output_dir"] = str(tmp_path / "out")
    for k, v in overrides.items():
        raw[k] = v
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, raw


class TestStorage:
    def _ensemble(self, n=20):
        idx = [EMPTY, rect(1, 1), rect(2, 1)]
        f = cholesky(build_cov_matrix(idx, HurstParam(0.3)))
        return sample_ensemble(f, n, seed=3)

    def test_csv_round_trip(self, tmp_path):
        e = self._ensemble()
        p = tmp_path / "e.csv"
        write_ensemble_csv(e, p)
        idx, samples = read_ensemble_csv(p)
        assert idx == e.indices
        assert np.array_equal(samples, e.samples)

    def test_binary_round_trip(self, tmp_path):
        e = self._ensemble()
        p = tmp_path / "e.sifb"
        write_ensemble_binary(e, p)
        got = read_matrix_binary(p)
        assert np.array_equal(got, e.samples)

    def test_binary_header(self, tmp_path):
        p = tmp_path / "m.sifb"
        write_matrix_binary(np.arange(6.0).reshape(2, 3), p)
        raw = p.read_bytes()
        assert raw[:4] == b"SIFB"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:13], "little") == 2
        assert int.from_bytes(raw[13:21], "little") == 3

    def test_binary_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.sifb"
        p.write_bytes(b"nope" + bytes(20))
        with pytest.raises(ValueError, match="not a SIFB"):
            read_matrix_binary(p)

    @pytest.mark.parametrize("size", [4, 12, 21, 30])
    def test_binary_truncated_named(self, tmp_path, size):
        p = tmp_path / "m.sifb"
        write_matrix_binary(np.arange(6.0).reshape(2, 3), p)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(ArtifactError, match="truncated") as ei:
            read_matrix_binary(p)
        assert str(p) in str(ei.value)

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.one_of(
            st.binary(max_size=64),
            # a valid magic, so the fuzz reaches the header and payload checks
            st.builds(
                lambda version, rows, cols, payload: b"SIFB"
                + bytes([version])
                + rows.to_bytes(8, "little")
                + cols.to_bytes(8, "little")
                + payload,
                st.sampled_from([0, 1, 2]),
                st.integers(0, 2**64 - 1) | st.integers(0, 4),
                st.integers(0, 2**64 - 1) | st.integers(0, 4),
                st.binary(max_size=160),
            ),
        )
    )
    def test_binary_any_bytes_parse_or_artifact_error(self, tmp_path_factory, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz.sifb"
        p.write_bytes(raw)
        try:
            mat = read_matrix_binary(p)
        except ArtifactError as exc:
            assert str(p) in str(exc)
        else:
            assert raw[:5] == b"SIFB\x01"
            assert mat.dtype == np.float64 and mat.ndim == 2
            assert 21 + 8 * mat.size == len(raw)

    def test_flow_json_round_trip(self):
        f = flows_through(rect(2, 1), points=5)
        back = flow_from_json(flow_to_json(f))
        assert np.array_equal(back.grid, f.grid)
        assert back.values == f.values

    def test_simple_flow_json_round_trip(self):
        g1 = np.linspace(0, 0.5, 3)
        g2 = np.linspace(0.5, 1, 3)
        sf = SimpleFlow(
            (
                make_elementary_flow(g1, [(2 * t, t) for t in g1]),
                make_elementary_flow(g2, [(t - 0.5, 2 * (t - 0.5)) for t in g2]),
            )
        )
        back = flow_from_json(flow_to_json(sf))
        assert isinstance(back, SimpleFlow)
        assert back.breakpoints == sf.breakpoints


class TestConfig:
    def test_parses(self, tmp_path):
        path, _ = make_config(tmp_path)
        cfg = load_config(path)
        assert cfg.dimension == 2
        assert cfg.hurst.value == 0.3
        assert len(cfg.lattice_indices) == 4
        assert len(cfg.flows) == 2
        assert len(cfg.covers.elements) == 4

    def test_ensemble_indices_cover_flows_and_tiles(self, tmp_path):
        path, _ = make_config(tmp_path)
        cfg = load_config(path)
        idx = set(cfg.ensemble_indices())
        assert set(cfg.lattice_indices) <= idx
        assert rect(1, 1) in idx

    def test_missing_field_named(self, tmp_path):
        path, raw = make_config(tmp_path)
        del raw["hurst"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="hurst"):
            load_config(path)

    def test_bad_hurst_named(self, tmp_path):
        path, _ = make_config(tmp_path, hurst=0.9)
        with pytest.raises(ConfigError, match="hurst"):
            load_config(path)

    def test_bad_flow_named(self, tmp_path):
        flows = [{"name": "bad", "kind": "linear", "to": [1.0], "points": 4}]
        path, _ = make_config(tmp_path, flows=flows)
        with pytest.raises(ConfigError, match="flows\\[0\\]"):
            load_config(path)

    def test_seed_override_changes_hash(self, tmp_path):
        path, _ = make_config(tmp_path)
        a = load_config(path)
        b = load_config(path, seed_override=99)
        assert a.config_hash() != b.config_hash()
        assert b.seed == 99

    def test_hash_changes_iff_field_changes(self, tmp_path):
        path, raw = make_config(tmp_path)
        base = load_config(path).config_hash()
        # permuting key order leaves the canonical hash alone
        shuffled = dict(reversed(list(raw.items())))
        assert canonical_hash(shuffled) == canonical_hash(raw)
        changed = copy.deepcopy(raw)
        changed["n_samples"] += 1
        assert canonical_hash(changed) != base


class TestCli:
    def test_unknown_command_exits_1(self, tmp_path, capsys):
        path, _ = make_config(tmp_path)
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate", "--config", str(path)])
        assert ei.value.code == 1

    def test_config_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 1

    def test_missing_artifact_exits_1(self, tmp_path):
        path, _ = make_config(tmp_path)
        assert main(["characterize", "--config", str(path)]) == 1

    def test_truncated_ensemble_exits_1(self, tmp_path, capsys):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        ens = out / "ensemble.sifb"
        ens.write_bytes(ens.read_bytes()[:12])
        capsys.readouterr()
        assert main(["project", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ensemble.sifb" in err and "truncated header" in err

    def test_simulate_deterministic(self, tmp_path):
        path, raw = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        first = (out / "ensemble.sifb").read_bytes()
        first_csv = (out / "ensemble.csv").read_bytes()
        assert main(["simulate", "--config", str(path)]) == 0
        assert (out / "ensemble.sifb").read_bytes() == first
        assert (out / "ensemble.csv").read_bytes() == first_csv

    def test_simulate_jobs_invariant(self, tmp_path):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--jobs", "1"]) == 0
        one = (out / "ensemble.sifb").read_bytes()
        assert main(["simulate", "--config", str(path), "--jobs", "8"]) == 0
        assert (out / "ensemble.sifb").read_bytes() == one

    def test_verify_intrep_jobs_invariant(self, tmp_path):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify-intrep", "--config", str(path), "--jobs", "1"]) == 0
        one = (out / "intrep.json").read_bytes()
        assert main(["verify-intrep", "--config", str(path), "--jobs", "8"]) == 0
        assert (out / "intrep.json").read_bytes() == one

    def test_seed_changes_artifacts(self, tmp_path):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path)])
        a = (out / "ensemble.sifb").read_bytes()
        main(["simulate", "--config", str(path), "--seed", "8"])
        assert (out / "ensemble.sifb").read_bytes() != a

    def test_env_output_override(self, tmp_path, monkeypatch):
        path, _ = make_config(tmp_path)
        alt = tmp_path / "alt"
        monkeypatch.setenv("SIFBM_OUT", str(alt))
        assert main(["simulate", "--config", str(path)]) == 0
        assert (alt / "ensemble.sifb").exists()

    def test_project_writes_profiles(self, tmp_path):
        path, _ = make_config(tmp_path, n_samples=2000)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path)])
        assert main(["project", "--config", str(path)]) == 0
        assert (out / "profile_diag.csv").exists()
        assert (out / "profile_branch.csv").exists()
        assert (out / "projections.json").exists()

    def test_manifest_contents(self, tmp_path):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path)])
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert set(manifest["artifacts"]) == {"ensemble.csv", "ensemble.sifb"}
        assert manifest["config_hash"] == load_config(path).config_hash()

    def test_characterize_pipeline_and_discrimination(self, tmp_path):
        # small but statistically meaningful end-to-end run
        path, raw = make_config(tmp_path, n_samples=4000)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        assert main(["characterize", "--config", str(path)]) == 0
        rep = json.loads((out / "characterization.json").read_text())
        assert rep["verdict"] == "pass"
        # same artifacts, mismatched hypothesis H: variance profile must fail
        raw2 = copy.deepcopy(raw)
        raw2["hurst"] = 0.45
        path2 = tmp_path / "config2.json"
        path2.write_text(json.dumps(raw2))
        assert main(["characterize", "--config", str(path2)]) == 2
        rep2 = json.loads((out / "characterization.json").read_text())
        failed = {c["name"] for c in rep2["criteria"] if not c["passed"]}
        assert "variance_profile" in failed

    def test_recover_measure(self, tmp_path):
        path, _ = make_config(tmp_path, n_samples=4000)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path)])
        assert main(["recover-measure", "--config", str(path)]) == 0
        rep = json.loads((out / "recovery.json").read_text())
        assert rep["verdict"] == "pass"
        assert rep["psi"]

    def test_verify_intrep_small_grid(self, tmp_path):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify-intrep", "--config", str(path)]) == 0
        rep = json.loads((out / "intrep.json").read_text())
        assert rep["verdict"] == "pass"

    def test_report_aggregates(self, tmp_path):
        path, _ = make_config(tmp_path, n_samples=4000)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path)])
        main(["characterize", "--config", str(path)])
        assert main(["report", "--config", str(path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overall"] == "pass"
        assert summary["commands"]["characterize"]["status"] == "pass"

    def test_report_without_artifacts_exits_1(self, tmp_path):
        path, _ = make_config(tmp_path)
        assert main(["report", "--config", str(path)]) == 1
