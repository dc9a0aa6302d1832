"""Config parsing, artifact formats, manifest hashing, and CLI exit codes."""

import ast
import copy
import importlib.util
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import sifbm.cli
from sifbm.cli import main
from sifbm.config import ConfigError, canonical_hash, load_config
from sifbm.gaussian import (
    STREAM_BLOCK,
    HurstParam,
    build_cov_matrix,
    cholesky,
    ensemble_blocks,
    sample_ensemble,
)
from sifbm.intrep import KERNEL_H_MAX
from sifbm.rects import EMPTY, MAX_UNION_PARTS, rect
from sifbm.storage import (
    _HEADER,
    MAGIC,
    VERSION,
    ArtifactError,
    read_ensemble_blocks,
    write_ensemble_binary,
)

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


def frombuffer_reference(path) -> np.ndarray:
    """The parse the SIFB reader replaced: a view of the file's bytes at the
    21-byte header offset, so its data is not 8-byte aligned."""
    raw = Path(path).read_bytes()
    _, _, rows, cols = _HEADER.unpack_from(raw)
    return np.frombuffer(raw, "<f8", offset=_HEADER.size).reshape(rows, cols)


def read_all(path, shape=(None, None)) -> np.ndarray:
    """Every row of a SIFB file: the blocks ``read_ensemble_blocks`` yields,
    each checked read-only and aligned, joined."""
    blocks = list(read_ensemble_blocks(path, shape))
    assert all(not b.flags.writeable and b.flags.aligned for b in blocks)
    with open(path, "rb") as fh:
        cols = _HEADER.unpack(fh.read(_HEADER.size))[3]
    return np.concatenate(blocks) if blocks else np.empty((0, cols))


class TestStorage:
    def _factor(self):
        return cholesky(build_cov_matrix([EMPTY, rect(1, 1), rect(2, 1)], HurstParam(0.3)))

    def _ensemble(self, n=20):
        return sample_ensemble(self._factor(), n, seed=3)

    def test_binary_round_trip(self, tmp_path):
        e = self._ensemble()
        p = tmp_path / "e.sifb"
        write_ensemble_binary(ensemble_blocks(self._factor(), 20, seed=3), p, e.samples.shape)
        assert np.array_equal(read_all(p), e.samples)

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (257, 5)])
    def test_loaded_samples_aligned_and_bit_equal_to_frombuffer(self, tmp_path, shape):
        # arbitrary bit patterns, NaNs and infinities included
        bits = np.random.default_rng(11).integers(0, 2**64, shape, dtype=np.uint64)
        p = tmp_path / "e.sifb"
        write_ensemble_binary((bits.view(np.float64),), p, shape)
        assert read_all(p, shape).tobytes() == frombuffer_reference(p).tobytes()

    def test_failed_stream_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        p = tmp_path / "ensemble.sifb"
        write_ensemble_binary((np.arange(6.0).reshape(2, 3),), p, (2, 3))
        before = p.read_bytes()

        def failing():
            yield from [np.zeros((4, 3)), np.ones((4, 3))]
            raise RuntimeError("draw failed")

        with pytest.raises(RuntimeError, match="draw failed"):
            write_ensemble_binary(failing(), p, (12, 3))
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["ensemble.sifb"]

    @pytest.mark.parametrize(
        "shapes, match",
        [([(2, 3), (1, 3)], "3 rows, header has 4"),
         ([(2, 3), (2, 3), (1, 3)], "5 rows, header has 4"),
         ([(2, 3), (2, 2)], "header has 3 columns"),
         ([(4,)], "header has 3 columns")],
    )
    def test_blocks_must_fill_the_header(self, tmp_path, shapes, match):
        p = tmp_path / "ensemble.sifb"
        write_ensemble_binary((np.arange(6.0).reshape(2, 3),), p, (2, 3))
        before = p.read_bytes()
        with pytest.raises(ValueError, match=match):
            write_ensemble_binary((np.zeros(s) for s in shapes), p, (4, 3))
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["ensemble.sifb"]

    @settings(max_examples=60, deadline=None)
    @given(
        corners=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=5),
        with_empty=st.booleans(),
        duplicate=st.booleans(),
        n=st.sampled_from([1, 255, 256, 257, 3 * STREAM_BLOCK + 5]),
        jobs=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
        h=st.sampled_from([0.2, 0.5]),
    )
    def test_streamed_bytes_match_in_memory_ensemble(
        self, tmp_path_factory, corners, with_empty, duplicate, n, jobs, seed, h
    ):
        # the empty box gives a zero-variance column; a duplicated index
        # makes the covariance singular, so the factor needs jitter
        idx = [rect(*c) for c in corners]
        idx += [EMPTY] * with_empty + idx[:1] * duplicate
        factor = cholesky(build_cov_matrix(idx, HurstParam(h)))
        p = tmp_path_factory.getbasetemp() / "stream.sifb"
        write_ensemble_binary(ensemble_blocks(factor, n, seed, jobs), p, (n, len(idx)))
        ref = sample_ensemble(factor, n, seed).samples.astype("<f8").tobytes()
        assert p.read_bytes() == _HEADER.pack(MAGIC, VERSION, n, len(idx)) + ref

    @settings(max_examples=200, deadline=None)
    @given(
        base=hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
            elements=st.floats(width=32),
        ),
        layout=st.sampled_from(["C", "F", "sliced", "float32", ">f8"]),
    )
    def test_binary_write_matches_reference_bytes(self, tmp_path_factory, base, layout):
        wide = base.astype(np.float64)
        if layout == "C":
            m = wide
        elif layout == "F":
            m = np.asfortranarray(wide)
        elif layout == "sliced":
            padded = np.zeros((wide.shape[0], 2 * wide.shape[1]))
            padded[:, ::2] = wide
            m = padded[:, ::2]
        elif layout == "float32":
            m = base
        else:
            m = wide.astype(">f8")
        p = tmp_path_factory.getbasetemp() / "prop.sifb"
        if m.shape[0] and not m.shape[1]:
            with pytest.raises(ValueError, match="rows of 0 columns"):
                write_ensemble_binary((m,), p, m.shape)
            return
        write_ensemble_binary((m,), p, m.shape)
        want = _HEADER.pack(MAGIC, VERSION, *m.shape) + np.asarray(m, "<f8").tobytes()
        assert p.read_bytes() == want
        got = read_all(p)
        assert got.dtype == np.float64
        assert np.array_equal(got, wide, equal_nan=True)

    def test_blocks_read_in_order_and_short_read_named(self, tmp_path):
        m = np.arange(3 * STREAM_BLOCK + 5, dtype=float).reshape(-1, 1) * [1.0, -1.0]
        p = tmp_path / "m.sifb"
        write_ensemble_binary((m,), p, m.shape)
        blocks = list(read_ensemble_blocks(p, m.shape))
        assert [len(b) for b in blocks] == [STREAM_BLOCK] * 3 + [5]
        assert all(not b.flags.writeable and b.flags.aligned for b in blocks)
        assert np.concatenate(blocks).tobytes() == m.tobytes()
        # a file that shrinks after its header was checked
        stream = read_ensemble_blocks(p, m.shape)
        next(stream)
        with open(p, "r+b") as fh:
            fh.truncate(_HEADER.size + 8 * m.shape[1] * STREAM_BLOCK + 8)
        with pytest.raises(ArtifactError, match="truncated payload") as ei:
            list(stream)
        assert str(p) in str(ei.value)

    @pytest.mark.parametrize(
        "shape, match", [((4, 3), "2 rows but the configuration's n_samples is 4"),
                         ((2, 2), "3 columns but the configuration builds 2")],
    )
    def test_shape_checked_against_config(self, tmp_path, shape, match):
        p = tmp_path / "m.sifb"
        write_ensemble_binary((np.arange(6.0).reshape(2, 3),), p, (2, 3))
        with pytest.raises(ArtifactError, match=match) as ei:
            next(read_ensemble_blocks(p, shape))
        assert str(p) in str(ei.value)

    def test_binary_header(self, tmp_path):
        p = tmp_path / "m.sifb"
        write_ensemble_binary((np.arange(6.0).reshape(2, 3),), p, (2, 3))
        raw = p.read_bytes()
        assert raw[:4] == b"SIFB"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:13], "little") == 2
        assert int.from_bytes(raw[13:21], "little") == 3

    def test_rows_without_columns_rejected(self, tmp_path):
        # a 21-byte file of 2^63 rows and 0 columns fits its empty payload
        p = tmp_path / "m.sifb"
        p.write_bytes(_HEADER.pack(MAGIC, VERSION, 2**63, 0))
        with pytest.raises(ArtifactError, match="rows of 0 columns") as ei:
            next(read_ensemble_blocks(p))
        assert str(p) in str(ei.value)

    def test_binary_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.sifb"
        p.write_bytes(b"nope" + bytes(20))
        with pytest.raises(ValueError, match="not a SIFB"):
            next(read_ensemble_blocks(p))

    @pytest.mark.parametrize("size", [4, 12, 21, 30])
    def test_binary_truncated_named(self, tmp_path, size):
        p = tmp_path / "m.sifb"
        write_ensemble_binary((np.arange(6.0).reshape(2, 3),), p, (2, 3))
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(ArtifactError, match="truncated") as ei:
            list(read_ensemble_blocks(p))
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
            blocks = list(read_ensemble_blocks(p))
        except ArtifactError as exc:
            assert str(p) in str(exc)
        else:
            assert raw[:5] == b"SIFB\x01"
            assert all(b.dtype == np.float64 and b.ndim == 2 for b in blocks)
            assert 21 + 8 * sum(b.size for b in blocks) == len(raw)


class TestConfig:
    def test_parses(self, tmp_path):
        path, _ = make_config(tmp_path)
        cfg = load_config(path)
        assert all(len(u.corner) == 2 for u in cfg.lattice_indices)
        assert cfg.hurst.value == 0.3
        assert len(cfg.lattice_indices) == 4
        assert len(cfg.flows) == 2

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

    @pytest.mark.parametrize(
        "covers",
        [
            {"tiling": {"corner": [2.0, 2.0], "divisions": [2, 2]}},
            {"elements": [{"base": [2.0, 2.0]}, {"base": [3.0, 1.0]}]},
            {"tiling": {"corner": [2.0, 2.0], "divisions": [None, 2]}},
            {"elements": [{"base": [-1.0, 2.0]}]},
            {"elements": [{"base": [2.0, 2.0], "subtract": [[1.0, -1.0]]}]},
            {"tiling": {"corner": [2.0, 2.0], "divsions": [2, 2]}},
            {"elements": [{"base": [2.0, 2.0], "subtarct": []}]},
            {"elements": [{"subtract": [[1.0, 1.0]]}]},
            {"elements": [{"base": [2.0, 2.0], "subtract": [[2.0, 0.1 * k] for k in range(1, 22)]}]},
            5,
        ],
        ids=["tiling", "overlapping-elements", "divisions-not-int", "negative-base",
             "negative-subtract", "misspelled-tiling-key", "misspelled-element-key",
             "element-without-base", "subtract-over-cap", "not-an-object"],
    )
    def test_covers_key_is_ignored(self, tmp_path, covers):
        # "covers" named the cover family of the extension test that the
        # grid-cell test replaced: any value still loads, and changes no index
        path, _ = make_config(tmp_path)
        want = load_config(path)
        path, _ = make_config(tmp_path, covers=covers)
        got = load_config(path)
        assert got.ensemble_indices() == want.ensemble_indices()
        assert got.table_indices == want.table_indices

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
        assert main(["simulate", "--config", str(path)]) == 0
        assert (out / "ensemble.sifb").read_bytes() == first

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_simulate_memory_stays_below_the_ensemble(self, tmp_path, monkeypatch, jobs):
        # simulate streams its draw: the traced peak stays a few blocks,
        # not the matrix.  A writer slower than the draw keeps blocks waiting,
        # so a --jobs 2 draw that did not bound its blocks in flight would
        # hold most of the matrix.
        path, _ = make_config(tmp_path, n_samples=64 * STREAM_BLOCK)
        write = sifbm.cli.write_ensemble_binary

        def slow(blocks):
            for block in blocks:
                time.sleep(0.002)
                yield block

        monkeypatch.setattr(
            sifbm.cli, "write_ensemble_binary", lambda blocks, *rest: write(slow(blocks), *rest)
        )
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(path), "--jobs", str(jobs)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = read_all(tmp_path / "out" / "ensemble.sifb")
        assert peak < matrix.nbytes / 4

    def test_simulate_writes_no_csv(self, tmp_path):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        assert not (out / "ensemble.csv").exists()

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

    def test_masses_ulps_apart_give_finite_intrep(self, tmp_path):
        rep = dict(BASE_CONFIG["integral_rep"], masses=[0.3, 0.30000000000000004])
        path, _ = make_config(tmp_path, integral_rep=rep)
        # the upper mass is not a singular point of the grid, and both
        # refinement errors sit near 1.8e-10 of the covariance: above the
        # round-off floor, but so close that the doubled grid need not be
        # the smaller, so the exit code is not pinned
        assert main(["verify-intrep", "--config", str(path)]) in (0, 2)
        text = (tmp_path / "out" / "intrep.json").read_text()
        report = json.loads(text, parse_constant=pytest.fail)
        assert {c["name"]: c["passed"] for c in report["criteria"]}["covariance_H0.3"]

    @pytest.mark.parametrize("masses", [[0.3], [1.0], [1.0, 1.0]])
    def test_single_distinct_mass_passes_refinement(self, tmp_path, masses):
        # one distinct mass is exact by scaling on every grid, so both
        # refinement errors are round-off and the criterion passes on the floor
        rep = dict(BASE_CONFIG["integral_rep"], masses=masses)
        path, _ = make_config(tmp_path, integral_rep=rep)
        assert main(["verify-intrep", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "intrep.json").read_text())
        (refinement,) = [c for c in report["criteria"] if c["name"] == "refinement_H0.3"]
        assert refinement["passed"] and refinement["threshold"] <= 1e-12

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
        assert set(manifest["artifacts"]) == {"ensemble.sifb"}
        assert manifest["config_hash"] == load_config(path).config_hash()

    def test_characterize_pipeline_and_discrimination(self, tmp_path, capsys):
        # small but statistically meaningful end-to-end run
        path, raw = make_config(tmp_path, n_samples=4000)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        assert main(["characterize", "--config", str(path)]) == 0
        rep = json.loads((out / "characterization.json").read_text())
        assert rep["verdict"] == "pass"
        # same artifacts, mismatched hypothesis H: a stale artifact, named
        raw2 = copy.deepcopy(raw)
        raw2["hurst"] = 0.45
        path2 = tmp_path / "config2.json"
        path2.write_text(json.dumps(raw2))
        capsys.readouterr()
        assert main(["characterize", "--config", str(path2)]) == 1
        assert "hurst" in capsys.readouterr().err
        # independent columns of the same shape: variance profile must fail
        ens = out / "ensemble.sifb"
        shape = read_all(ens).shape
        write_ensemble_binary((np.random.default_rng(5).standard_normal(shape),), ens, shape)
        assert main(["characterize", "--config", str(path)]) == 2
        rep2 = json.loads((out / "characterization.json").read_text())
        failed = {c["name"] for c in rep2["criteria"] if not c["passed"]}
        assert "variance_profile" in failed

    def test_stale_or_unrecorded_ensemble_exits_1(self, tmp_path, capsys):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        for field, value in (("seed", 8), ("n_samples", 401)):
            stale = make_config(tmp_path, **{field: value})[0]
            capsys.readouterr()
            assert main(["project", "--config", str(stale)]) == 1
            assert f"simulated with {field}" in capsys.readouterr().err
        make_config(tmp_path)  # the matching config again
        (out / "manifest_simulate.json").unlink()
        assert main(["project", "--config", str(path)]) == 1
        assert "manifest_simulate.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["project", "recover-measure", "characterize"])
    def test_wrong_row_count_exits_1(self, tmp_path, capsys, command):
        # a whole-rows cut with a valid header, under a manifest that
        # records the config's n_samples
        path, _ = make_config(tmp_path, n_samples=2000)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        ens = out / "ensemble.sifb"
        cut = read_all(ens)[:1200]
        write_ensemble_binary((cut,), ens, cut.shape)
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(ens) in err and "1200 rows" in err and "n_samples is 2000" in err
        assert not list(out.glob("profile_*.csv")) and len(list(out.glob("*.json"))) == 1

    @pytest.mark.parametrize(
        "damage, message",
        [(lambda raw: raw[:_HEADER.size], "truncated payload"),
         (lambda raw: raw[:-4], "truncated payload"),
         (lambda raw: raw + bytes(8), "truncated payload"),
         (lambda raw: b"nope" + raw[4:], "not a SIFB")],
    )
    def test_malformed_ensemble_project_writes_nothing(self, tmp_path, capsys, damage, message):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        ens = out / "ensemble.sifb"
        ens.write_bytes(damage(ens.read_bytes()))
        capsys.readouterr()
        assert main(["project", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert sorted(q.name for q in out.iterdir()) == ["ensemble.sifb", "manifest_simulate.json"]

    def test_project_memory_flat_in_n_samples(self, tmp_path):
        # project streams the stored ensemble: from n to 8n samples its traced
        # peak grows by the end and half-increment series, a few blocks, not by
        # the (n, n_indices) matrix and its per-flow copies
        lattice = {"lattice": {"shape": [8, 8], "spacing": [1.0, 1.0]}}
        peaks = []
        for n in (4 * STREAM_BLOCK, 32 * STREAM_BLOCK):
            (tmp_path / str(n)).mkdir()
            path, _ = make_config(tmp_path / str(n), n_samples=n, indices=lattice)
            assert main(["simulate", "--config", str(path)]) == 0
            tracemalloc.start()
            try:
                assert main(["project", "--config", str(path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block = STREAM_BLOCK * len(load_config(path).ensemble_indices()) * 8
        assert peaks[1] - peaks[0] < 4 * block

    @pytest.mark.parametrize(
        "command, path, value, field",
        [
            ("project", ("thresholds", "profile_se_mult"), "abc", "thresholds.profile_se_mult"),
            ("recover-measure", ("thresholds", "psi_floor"), None, "thresholds.psi_floor"),
            ("verify-intrep", ("integral_rep", "variance_rel_tol"), "abc",
             "integral_rep.variance_rel_tol"),
            ("verify-intrep", ("integral_rep", "covariance_se_mult"), None,
             "integral_rep.covariance_se_mult"),
            ("verify-intrep", ("integral_rep", "masses", 1), "a", "integral_rep.masses[1]"),
            ("verify-intrep", ("integral_rep", "variance_masses"), 1.0,
             "integral_rep.variance_masses"),
            ("verify-intrep", ("integral_rep", "hursts", 0), None, "integral_rep.hursts[0]"),
            ("verify-intrep", ("integral_rep", "n_samples"), "4000", "integral_rep.n_samples"),
            ("verify-intrep", ("integral_rep", "grid", "margin"), None,
             "integral_rep.grid.margin"),
            ("simulate", ("indices", "lattice", "shape", 0), "2", "indices.lattice.shape[0]"),
            ("simulate", ("indices", "lattice", "spacing", 1), None,
             "indices.lattice.spacing[1]"),
            ("simulate", ("dimension",), 0, "dimension"),
            ("project", ("flows", 0, "to", 0), "a", "flows[0].to[0]"),
            ("project", ("flows", 1, "segments", 0, "span"), ["a", "b"],
             "flows[1].segments[0].span[0]"),
            ("project", ("flows", 0),
             {"kind": "power", "to": [2.0, 2.0], "exponents": ["a", 1.0], "points": 8},
             "flows[0].exponents[0]"),
            # JSON booleans are Python ints, but never numbers in a config
            ("simulate", ("n_samples",), True, "n_samples"),
            ("recover-measure", ("thresholds", "psi_floor"), True, "thresholds.psi_floor"),
            ("verify-intrep", ("integral_rep", "grid", "cells_per_mass"), False,
             "integral_rep.grid.cells_per_mass"),
            # a number that no box, masses list or band admits
            ("simulate", ("indices", "lattice", "spacing", 0), -1.0, "indices.lattice.spacing"),
            ("simulate", ("indices",), {"corners": [[1.0, 1.0], [2.0, -1.0]]},
             "indices.corners[1]"),
            ("project", ("flows", 0, "points"), 1, "flows[0].points"),
            ("simulate", ("hurst",), "0.3", "hurst"),
            ("verify-intrep", ("integral_rep", "masses"), [1.0, 0.5], "integral_rep.masses"),
            ("verify-intrep", ("integral_rep", "masses"), [], "integral_rep.masses"),
            ("verify-intrep", ("integral_rep", "variance_masses"), [-1.0],
             "integral_rep.variance_masses"),
            ("verify-intrep", ("integral_rep", "variance_masses"), [0.0],
             "integral_rep.variance_masses"),
            # json.dumps writes NaN, which json.load reads back
            ("verify-intrep", ("integral_rep", "grid", "truncation_factor"), float("nan"),
             "integral_rep.grid.truncation_factor"),
            ("characterize", ("thresholds", "profile_se_mult"), float("nan"),
             "thresholds.profile_se_mult"),
            ("verify-intrep", ("integral_rep", "variance_rel_tol"), float("nan"),
             "integral_rep.variance_rel_tol"),
            ("verify-intrep", ("integral_rep", "masses"), [float("nan"), 1.0],
             "integral_rep.masses[0]"),
            # no sample to draw: checked at load time like the top-level n_samples
            ("verify-intrep", ("integral_rep", "n_samples"), 0, "integral_rep.n_samples"),
            ("verify-intrep", ("integral_rep", "n_samples"), -5, "integral_rep.n_samples"),
            # SeedSequence takes no negative seed
            ("simulate", ("seed",), -3, "seed"),
            # a mass at or beyond the window's edge would make the kernel's
            # tail series diverge and give a wrong Gram with no error
            ("verify-intrep", ("integral_rep", "grid", "truncation_factor"), 1.0,
             "integral_rep.grid.truncation_factor"),
            ("verify-intrep", ("integral_rep", "grid", "margin"), 0.2, "integral_rep.grid.margin"),
        ],
    )
    def test_bad_numeric_field_is_config_error(self, tmp_path, capsys, command, path, value, field):
        raw = node = copy.deepcopy({**BASE_CONFIG, "thresholds": {}})
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config, _ = make_config(tmp_path, **raw)
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and f"'{field}'" in err

    @pytest.mark.parametrize(
        "section, key, value, bound",
        [
            ("thresholds", "covariance_pass_fraction", 1.5, "<= 1.0"),
            ("thresholds", "profile_pass_fraction", -0.5, ">= 0.0"),
            ("thresholds", "gaussianity_z", -1, ">= 0.0"),
            ("thresholds", "psi_floor", -0.1, ">= 0.0"),
            ("integral_rep", "covariance_se_mult", -1, ">= 0.0"),
            ("integral_rep", "variance_rel_tol", -0.01, ">= 0.0"),
        ],
    )
    def test_out_of_range_band_is_config_error(self, tmp_path, capsys, section, key, value, bound):
        # these used to run and fail a criterion, exit 2, or pass every one
        raw = copy.deepcopy({**BASE_CONFIG, "thresholds": {}})
        raw[section][key] = value
        config, _ = make_config(tmp_path, **raw)
        assert main(["characterize", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(
            f"sifbm: config error: field '{section}.{key}' must be {bound}"
        )

    def test_negative_refine_radius_is_config_error(self, tmp_path, capsys):
        # a negative window used to refine nearly the cells of its absolute
        # value: 14,224 cells at -0.3 against 14,236 at +0.3 and 13,324 at 0
        # (one unit mass, 256 cells per mass, refine_factor 4)
        ir = copy.deepcopy(BASE_CONFIG["integral_rep"])
        ir["grid"]["refine_radius_frac"] = -0.3
        path, _ = make_config(tmp_path, integral_rep=ir)
        assert main(["verify-intrep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "sifbm: config error: field 'integral_rep.grid.refine_radius_frac' must be >= 0"
        )

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        path, _ = make_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and "'seed'" in err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("output_dri",), "out", "output_dri"),
            (("indices", "lattice", "spacin"), [1.0, 1.0], "indices.lattice.spacin"),
            (("indices", "corners"), [[1.0, 1.0]], "indices.corners"),
            (("flows", 0, "pionts"), 8, "flows[0].pionts"),
            (("flows", 0, "exponents"), [2.0, 1.0], "flows[0].exponents"),
            (("flows", 1, "points"), 4, "flows[1].points"),
            (("flows", 1, "segments", 0, "name"), "a", "flows[1].segments[0].name"),
            (("cover",), {}, "cover"),
            (("flows", 1, "segments", 0, "exponents"), [1.0, 1.0],
             "flows[1].segments[0].exponents"),
            (("integral_rep", "varaince_rel_tol"), 0.1, "integral_rep.varaince_rel_tol"),
            (("integral_rep", "grid", "cells_per_mas"), 256, "integral_rep.grid.cells_per_mas"),
            (("thresholds", "psi_flor"), 0.1, "thresholds.psi_flor"),
        ],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, path, value, field):
        # misspelled keys, and keys valid elsewhere that this object does not
        # read (a linear flow's exponents, corners beside a lattice)
        raw = node = copy.deepcopy({**BASE_CONFIG, "thresholds": {}})
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config, _ = make_config(tmp_path, **raw)
        assert main(["simulate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and f"'{field}': unknown key" in err

    @pytest.mark.parametrize(
        "config", ["configs/demo.json", "benchmark/configs/wide.json", "benchmark/configs/intrep_coarse.json"]
    )
    def test_shipped_configs_carry_no_unknown_key(self, config):
        # every key of every shipped config is read; BASE_CONFIG and the
        # acceptance config are loaded by the tests that use them
        load_config(SRC.parents[1] / config)

    @pytest.mark.parametrize("key", ["analytic_tol", "additivity_se_mult"])
    def test_removed_threshold_is_config_error(self, tmp_path, capsys, key):
        path, _ = make_config(tmp_path, thresholds={key: 1e-12})
        assert main(["recover-measure", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and f"thresholds.{key}" in err

    def test_corners_not_a_list_is_config_error(self, tmp_path, capsys):
        path, _ = make_config(tmp_path, indices={"corners": 5})
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and "'indices.corners'" in err

    def test_flow_given_as_number_is_config_error(self, tmp_path, capsys):
        path, _ = make_config(tmp_path, flows=[5, BASE_CONFIG["flows"][1]])
        assert main(["project", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and "'flows[0]'" in err

    def test_half_hurst_in_intrep_exits_1(self, tmp_path, capsys):
        ir = {**BASE_CONFIG["integral_rep"], "hursts": [0.5]}
        path, _ = make_config(tmp_path, integral_rep=ir)
        assert main(["verify-intrep", "--config", str(path)]) == 1
        assert "integral_rep.hursts" in capsys.readouterr().err

    @pytest.mark.parametrize("hv", [0.5 - 1e-7, 0.49999999999999994])
    def test_hurst_near_half_in_intrep_exits_1(self, tmp_path, capsys, hv):
        # the kernel loses its digits to cancellation as H nears 1/2
        ir = {**BASE_CONFIG["integral_rep"], "hursts": [0.3, hv]}
        path, _ = make_config(tmp_path, integral_rep=ir)
        assert main(["verify-intrep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "'integral_rep.hursts'" in err and "within 1e-6 of 1/2" in err

    def test_hurst_at_the_kernel_bound_loads(self, tmp_path):
        ir = {**BASE_CONFIG["integral_rep"], "hursts": [KERNEL_H_MAX]}
        path, _ = make_config(tmp_path, integral_rep=ir)
        assert load_config(path).intrep.hursts == (KERNEL_H_MAX,)

    def test_grid_too_coarse_for_normalization_exits_1(self, tmp_path, capsys):
        ir = {
            **BASE_CONFIG["integral_rep"],
            "hursts": [0.05],
            "grid": {"cells_per_mass": 16, "refine_factor": 1},
        }
        path, _ = make_config(tmp_path, integral_rep=ir)
        assert main(["verify-intrep", "--config", str(path)]) == 1
        assert "normalization quadrature not converged" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, n_samples, floor",
        [("characterize", 999, 1000), ("recover-measure", 99, 100)],
    )
    def test_too_few_samples_exits_1(self, tmp_path, capsys, command, n_samples, floor):
        path, _ = make_config(tmp_path, n_samples=n_samples)
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 1
        assert f"at least {floor} samples" in capsys.readouterr().err

    def test_verdict_reports_share_one_schema(self, tmp_path):
        path, _ = make_config(tmp_path, n_samples=4000)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path)]) == 0
        for command, fname in (
            ("recover-measure", "recovery.json"),
            ("verify-intrep", "intrep.json"),
            ("characterize", "characterization.json"),
        ):
            assert main([command, "--config", str(path)]) == 0
            rep = json.loads((out / fname).read_text())
            assert rep["verdict"] == "pass"
            assert rep["criteria"]
            for c in rep["criteria"]:
                assert set(c) == {"name", "passed", "statistic", "threshold", "detail"}

    def test_recover_measure(self, tmp_path):
        path, _ = make_config(tmp_path, n_samples=4000)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path)])
        assert main(["recover-measure", "--config", str(path)]) == 0
        rep = json.loads((out / "recovery.json").read_text())
        assert rep["verdict"] == "pass"
        assert rep["psi"]

    def test_recover_measure_on_small_boxes(self, tmp_path):
        # every box lies below psi_floor, which left the cover search no
        # index to test: it failed exact data with exit 2
        path, _ = make_config(
            tmp_path, n_samples=4000, flows=[], indices={"corners": [[0.2, 0.2], [0.3, 0.25]]}
        )
        assert main(["simulate", "--config", str(path)]) == 0
        assert main(["recover-measure", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "out" / "recovery.json").read_text())
        ext = next(c for c in rep["criteria"] if c["name"] == "extension")
        assert ext["passed"] and ext["detail"].startswith("cells tested: 1;")

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

    @pytest.mark.parametrize(
        "text",
        [
            '{"verdict": "pass"',
            '{"verdict": "pass"}',
            '{"verdict": "pass", "criteria": [1]}',
            "[1]",
            "{}",
        ],
    )
    def test_report_on_malformed_report_exits_1(self, tmp_path, capsys, text):
        path, _ = make_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "characterization.json").write_text(text)
        assert main(["report", "--config", str(path)]) == 1
        assert "characterization.json: malformed report" in capsys.readouterr().err

    def test_report_without_artifacts_exits_1(self, tmp_path):
        path, _ = make_config(tmp_path)
        assert main(["report", "--config", str(path)]) == 1

    @pytest.mark.parametrize("change", ["hurst", "seed", "no manifest"])
    def test_report_refuses_verdicts_of_another_config(self, tmp_path, capsys, change):
        # config A (H = 0.3) leaves its verdicts; then config B, the same with
        # H = 0.2, simulates into the same directory and reports; or A reports
        # under another seed, or with a verdict's manifest gone
        path, _ = make_config(tmp_path, n_samples=4000)
        for command in ("simulate", "recover-measure", "characterize"):
            assert main([command, "--config", str(path)]) == 0
        argv = ["report", "--config", str(path)]
        if change == "hurst":
            path, _ = make_config(tmp_path, n_samples=4000, hurst=0.2)
            assert main(["simulate", "--config", str(path)]) == 0
        elif change == "seed":
            argv += ["--seed", "8"]
        else:
            (tmp_path / "out" / "manifest_recover_measure.json").unlink()
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "recovery.json: its manifest does not show this config" in err

    @pytest.mark.parametrize("command", ["simulate", "recover-measure", "characterize"])
    def test_dimension_above_the_part_cap_is_config_error(self, tmp_path, capsys, command):
        # a grid cell in dimension N is a signed sum over 2^N corner boxes
        dim = MAX_UNION_PARTS + 1
        path, _ = make_config(tmp_path, dimension=dim, flows=[], indices={"corners": [[1.0] * dim]})
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and "'dimension'" in err

    def test_simple_flow_above_the_part_cap_is_config_error(self, tmp_path, capsys):
        # an antichain of segment ends, so the last value keeps every one as a part
        def fan(k):
            segments = [
                {"span": [i, i + 1], "kind": "linear", "to": [i + 1.0, k - i], "points": 2}
                for i in range(k)
            ]
            return [{"name": "fan", "kind": "simple", "segments": segments}]

        path, _ = make_config(tmp_path, flows=fan(MAX_UNION_PARTS))
        load_config(path)
        path, _ = make_config(tmp_path, flows=fan(MAX_UNION_PARTS + 1))
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and "'flows[0].segments'" in err

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"indices": {"corners": [[1.0, 1.0], [1e200, 1e200]]}}, "indices.corners[1]"),
            ({"indices": {"lattice": {"shape": [1, 2], "spacing": [1e200, 1e200]}}}, "indices.lattice"),
            ({"flows": [{"name": "far", "kind": "linear", "to": [1e200, 1e200]}]}, "flows[0].to"),
            ({"flows": [{"name": "far", "kind": "simple", "segments": [
                {"span": [0, 1], "kind": "linear", "to": [1.0, 1.0]},
                {"span": [1, 2], "kind": "power", "to": [1e200, 1e200], "exponents": [1, 2]},
            ]}]}, "flows[0].segments[1].to"),
            # each box measures 8e307, their union's terms add up beyond the float range
            ({"flows": [{"name": "far", "kind": "simple", "segments": [
                {"span": [0, 1], "kind": "linear", "to": [1e154, 0.8e154]},
                {"span": [1, 2], "kind": "linear", "to": [0.8e154, 1e154]},
            ]}]}, "flows[0].segments"),
            # each box measures 1.1e308, but the covariance adds two of them
            ({"indices": {"corners": [[1e154, 1.1e154], [1.1e154, 1e154]]}}, "indices.corners[0]"),
        ],
    )
    def test_non_finite_measure_is_config_error(self, tmp_path, capsys, override, field):
        path, _ = make_config(tmp_path, **override)
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sifbm: config error:") and f"'{field}'" in err

    @pytest.mark.parametrize("command", ["recover-measure", "characterize"])
    def test_tiny_hurst_recovery_exits_1(self, tmp_path, capsys, command):
        # psi = variance^(1/(2H)) takes each sample variance, all near 1, to
        # the power 500,000: a 0.15% excess overflows
        lattice = {"lattice": {"shape": [3, 3], "spacing": [1.0, 1.0]}}
        path, _ = make_config(tmp_path, hurst=1e-6, n_samples=1000, indices=lattice)
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 1
        assert "overflows a float at hurst 1e-06" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("command", ["recover-measure", "characterize"])
    def test_overflowing_fourth_moments_exit_1(self, tmp_path, capsys, command):
        # a variance of 1e154 is a float, its samples' X^4 sums are not
        lattice = {"lattice": {"shape": [1], "spacing": [1e154]}}
        path, _ = make_config(tmp_path, dimension=1, hurst=0.5, n_samples=1000, indices=lattice, flows=[])
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 1
        assert "the X^4 sums of Rect([1e+154]) overflow a float" in capsys.readouterr().err


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


SRC = Path(__file__).resolve().parents[1] / "src" / "sifbm"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_no_private_names(module):
    # every module uses only the public surface of the others
    private = [
        f"{'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse((SRC / module).read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "sifbm")
        for alias in node.names
        if _private(alias.name) or any(map(_private, (node.module or "").split(".")))
    ]
    assert private == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_at_top_level(module):
    # an import inside a function body hides a dependency of the module
    local = [
        f"{fn.name} line {node.lineno}"
        for fn in ast.walk(ast.parse((SRC / module).read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_full_pipeline_quick_leaves_no_temp_files(monkeypatch, tmp_path):
    # the script binds sifbm.cli.main at import, so load it after patching
    calls = []

    def fake_main(argv):
        cfg = json.loads(Path(argv[2]).read_text())
        calls.append((argv[0], cfg["n_samples"]))
        return 0

    monkeypatch.setattr("sifbm.cli.main", fake_main)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    root = SRC.parents[1]
    spec = importlib.util.spec_from_file_location("full_pipeline", root / "scripts" / "full_pipeline.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(["full_pipeline.py", str(root / "configs" / "demo.json"), "--quick"]) == 0
    assert calls == [(cmd, 4000) for cmd in script.COMMANDS]
    assert list(tmp_path.iterdir()) == []


# Coordinates and measures across the float range: the extremes the config
# must refuse or the commands must carry without a NaN.
EXTREME = st.sampled_from([1e-300, 1e-150, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e150, 1e154, 1.1e154, 1e300])
COORD = EXTREME | st.floats(1e-300, 1e300)


@st.composite
def edge_configs(draw):
    """Raw configs of small boxes and samples with extreme corners and H:
    most load, some are refused as config errors."""
    dim = draw(st.sampled_from([1, 2, 3, 21]))
    def corner():
        return draw(st.lists(COORD, min_size=dim, max_size=dim))
    flows = []
    for i in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            flows.append({"name": f"f{i}", "kind": "linear", "to": corner(),
                          "points": draw(st.integers(2, 6))})
        else:
            flows.append({"name": f"f{i}", "kind": "simple", "segments": [
                {"span": [0.0, 1.0], "kind": "linear", "to": corner(), "points": 3},
                {"span": [1.0, 2.0], "kind": "power", "to": corner(), "points": 3,
                 "exponents": [draw(st.sampled_from([0.5, 1.0, 2.0]))] * dim},
            ]})
    if draw(st.booleans()):
        indices = {"corners": [corner() for _ in range(draw(st.integers(1, 5)))]}
    else:
        indices = {"lattice": {"shape": [draw(st.integers(1, 2))] * dim, "spacing": corner()}}
    hurst = draw(st.sampled_from([1e-8, 1e-6, 0.01, 0.3, 0.5]) | st.floats(1e-8, 0.5))
    n = draw(st.sampled_from([1, 99, 100, 999]) | st.integers(1000, 2000))
    return {"dimension": dim, "hurst": hurst, "seed": draw(st.integers(0, 2**32 - 1)),
            "n_samples": n, "indices": indices, "flows": flows}


def _numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, float) else []


# numpy warns of the overflows and underflows that extreme boxes meet on the way
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(edge_configs())
# two measures whose sum overflows; a variance whose X^4 sums overflow
@example({"dimension": 2, "hurst": 0.3, "seed": 0, "n_samples": 100, "flows": [],
          "indices": {"corners": [[1e154, 1.1e154], [1.1e154, 1e154]]}})
@example({"dimension": 1, "hurst": 0.5, "seed": 0, "n_samples": 100, "flows": [],
          "indices": {"lattice": {"shape": [1], "spacing": [1e154]}}})
@settings(deadline=None, max_examples=100)
def test_accepted_configs_exit_cleanly(raw):
    """Every command on an edge config exits 0, 1 or 2 and raises nothing
    else, and no verdict it writes holds a NaN."""
    with tempfile.TemporaryDirectory() as d:
        raw["output_dir"] = str(Path(d) / "out")
        path = Path(d) / "config.json"
        path.write_text(json.dumps(raw))
        for command in ("simulate", "project", "recover-measure", "characterize", "report"):
            assert main([command, "--config", str(path)]) in (0, 1, 2)
        for fname in ("recovery.json", "characterization.json", "summary.json"):
            report = Path(raw["output_dir"]) / fname
            if report.exists():
                assert not any(np.isnan(_numbers(json.loads(report.read_text())))), fname
