"""Artifact formats: ensemble CSV and binary, flow JSON, profile CSV.

The binary ensemble format is magic bytes "SIFB", one version byte, two
little-endian uint64 counts (rows, columns), then row-major little-endian
float64 samples.  The CSV twin carries one column per index with the
serialized corner as header (JSON array; the empty set is null) and one row
per sample.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .flows import ElementaryFlow, SimpleFlow
from .gaussian import HurstParam, SampleEnsemble
from .rects import EMPTY, Rect
from .stats import VarianceProfile

MAGIC = b"SIFB"
VERSION = 1
_HEADER = struct.Struct("<4sBQQ")  # magic, version, rows, columns: 21 bytes


class ArtifactError(ValueError):
    """A data artifact is malformed or does not fit the configuration; the
    message starts with the artifact's path."""


def rect_to_json(r: Rect):
    return None if r.is_empty else list(r.corner)


def rect_from_json(obj) -> Rect:
    return EMPTY if obj is None else Rect(tuple(obj))


def write_ensemble_csv(e: SampleEnsemble, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(json.dumps(rect_to_json(u)) for u in e.indices)
        for row in e.samples:
            w.writerow(repr(float(x)) for x in row)


def read_ensemble_csv(path) -> tuple[tuple[Rect, ...], np.ndarray]:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        indices = tuple(rect_from_json(json.loads(h)) for h in header)
        rows = [[float(x) for x in row] for row in r]
    return indices, np.asarray(rows)


def write_ensemble_binary(e: SampleEnsemble, path):
    write_matrix_binary(e.samples, path)


def write_matrix_binary(mat: np.ndarray, path):
    mat = np.ascontiguousarray(mat, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, mat.shape[0], mat.shape[1]))
        fh.write(mat.tobytes())


def read_matrix_binary(path) -> np.ndarray:
    """Parse a SIFB file; any malformed input raises ``ArtifactError``."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ArtifactError(f"{path}: not a SIFB ensemble file")
    if len(raw) < _HEADER.size:
        raise ArtifactError(f"{path}: truncated header, {len(raw)} of {_HEADER.size} bytes")
    _, version, rows, cols = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise ArtifactError(f"{path}: unsupported version {version}")
    payload = len(raw) - _HEADER.size
    if payload != 8 * rows * cols:
        raise ArtifactError(
            f"{path}: truncated payload, {payload} bytes for {rows} x {cols} doubles"
        )
    try:
        return np.frombuffer(raw, "<f8", offset=_HEADER.size).reshape(rows, cols).copy()
    except ValueError:
        raise ArtifactError(f"{path}: unsupported shape {rows} x {cols}") from None


def load_ensemble(binary_path, indices, seed: int, hurst: HurstParam) -> SampleEnsemble:
    samples = read_matrix_binary(binary_path)
    if samples.shape[1] != len(indices):
        raise ArtifactError(
            f"{binary_path}: ensemble has {samples.shape[1]} columns but the "
            f"configuration builds {len(indices)} indices; config and artifact disagree"
        )
    return SampleEnsemble(tuple(indices), samples, seed, hurst)


def flow_to_json(f) -> dict:
    if isinstance(f, ElementaryFlow):
        return {
            "grid": [float(t) for t in f.grid],
            "corners": [rect_to_json(v) for v in f.values],
        }
    if isinstance(f, SimpleFlow):
        return {
            "breakpoints": f.breakpoints,
            "segments": [flow_to_json(s) for s in f.segments],
        }
    raise TypeError(f"not a flow: {type(f).__name__}")


def flow_from_json(obj):
    from .flows import make_elementary_flow

    if "segments" in obj:
        segs = tuple(flow_from_json(s) for s in obj["segments"])
        return SimpleFlow(segs)
    corners = [None if c is None else tuple(c) for c in obj["corners"]]
    return make_elementary_flow(obj["grid"], corners)


def write_profile_csv(profile: VarianceProfile, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "t", "theta_s", "theta_t", "predicted", "observed", "stderr"])
        for r in profile.rows:
            w.writerow(
                repr(v)
                for v in (r.s, r.t, r.theta_s, r.theta_t, r.predicted, r.observed, r.stderr)
            )


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
