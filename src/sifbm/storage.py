"""Artifact formats: binary ensemble, profile CSV, JSON reports.

The binary ensemble format is magic bytes "SIFB", one version byte, two
little-endian uint64 counts (rows, columns), then row-major little-endian
float64 samples.  ``write_ensemble_binary`` writes it block by block as the
draw arrives, so ``sifbm simulate`` never holds the whole ensemble.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .gaussian import HurstParam, SampleEnsemble
from .rects import Rect
from .stats import VarianceProfile

MAGIC = b"SIFB"
VERSION = 1
_HEADER = struct.Struct("<4sBQQ")  # magic, version, rows, columns: 21 bytes
# Profile rows formatted at a time: holds the text of a few thousand rows,
# not of the whole profile, at any moment
PROFILE_BLOCK_ROWS = 4096


class ArtifactError(ValueError):
    """A data artifact is malformed or does not fit the configuration; the
    message starts with the artifact's path."""


def rect_to_json(r: Rect):
    return None if r.is_empty else list(r.corner)


def write_ensemble_binary(blocks, path, shape):
    """Write row blocks as one (rows, columns) ``shape`` matrix through a file that
    replaces ``path`` after the last block; blocks that miss ``shape`` raise."""
    rows, cols = shape
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, rows, cols))
            written = 0
            for block in blocks:
                block = np.ascontiguousarray(block, dtype="<f8")
                if block.shape[1:] != (cols,):
                    raise ValueError(f"{path}: block of shape {block.shape}, header has {cols} columns")
                written += len(block)
                fh.write(memoryview(block))
        if written != rows:
            raise ValueError(f"{path}: blocks hold {written} rows, header has {rows}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_matrix_binary(path) -> np.ndarray:
    """Parse a SIFB file into a read-only, aligned float64 array; any
    malformed input raises ``ArtifactError``.  The file size must match the
    header before the array is allocated."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != MAGIC:
            raise ArtifactError(f"{path}: not a SIFB ensemble file")
        if len(head) < _HEADER.size:
            raise ArtifactError(f"{path}: truncated header, {len(head)} of {_HEADER.size} bytes")
        _, version, rows, cols = _HEADER.unpack(head)
        if version != VERSION:
            raise ArtifactError(f"{path}: unsupported version {version}")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != 8 * rows * cols:
            raise ArtifactError(
                f"{path}: truncated payload, {payload} bytes for {rows} x {cols} doubles"
            )
        try:
            out = np.empty((rows, cols), "<f8")
        except ValueError:
            raise ArtifactError(f"{path}: unsupported shape {rows} x {cols}") from None
        got = fh.readinto(out)
    if got != payload:
        raise ArtifactError(f"{path}: truncated payload, {got} bytes for {rows} x {cols} doubles")
    out.flags.writeable = False
    return out


def load_ensemble(binary_path, indices, hurst: HurstParam) -> SampleEnsemble:
    samples = read_matrix_binary(binary_path)
    if samples.shape[1] != len(indices):
        raise ArtifactError(
            f"{binary_path}: ensemble has {samples.shape[1]} columns but the "
            f"configuration builds {len(indices)} indices; config and artifact disagree"
        )
    return SampleEnsemble(tuple(indices), samples, hurst)


def write_profile_csv(profile: VarianceProfile, path):
    """A header line, then one line per grid pair: comma-separated ``repr``
    of each float, so values round-trip, and CRLF line ends.  The bytes are
    those the csv module writes, as no field holds a comma or a quote.

    In each block of ``PROFILE_BLOCK_ROWS`` rows, each column formats each
    distinct float64 bit pattern once (bits, not values: -0.0 and 0.0 format
    differently)."""
    rows = profile.rows
    with open(path, "w", newline="") as fh:
        fh.write(",".join(rows.dtype.names) + "\r\n")
        for start in range(0, len(rows), PROFILE_BLOCK_ROWS):
            block = rows[start:start + PROFILE_BLOCK_ROWS]
            cols = []
            for name in rows.dtype.names:
                bits, inverse = np.unique(block[name].view(np.uint64), return_inverse=True)
                text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
                cols.append(text[inverse].tolist())
            fh.writelines(",".join(line) + "\r\n" for line in zip(*cols))


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
