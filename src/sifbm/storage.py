"""Artifact formats: binary ensemble, profile CSV, JSON reports.

The binary ensemble format is magic bytes "SIFB", one version byte, two
little-endian uint64 counts (rows, columns), then row-major little-endian
float64 samples.  ``write_ensemble_binary`` writes it block by block as the
draw arrives, so ``sifbm simulate`` never holds the whole ensemble, and
``read_ensemble_blocks`` reads it back the same way: it is the one reader,
behind ``StoredEnsemble``, through which every command reads the ensemble.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaussian import STREAM_BLOCK, HurstParam
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
    replaces ``path`` after the last block; blocks that miss ``shape``, and rows
    without columns, raise."""
    rows, cols = shape
    if cols == 0 and rows > 0:
        raise ValueError(f"{path}: {rows} rows of 0 columns")
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


def _check_header(fh, path, shape=(None, None)) -> tuple[int, int]:
    """Read and check the header of the SIFB file open as ``fh``: magic,
    version, a payload size that fits it, so no array is allocated before
    the file is known to hold it, and no rows without columns, so reading
    never walks empty blocks; then the (rows, columns) ``shape`` expected,
    where given.  Returns (rows, columns); any mismatch raises
    ``ArtifactError``."""
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
        raise ArtifactError(f"{path}: truncated payload, {payload} bytes for {rows} x {cols} doubles")
    if cols == 0 and rows > 0:
        raise ArtifactError(f"{path}: {rows} rows of 0 columns")
    want_rows, want_cols = shape
    if want_cols is not None and cols != want_cols:
        raise ArtifactError(
            f"{path}: ensemble has {cols} columns but the configuration builds "
            f"{want_cols} indices; config and artifact disagree"
        )
    if want_rows is not None and rows != want_rows:
        raise ArtifactError(
            f"{path}: ensemble has {rows} rows but the configuration's n_samples is "
            f"{want_rows}; config and artifact disagree"
        )
    return rows, cols


def read_ensemble_blocks(path, shape=(None, None)) -> Iterator[np.ndarray]:
    """The rows of a SIFB ensemble in order, as read-only, aligned float64
    blocks of at most STREAM_BLOCK rows, read as they are consumed: the whole
    matrix is never held.  The header is checked, against the (rows,
    columns) ``shape`` where given, when the first block is asked for; any
    malformed input raises ``ArtifactError``."""
    with open(path, "rb") as fh:
        rows, cols = _check_header(fh, path, shape)
        for start in range(0, rows, STREAM_BLOCK):
            block = np.empty((min(STREAM_BLOCK, rows - start), cols), "<f8")
            got = fh.readinto(block)
            if got != block.nbytes:
                raise ArtifactError(f"{path}: truncated payload, {got} bytes for {len(block)} x {cols} doubles")
            block.flags.writeable = False
            yield block


@dataclass(frozen=True)
class StoredEnsemble:
    """A SIFB ensemble on disk with the reading side of ``SampleEnsemble``:
    ``row_blocks`` reads the file anew on each call, checking that it holds
    ``n_samples`` rows of one column per index."""

    path: Path
    indices: tuple[Rect, ...]
    hurst: HurstParam
    n_samples: int

    def row_blocks(self) -> Iterator[np.ndarray]:
        return read_ensemble_blocks(self.path, (self.n_samples, len(self.indices)))


def write_profile_csv(profile: VarianceProfile, path):
    """A header line, then one line per grid pair: s, t, theta_s, theta_t,
    predicted and observed, each the ``repr`` of its float, so values
    round-trip, and CRLF line ends: the bytes the csv module writes, as no
    field holds a comma or a quote.  Each grid and time-change value is
    formatted once, and each pair's moments once, in blocks of
    ``PROFILE_BLOCK_ROWS`` pairs."""
    tc = profile.time_change
    grid, theta = ([repr(x) for x in v.tolist()] for v in (tc.grid, tc.values))
    cols = (*profile.rows.T, profile.predicted, profile.observed)
    with open(path, "w", newline="") as fh:
        fh.write("s,t,theta_s,theta_t,predicted,observed\r\n")
        for start in range(0, len(profile.observed), PROFILE_BLOCK_ROWS):
            block = (c[start:start + PROFILE_BLOCK_ROWS].tolist() for c in cols)
            fh.write("".join(
                f"{grid[i]},{grid[j]},{theta[i]},{theta[j]},{p!r},{o!r}\r\n" for i, j, p, o in zip(*block)
            ))


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
