"""Exact Gaussian sampling of the set-indexed fractional field.

The covariance of the field over box indices is

    Cov(X_U, X_V) = 0.5 * [ m(U)^{2H} + m(V)^{2H} - m(U (+) V)^{2H} ],

with m Lebesgue measure (``rects.measure``), (+) the symmetric difference,
H in (0, 1/2], and the convention 0^{2H} = 0.  At H = 1/2 this reduces to
m(U n V).  Ensembles are drawn through the Cholesky factor over the indices
of positive variance, so degenerate boxes get exactly-zero columns
(``cholesky``).

Stream contract (``draw_blocks``, shared with the moving-average draws of
``sifbm.intrep``): rows come in fixed blocks of STREAM_BLOCK, each with its
own SFC64 stream keyed (seed, block), and every block is a full-size matrix
product.  So output is bit-identical for any worker count, and the first n
rows of a draw are the same for every larger draw (prefix-stable).
``sifbm simulate`` streams the blocks to disk: its peak memory is a few blocks
plus the n_indices^2 covariance and factor, whatever n_samples is.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rects import Rect, corner_array, measure

# Jitter multipliers tried in order, scaled by max(diag).
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

# Rows per random stream and per matrix product.  Part of the stream
# contract: changing it changes every draw, so it is a constant and not a
# parameter.
STREAM_BLOCK = 256


class ResolutionError(ValueError):
    """Too few samples, too coarse a grid, or too small a Hurst parameter
    for the float range, for the computation asked of it."""


class NotPSDError(ValueError):
    """Covariance not positive semidefinite within the jitter budget."""


class MissingIndexError(KeyError):
    """An operation needed ensemble columns that are not present."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"missing index columns: {self.missing}")


@dataclass(frozen=True)
class HurstParam:
    """Self-similarity exponent H, restricted to (0, 1/2]."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (0.0 < v <= 0.5):
            raise ValueError(f"Hurst parameter must lie in (0, 1/2], got {v}")
        object.__setattr__(self, "value", v)

    @property
    def two_h(self) -> float:
        return 2.0 * self.value

    @property
    def is_half(self) -> bool:
        return self.value == 0.5


def covariance_from_measures(m_u, m_v, m_symdiff, h: HurstParam):
    """Covariance given the three measure values (0^{2H} := 0), over arrays
    that broadcast; a negative symmetric-difference round-off counts as 0."""
    p = h.two_h
    return 0.5 * (m_u**p + m_v**p - np.maximum(m_symdiff, 0.0) ** p)


@dataclass(frozen=True)
class CovMatrix:
    indices: tuple[Rect, ...]
    matrix: np.ndarray
    hurst: HurstParam

    def __post_init__(self):
        self.matrix.flags.writeable = False


def build_cov_matrix(indices, h: HurstParam) -> CovMatrix:
    """Dense symmetric covariance over an ordered index list, computed on the
    (n, N) corner array: m(U n V) is the ``rects.measure`` of the corner
    minimum of U and V."""
    indices = tuple(indices)
    if not indices:
        raise ValueError("index list must be non-empty")
    corners = corner_array(indices)
    meas = measure(corners)
    inter = measure(np.minimum(corners[:, None], corners[None]))
    # the diagonal's symmetric difference is exactly 0, so its entries are m^{2H}
    mat = covariance_from_measures(meas[:, None], meas, np.add.outer(meas, meas) - 2.0 * inter, h)
    return CovMatrix(indices, mat, h)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T = C + jitter*I on the indices of
    positive variance; the rows of zero-variance indices are 0, so their
    sampled columns are exactly 0."""

    indices: tuple[Rect, ...]
    lower: np.ndarray
    jitter: float
    hurst: HurstParam

    def __post_init__(self):
        self.lower.flags.writeable = False


def cholesky(c: CovMatrix) -> CholeskyFactor:
    """Factorize C over its indices of nonzero variance, escalating through
    JITTER_LADDER until that succeeds (a repeated index needs jitter) and
    recording the jitter.  A zero-variance index has zero covariance with
    every index, so the factor is exact without it; a negative variance fails."""
    mat = c.matrix
    diag = np.diag(mat)
    keep = np.flatnonzero(diag != 0.0)
    for mult in JITTER_LADDER:
        eps = mult * diag.max()
        try:
            part = np.linalg.cholesky(mat[np.ix_(keep, keep)] + eps * np.eye(keep.size))
        except np.linalg.LinAlgError:
            continue
        lower = np.zeros_like(mat)
        lower[np.ix_(keep, keep)] = part
        return CholeskyFactor(c.indices, lower, eps, c.hurst)
    raise NotPSDError(
        f"not PSD within jitter budget {JITTER_LADDER[-1]:g}*max(diag); "
        "the covariance is invalid"
    )


def columns(indices, rects) -> list[int]:
    """Column of each box of ``rects`` in an ensemble over ``indices``, in
    order; a repeated index reads its first column.  Raises
    MissingIndexError naming every absent box, sorted by corner."""
    pos = {u: i for i, u in reversed(list(enumerate(indices)))}
    missing = {r for r in rects if r not in pos}
    if missing:
        raise MissingIndexError(sorted(missing, key=lambda r: r.corner))
    return [pos[r] for r in rects]


@dataclass(frozen=True)
class SampleEnsemble:
    """n_samples independent draws of the field over a fixed index list."""

    indices: tuple[Rect, ...]
    samples: np.ndarray  # (n_samples, n_indices)
    hurst: HurstParam

    def __post_init__(self):
        self.samples.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def column(self, u: Rect) -> np.ndarray:
        return self.samples[:, columns(self.indices, [u])[0]]

    def row_blocks(self) -> Iterator[np.ndarray]:
        """The samples as views of at most STREAM_BLOCK rows, in order: the
        blocks ``storage.read_ensemble_blocks`` reads from a stored ensemble."""
        return (self.samples[i:i + STREAM_BLOCK] for i in range(0, self.n_samples, STREAM_BLOCK))


def draw_blocks(seed: int, n_rows: int, right: np.ndarray, jobs: int = 1) -> Iterator[np.ndarray]:
    """Rows z @ right, z standard normal, under the stream contract: blocks of
    at most STREAM_BLOCK rows in order.

    Each block draws a full STREAM_BLOCK x right.shape[0] normal matrix from
    its own stream and multiplies all of it, so the product runs the same
    BLAS kernel whatever n_rows is; a trailing partial block keeps its first
    rows.  Blocks run on ``jobs`` threads, at most ``jobs`` in flight."""
    if n_rows < 1:
        raise ValueError("n_samples must be >= 1")

    def draw(block: int) -> np.ndarray:
        stream = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,)))
        z = np.random.Generator(stream).standard_normal((STREAM_BLOCK, right.shape[0]))
        return (z @ right)[: n_rows - block * STREAM_BLOCK]

    def windowed():
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            window = [ex.submit(draw, block) for block in blocks[:jobs]]
            for block in blocks[jobs:]:
                yield window.pop(0).result()
                window.append(ex.submit(draw, block))
            yield from (future.result() for future in window)

    blocks = range(-(-n_rows // STREAM_BLOCK))
    return map(draw, blocks) if jobs == 1 else windowed()


def block_draw(seed: int, n_rows: int, right: np.ndarray, jobs: int = 1) -> np.ndarray:
    """All rows of ``draw_blocks`` in one array."""
    out = np.empty((n_rows, right.shape[1]))
    for block, rows in enumerate(draw_blocks(seed, n_rows, right, jobs)):
        out[block * STREAM_BLOCK:(block + 1) * STREAM_BLOCK] = rows
    return out


def ensemble_blocks(factor: CholeskyFactor, n_samples: int, seed: int, jobs: int = 1) -> Iterator[np.ndarray]:
    """The rows of ``sample_ensemble``, drawn block by block as they are read."""
    return draw_blocks(seed, n_samples, factor.lower.T.copy(), jobs)


def sample_ensemble(factor: CholeskyFactor, n_samples: int, seed: int, jobs: int = 1) -> SampleEnsemble:
    """Draw rows L @ z with z standard normal from the streams of ``seed``."""
    out = block_draw(seed, n_samples, factor.lower.T.copy(), jobs)
    return SampleEnsemble(factor.indices, out, factor.hurst)

