"""Exact Gaussian sampling of the set-indexed fractional field.

The covariance of the field over box indices is

    Cov(X_U, X_V) = 0.5 * [ m(U)^{2H} + m(V)^{2H} - m(U (+) V)^{2H} ],

with m Lebesgue measure (``rects.measure``), (+) the symmetric difference,
H in (0, 1/2], and the convention 0^{2H} = 0.  At H = 1/2 this reduces to
m(U n V).  Every Gaussian draw of the package, the ensembles here and the
moving-average laws of ``sifbm.intrep``, goes through one factor:
``cholesky`` of a plain covariance array over its indices of positive
variance, so degenerate boxes get exactly-zero columns.  An ensemble's
indices are the rows of an (n, N) corner array, one box per column, and
``columns`` finds boxes among them with the one row search,
``rects.find_rows``.

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

from .rects import distinct_rows, find_rows, measure

# Jitter multipliers tried in order, each scaling every positive variance.
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
    """An operation needed ensemble columns that are not present:
    ``missing`` lists their corners, each once, sorted."""

    def __init__(self, missing: np.ndarray):
        self.missing = [tuple(c) for c in missing[distinct_rows(missing)[0]].tolist()]
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


def increments(m: np.ndarray) -> np.ndarray:
    """m_ss + m_tt - 2 m_st for every pair (s, t), clipped at 0: the increment
    moments E[(X_t - X_s)^2] of a second-moment matrix, and the symmetric
    difference measures of an intersection-measure matrix."""
    d = np.diag(m)
    return np.maximum(d[:, None] + d[None, :] - 2.0 * m, 0.0)


def build_cov_matrix(corners, h: HurstParam) -> np.ndarray:
    """Dense symmetric covariance over the boxes of an (n, N) corner array,
    in order, read-only: m(U n V) is the ``rects.measure`` of the corner
    minimum of U and V, and m(U (+) V) its ``increments``."""
    corners = np.asarray(corners, dtype=float)
    if not len(corners):
        raise ValueError("index list must be non-empty")
    inter = measure(np.minimum(corners[:, None], corners[None]))
    meas = np.diag(inter)
    # the diagonal's symmetric difference is exactly 0, so its entries are m^{2H}
    mat = covariance_from_measures(meas[:, None], meas, increments(inter), h)
    mat.flags.writeable = False
    return mat


def cholesky(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """(L, jitter): the lower-triangular factor of a covariance over its
    indices of nonzero variance, L L^T = C + jitter * diag(C) there, with the
    zero-variance indices' rows 0 (their covariances are all 0, so nothing is
    lost); jitter is the first multiplier of JITTER_LADDER that factors, 0
    (the exact law, factored as C itself) unless C is singular there, as for
    a repeated index.  A step above 0 factors the correlation matrix
    D^-1/2 C D^-1/2 + jitter * I and scales its rows by sqrt(d), so the
    jitter cannot underflow, and no index's scale matters."""
    diag = np.diag(cov)
    keep = np.flatnonzero(diag != 0.0)
    block = cov[np.ix_(keep, keep)]
    for jitter in JITTER_LADDER:
        try:
            if jitter == 0.0:
                part = np.linalg.cholesky(block)
            else:
                # a negative variance reads -1 in the correlation matrix, which fails
                sd = np.sqrt(np.abs(diag[keep]))
                part = sd[:, None] * np.linalg.cholesky(block / sd[:, None] / sd + jitter * np.eye(keep.size))
        except np.linalg.LinAlgError:
            continue
        lower = np.zeros(cov.shape)
        lower[np.ix_(keep, keep)] = part
        return lower, jitter
    raise NotPSDError(
        f"not PSD within jitter budget {JITTER_LADDER[-1]:g}*diag; "
        "the covariance is invalid"
    )


def columns(indices: np.ndarray, boxes) -> np.ndarray:
    """Column of each box of ``boxes``, an (m, N) corner array, in an
    ensemble over ``indices``, in order (``rects.find_rows``); a repeated
    index reads its first column.  Raises MissingIndexError naming every
    absent box.  No boxes, as of a flow valued the empty set throughout,
    read no columns, whatever their width."""
    boxes = np.asarray(boxes, dtype=float)
    col = find_rows(indices, boxes) if len(boxes) else np.zeros(0, int)
    if np.any(col < 0):
        raise MissingIndexError(boxes[col < 0])
    return col


@dataclass(frozen=True, eq=False)
class SampleEnsemble:
    """n_samples independent draws of the field over a fixed index list,
    the (n_indices, N) corner array ``indices``."""

    indices: np.ndarray
    samples: np.ndarray  # (n_samples, n_indices)
    hurst: HurstParam

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=float))
        self.indices.flags.writeable = self.samples.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def column(self, corner) -> np.ndarray:
        return self.samples[:, columns(self.indices, [corner])[0]]

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


def sample_ensemble(indices, h: HurstParam, n_samples: int, seed: int, jobs: int = 1) -> SampleEnsemble:
    """n_samples draws of the field over the boxes of the corner array
    ``indices`` from the streams of ``seed``: rows z @ L^T, L the
    ``cholesky`` factor of the covariance, the rows ``sifbm simulate`` writes
    for the same fields."""
    lower, _ = cholesky(build_cov_matrix(indices, h))
    return SampleEnsemble(indices, block_draw(seed, n_samples, lower.T.copy(), jobs), h)
