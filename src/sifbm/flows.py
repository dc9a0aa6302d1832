"""Discretized increasing set paths and the projection of sampled fields.

An elementary flow is a grid of parameter values with a box value at each
point, nondecreasing under set inclusion.  A simple flow chains elementary
segments, accumulating the union of earlier segment endpoints, so its values
live among finite unions of boxes.  The time change of a flow is the measure
of its value at each grid point; projecting an exact field ensemble onto a
flow yields, in law, a one-parameter fractional Brownian motion evaluated at
that time change.

Every value along a flow is a fixed signed combination of box values, so a
flow reads the field through one weight matrix A_f (``flow_weights``): the
projection of an ensemble is X_B A_f, with X_B its columns at the flow's
boxes, and every second moment along the flow is a quadratic form in A_f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import STREAM_BLOCK, HurstParam, SampleEnsemble, build_cov_matrix
from .rects import EMPTY, Rect, RectUnion, rect_contains, rect_measure, signed_terms, union_measure

DEFAULT_FLOW_POINTS = 64


class FlowMonotonicityError(ValueError):
    """Flow values must be nondecreasing under set inclusion along the grid."""


@dataclass(frozen=True)
class ElementaryFlow:
    grid: np.ndarray            # strictly increasing parameter values
    values: tuple[Rect, ...]    # one box (possibly empty) per grid point

    def __post_init__(self):
        self.grid.flags.writeable = False

    @cached_property
    def _weights(self) -> tuple[tuple[Rect, ...], np.ndarray]:
        return _signed_weights([() if v.is_empty else (v,) for v in self.values])


@dataclass(frozen=True)
class SimpleFlow:
    """Piecewise-elementary flow; on segment i the value is the current
    segment's box joined with the final boxes of all earlier segments."""

    segments: tuple[ElementaryFlow, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("simple flow needs at least one segment")
        for prev, nxt in zip(self.segments[:-1], self.segments[1:]):
            if prev.grid[-1] != nxt.grid[0]:
                raise ValueError(f"segment grids must chain: {prev.grid[-1]} != {nxt.grid[0]}")

    def grid_and_values(self) -> tuple[np.ndarray, tuple[RectUnion, ...]]:
        """Merged grid, read-only and built once per flow, with one accumulated
        union per point (shared breakpoints appear once, valued by the later segment)."""
        return self._merged

    @cached_property
    def _merged(self) -> tuple[np.ndarray, tuple[RectUnion, ...]]:
        grid: list[float] = []
        values: list[RectUnion] = []
        for i, seg in enumerate(self.segments):
            if grid:  # the previous segment's end point is this one's start
                del grid[-1], values[-1]
            ends = [s.values[-1] for s in self.segments[:i]]
            grid += seg.grid.tolist()
            values += [RectUnion((v, *ends)) for v in seg.values]
        grid_array = np.asarray(grid)
        grid_array.flags.writeable = False
        return grid_array, tuple(values)

    @cached_property
    def _weights(self) -> tuple[tuple[Rect, ...], np.ndarray]:
        return _signed_weights([v.parts for v in self._merged[1]])


Flow = ElementaryFlow | SimpleFlow


@dataclass(frozen=True)
class TimeChange:
    """theta(t) = m(f(t)) along a flow's grid; always nondecreasing.

    Backsteps below 1e-12 relative (inclusion-exclusion roundoff) are snapped
    up to the running maximum so the nondecreasing contract is exact.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size and vals[0] < 0:
            raise ValueError("time change must be non-negative")
        scale = float(vals.max()) if vals.size else 0.0
        out = np.maximum.accumulate(vals)
        drops = np.flatnonzero(out[:-1] - vals[1:] > 1e-12 * max(scale, 1.0))
        if drops.size:
            i = int(drops[0]) + 1
            raise ValueError(
                f"time change decreases at grid point {i}: {out[i - 1]} -> {vals[i]}"
            )
        object.__setattr__(self, "values", out)
        self.grid.flags.writeable = False
        self.values.flags.writeable = False


def make_elementary_flow(grid, corner_path) -> ElementaryFlow:
    """Validate and build an elementary flow.

    ``corner_path`` is a sequence of box values: corner tuples, Rects, or
    None/empty for the empty set (allowed only as a prefix, since the values
    must be nondecreasing under inclusion).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    if not np.all(np.diff(grid) > 0):
        i = int(np.flatnonzero(np.diff(grid) <= 0)[0])
        raise ValueError(f"grid not strictly increasing at ({grid[i]}, {grid[i+1]})")
    values = []
    for v in corner_path:
        if v is None:
            values.append(EMPTY)
        elif isinstance(v, Rect):
            values.append(v)
        else:
            values.append(Rect(tuple(v)))
    if len(values) != grid.size:
        raise ValueError("corner_path length must match grid length")
    for i in range(len(values) - 1):
        if not rect_contains(values[i + 1], values[i]):
            raise FlowMonotonicityError(
                f"flow not increasing between grid points "
                f"({grid[i]}, {grid[i+1]}): {values[i]!r} is not contained "
                f"in {values[i+1]!r}"
            )
    return ElementaryFlow(grid, tuple(values))


def time_change(f: Flow) -> TimeChange:
    """Measure of the flow value at each grid point."""
    if isinstance(f, ElementaryFlow):
        return TimeChange(f.grid, np.array([rect_measure(v) for v in f.values]))
    grid, values = f.grid_and_values()
    return TimeChange(grid, np.array([union_measure(v) for v in values]))


def flows_through(u: Rect, points: int = DEFAULT_FLOW_POINTS) -> ElementaryFlow:
    """Canonical elementary flow reaching u at parameter 1: linear corner
    interpolation from the degenerate origin box, f(t) = [0, t*corner]."""
    if u.is_empty:
        raise ValueError("cannot build a flow through the empty set")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    grid = np.linspace(0.0, 1.0, points)
    corner = np.asarray(u.corner)
    values = [Rect(tuple(t * corner)) for t in grid]
    values[-1] = u  # exact endpoint
    return ElementaryFlow(grid, tuple(values))


def flow_weights(f: Flow) -> tuple[tuple[Rect, ...], np.ndarray]:
    """The boxes a flow reads, sorted by corner, and its read-only weight
    matrix A (one row per box, one column per grid point), built once per
    flow: the field along the flow is X_B A.  An elementary flow puts one +1
    per non-empty value; a simple flow takes the inclusion-exclusion signs
    of each accumulated union (``signed_terms``)."""
    return f._weights


def _signed_weights(parts_per_point) -> tuple[tuple[Rect, ...], np.ndarray]:
    expansions = [signed_terms(parts) for parts in parts_per_point]
    boxes = sorted({b for ex in expansions for _, b in ex}, key=lambda r: r.corner)
    pos = {b: i for i, b in enumerate(boxes)}
    weights = np.zeros((len(boxes), len(expansions)))
    for j, ex in enumerate(expansions):
        for sign, b in ex:
            weights[pos[b], j] += sign
    weights.flags.writeable = False
    return tuple(boxes), weights


def predicted_increment_moment(f: Flow, h: HurstParam) -> np.ndarray:
    """E[(X^f_t - X^f_s)^2] for the exact field, over all grid pairs.

    Elementary flows obey the time-changed power law
    |theta_t - theta_s|^{2H}.  Simple flows take values among finite unions,
    where the field is the additive inclusion-exclusion combination of box
    values; their second moments are A^T C_B A, which deviates from the power
    law exactly where the branches interact, so it is the correct prediction
    to test against.
    """
    if isinstance(f, ElementaryFlow):
        th = time_change(f).values
        return np.abs(th[:, None] - th[None, :]) ** h.two_h
    boxes, a = flow_weights(f)
    second = a.T @ build_cov_matrix(boxes, h).matrix @ a
    d = np.diag(second)
    return np.maximum(d[:, None] + d[None, :] - 2.0 * second, 0.0)


def project(e: SampleEnsemble, f: Flow) -> np.ndarray:
    """Each sample of the field along the flow, (n_samples, n_points): X_B A.

    Every box the flow reads, intersections of accumulated union parts
    included, must be an ensemble column.  The product runs one
    STREAM_BLOCK-row block at a time, as ``stats.flow_statistics`` runs it on
    a stream of blocks, so the two give the same bits whatever kernel the
    BLAS picks for a block's shape."""
    boxes, a = flow_weights(f)
    cols = e.positions(boxes)
    out = np.empty((e.n_samples, a.shape[1]))
    for start in range(0, e.n_samples, STREAM_BLOCK):
        out[start:start + STREAM_BLOCK] = block_paths(e.samples[start:start + STREAM_BLOCK], cols, a)
    return out


def block_paths(rows: np.ndarray, cols: list[int], a: np.ndarray) -> np.ndarray:
    """The field along a flow in one row block, rows[:, cols] @ A, with
    ``cols`` the ensemble columns of the flow's boxes and A its weights: the
    one product ``project`` and ``stats.flow_statistics`` form."""
    return rows[:, cols] @ a
