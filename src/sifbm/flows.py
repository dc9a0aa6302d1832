"""Discretized increasing set paths and the projection of sampled fields.

A flow is a chain of segments.  A segment is a grid of parameter values
with a box value at each point, nondecreasing under set inclusion, held as
the (points, N) array of the boxes' upper corners and a mask of the points
valued the empty set.  On segment i the flow's value is the segment's box
joined with the final boxes of all earlier segments, so its values live
among finite unions of boxes; a flow of one segment is an elementary flow,
whose values are boxes.  The time change of a flow is the measure of its
value at each grid point; projecting an exact field ensemble onto an
elementary flow yields, in law, a one-parameter fractional Brownian motion
evaluated at that time change.

Every value along a flow is a fixed signed combination of box values, its
inclusion-exclusion expansion (``rects.signed_terms``), so a flow reads the
field through one weight matrix A_f (``flow_weights``): the projection of an
ensemble is X_B A_f, with X_B its columns at the flow's boxes (a sorted
corner array, looked up with ``gaussian.columns``), and every
second moment along the flow is a quadratic form in A_f.  The same expansion
gives the time change, each value's measure as the signed sum of its terms'.
A flow is expanded once, on first use, in one batched pass over its points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gaussian import HurstParam, SampleEnsemble, build_cov_matrix, columns, increments
from .rects import DimensionMismatchError, distinct_rows, measure, signed_terms

DEFAULT_FLOW_POINTS = 64


class FlowMonotonicityError(ValueError):
    """Flow values must be nondecreasing under set inclusion along the grid."""


class Segment(NamedTuple):
    """One elementary piece of a flow: a strictly increasing ``grid``, the
    (points, N) upper ``corners`` of its box values, and ``empty``, True
    where the value is the empty set, whose corner row is 0."""

    grid: np.ndarray
    corners: np.ndarray
    empty: np.ndarray


@dataclass(frozen=True, eq=False)
class Flow:
    """Segments chained end to start; at a shared breakpoint the later
    segment's value holds.  A segment valued the empty set throughout takes
    the dimension of the others."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a flow needs at least one segment")
        for prev, nxt in zip(self.segments[:-1], self.segments[1:]):
            if prev.grid[-1] != nxt.grid[0]:
                raise ValueError(f"segment grids must chain: {prev.grid[-1]} != {nxt.grid[0]}")
        dims = {s.corners.shape[1] for s in self.segments if not s.empty.all()}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")
        dim = dims.pop() if dims else 1
        segments = tuple(
            s if s.corners.shape[1] == dim else s._replace(corners=np.zeros((len(s.grid), dim)))
            for s in self.segments
        )
        for array in (a for s in segments for a in s):
            array.flags.writeable = False
        object.__setattr__(self, "segments", segments)

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray, TimeChange]:
        # the union at each point: its own box and the earlier segments' ends
        grids, corner_arrays, empties = zip(*self.segments)
        size = [len(g) - 1 for g in grids[:-1]] + [len(grids[-1])]
        grid, corners, empty = (
            np.concatenate([a[:k] for a, k in zip(arrays, size)]) for arrays in (grids, corner_arrays, empties)
        )
        ends, ended = (np.array([a[-1] for a in arrays])[:-1] for arrays in (corner_arrays, empties))
        earlier = np.arange(len(ends)) < np.repeat(np.arange(len(size)), size)[:, None]
        unions = np.concatenate([corners[:, None], ends[None].repeat(len(grid), axis=0)], axis=1)
        return _expand(grid, unions, np.concatenate([~empty[:, None], earlier & ~ended], axis=1))


def canonical_unions(unions, present) -> list[tuple[np.ndarray, np.ndarray]]:
    """The union of the boxes ``unions[p]`` where ``present[p]``, for each p
    of a (P, m, N) corner array, in canonical form: its parts once, none
    inside another, sorted by corner.  Returns (rows, parts) for each part
    count k > 0 that occurs, k rising: the rows p whose union has k parts
    and the (len(rows), k, N) stack of their parts."""
    m, dim = unions.shape[1:]
    # drop a part inside another, or equal to an earlier one
    inside = np.all(unions[:, :, None] <= unions[:, None], axis=3) & present[:, None]
    same = inside & inside.transpose(0, 2, 1)
    keep = present & ~np.any(inside & (~same | np.tri(m, k=-1, dtype=bool)), axis=2)
    counts = keep.sum(axis=1)
    out = []
    for k in sorted(set(counts.tolist()) - {0}):
        rows = np.flatnonzero(counts == k)
        parts = unions[rows][keep[rows]].reshape(len(rows), k, dim)
        if k > 1:
            order = np.lexsort(np.moveaxis(parts[..., ::-1], -1, 0), axis=-1)
            parts = np.take_along_axis(parts, order[..., None], axis=1)
        out.append((rows, parts))
    return out


def _expand(grid, unions, present) -> tuple[np.ndarray, np.ndarray, TimeChange]:
    """A flow's boxes, weights and time change from the union at each grid
    point (``canonical_unions``, whose order of parts fixes the round-off of
    its measure): the unions of k parts expand together (``signed_terms``),
    each point's terms in ``signed_terms`` order."""
    signs, corners, point = [np.zeros(0)], [np.zeros((0, unions.shape[2]))], [np.zeros(0, int)]
    for rows, parts in canonical_unions(unions, present):
        s, c = signed_terms(parts)
        signs.append(np.repeat(s[None], len(rows), axis=0).ravel())
        corners.append(c.reshape(-1, c.shape[-1]))
        point.append(np.repeat(rows, len(s)))
    signs, corners, point = map(np.concatenate, (signs, corners, point))
    # the distinct boxes sorted by corner, and the row of each term's box
    first, row = distinct_rows(corners)
    distinct = corners[first]
    weights = np.zeros((len(distinct), grid.size))
    np.add.at(weights, (row, point), signs)
    weights.flags.writeable = distinct.flags.writeable = False
    # bincount adds each point's signed term measures one after another from
    # 0, so the round-off is that of the scalar sum; then clipped at 0
    total = np.bincount(point, weights=signs * measure(corners), minlength=grid.size)
    return distinct, weights, TimeChange(grid, np.maximum(total, 0.0))


@dataclass(frozen=True, eq=False)
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


def make_elementary_flow(grid, corner_path) -> Flow:
    """Validate and build an elementary flow, a flow of one segment.

    ``corner_path`` is a sequence of box values: corner rows, or None for
    the empty set (allowed only as a prefix, since the values must be
    nondecreasing under inclusion).  Coordinates must be finite and >= 0;
    -0.0 reads as 0.0.
    """
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    if not np.all(np.diff(grid) > 0):
        i = int(np.flatnonzero(np.diff(grid) <= 0)[0])
        raise ValueError(f"grid not strictly increasing at ({grid[i]}, {grid[i+1]})")
    if len(corner_path) != grid.size:
        raise ValueError("corner_path length must match grid length")
    empty = np.array([v is None for v in corner_path])
    dim = next((len(v) for v in corner_path if v is not None), 1)
    # the empty set as the zero corner; -0.0 read as 0.0
    corners = np.array([(0.0,) * dim if v is None else v for v in corner_path], dtype=float) + 0.0
    ok = np.isfinite(corners) & (corners >= 0.0)
    if not ok.all():
        raise ValueError(f"corner coordinates must be finite and >= 0, got {corners[~ok][0]}")
    # each box lies in the next; the empty set lies in every box, and only
    # the empty set in the empty set
    outside = np.any(corners[:-1] > corners[1:], axis=1) | (empty[1:] & ~empty[:-1])
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        raise FlowMonotonicityError(
            f"flow not increasing between grid points "
            f"({grid[i]}, {grid[i+1]}): the box {corners[i].tolist()} is not contained "
            f"in {'the empty set' if empty[i + 1] else corners[i + 1].tolist()}"
        )
    return Flow((Segment(grid, corners, empty),))


def time_change(f: Flow) -> TimeChange:
    """Measure of the flow value at each grid point, built once per flow: a
    box's measure, and a union's the signed measures of its terms added
    (``_expand``)."""
    return f._expansion[2]


def flows_through(corner, points: int = DEFAULT_FLOW_POINTS) -> Flow:
    """Canonical elementary flow reaching the box with upper corner
    ``corner`` at parameter 1: linear corner interpolation from the
    degenerate origin box, f(t) = [0, t*corner]."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    grid = np.linspace(0.0, 1.0, points)
    corners = grid[:, None] * np.asarray(corner, dtype=float)
    corners[-1] = corner  # exact endpoint
    return Flow((Segment(grid, corners, np.zeros(points, dtype=bool)),))


def flow_weights(f: Flow) -> tuple[np.ndarray, np.ndarray]:
    """The boxes a flow reads, each once, as a read-only corner array sorted
    by corner, and its read-only weight matrix A (one row per box, one
    column per grid point), built once per flow: the field along the flow is
    X_B A.  Each column holds the inclusion-exclusion signs of the union at
    its point (``signed_terms``): one +1 for a box, none for the empty set."""
    return f._expansion[:2]


def predicted_increment_moment(f: Flow, h: HurstParam) -> np.ndarray:
    """E[(X^f_t - X^f_s)^2] for the exact field, over all grid pairs.

    Elementary flows (one segment) obey the time-changed power law
    |theta_t - theta_s|^{2H}.  Flows of several segments take values among finite unions,
    where the field is the additive inclusion-exclusion combination of box
    values; their second moments are A^T C_B A, which deviates from the power
    law exactly where the branches interact, so it is the correct prediction
    to test against.
    """
    if len(f.segments) == 1:
        th = time_change(f).values
        return np.abs(th[:, None] - th[None, :]) ** h.two_h
    boxes, a = flow_weights(f)
    return increments(a.T @ build_cov_matrix(boxes, h) @ a)


def project(e: SampleEnsemble, f: Flow) -> np.ndarray:
    """Each sample of the field along the flow, (n_samples, n_points): the
    one product X_B A.  Every box the flow reads, intersections of
    accumulated union parts included, must be an ensemble column."""
    boxes, a = flow_weights(f)
    return e.samples[:, columns(e.indices, boxes)] @ a
