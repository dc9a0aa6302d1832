"""Rectangle index family: origin-anchored boxes in R^N_+, their finite unions,
the grid cells their corners cut, and their Lebesgue measure.

A box [0, t] is named by its upper corner t.  ``Rect`` is a box's hashable
identity (config, ensemble columns, JSON); every computation runs on (n, N)
arrays of corners, which ``corner_array`` builds from Rects.  ``measure`` is
the measure of a box, and ``signed_terms`` the one inclusion-exclusion
engine: a finite union, or a grid cell, is a signed sum of boxes whose
corners are the minima of subsets of its parts' corners.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Exact subset enumeration is 2^k; beyond this the family is refused rather
# than silently approximated.
MAX_UNION_PARTS = 20


class DimensionMismatchError(ValueError):
    """Raised when two index sets live in incompatible coordinate spaces."""


@dataclass(frozen=True)
class Rect:
    """A compact box [0, t] in R^N_+, identified by its upper corner t.

    ``corner is None`` encodes the empty set, which is compatible with any
    dimension.  A corner with some zero coordinates is a valid degenerate
    index of measure zero, distinct from the empty set.
    """

    corner: tuple[float, ...] | None

    def __post_init__(self):
        if self.corner is None:
            return
        cleaned = []
        for c in self.corner:
            c = float(c)
            if not math.isfinite(c) or c < 0.0:
                raise ValueError(f"corner coordinates must be finite and >= 0, got {c}")
            cleaned.append(c + 0.0)  # normalize -0.0
        object.__setattr__(self, "corner", tuple(cleaned))

    @property
    def is_empty(self) -> bool:
        return self.corner is None

    @property
    def dim(self) -> int | None:
        return None if self.corner is None else len(self.corner)

    def __repr__(self):
        if self.corner is None:
            return "Rect(empty)"
        return f"Rect({list(self.corner)})"


EMPTY = Rect(None)


def rect(*coords: float) -> Rect:
    """Shorthand constructor: rect(2, 0.5) == Rect((2.0, 0.5))."""
    return Rect(tuple(coords))


def measure(corners) -> np.ndarray:
    """Lebesgue measure of each box [0, t] of an (..., N) array of upper
    corners t: the product of the coordinates over the last axis, multiplied
    in axis order.  The one place the measure of a box is written down.  A
    product that leaves the float range is inf, or nan if a 0 follows, with
    no warning: the config tests for it and refuses such boxes."""
    corners = np.asarray(corners, dtype=float)
    out = np.ones(corners.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for c in np.moveaxis(corners, -1, 0):
            out = out * c
    return out


def corner_array(rects: Sequence[Rect]) -> np.ndarray:
    """(n, N) array of upper corners, the empty set as the zero corner (it
    has measure 0, as does its intersection with every box).  Mixed
    dimensions raise; an all-empty list gives width 1."""
    dims = {r.dim for r in rects if not r.is_empty}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")
    out = np.zeros((len(rects), dims.pop() if dims else 1))
    for i, r in enumerate(rects):
        if not r.is_empty:
            out[i] = r.corner
    return out


def signed_terms(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusion-exclusion expansion of the union of the boxes ``parts``, a
    (..., k, N) corner array, a stack of unions of k parts each: (signs,
    corners) with one term per non-empty subset S of the parts, sign
    (-1)^{|S|+1} and corner the minimum of S's corners (the corner of its
    intersection), in ``itertools.combinations`` order (all singletons, then
    all pairs, ...).  ``signs`` has one entry per term, shared by every union
    of the stack, and ``corners`` is (..., terms, N).  No parts, no terms.

    The one place subsets are enumerated: exact, capped at MAX_UNION_PARTS
    parts.
    """
    *stack, k, dim = parts.shape
    if k > MAX_UNION_PARTS:
        raise ValueError(f"inclusion-exclusion capped at {MAX_UNION_PARTS} parts, got {k}")
    signs, corners = [], [np.zeros((*stack, 0, dim))]
    for size in range(1, k + 1):
        subsets = np.array(list(itertools.combinations(range(k), size)))
        corners.append(parts[..., subsets, :].min(axis=-2))
        signs += [1.0 if size % 2 == 1 else -1.0] * len(subsets)
    return np.array(signs), np.concatenate(corners, axis=-2)


# ---------------------------------------------------------------------------
# Grid cells: the atoms a measure on boxes is tested on.
#
# The corner coordinates of a box family, with 0, cut each axis into
# intervals, and a grid cell is a product of such intervals: the half-open
# box (lower, upper], which is [0, upper] minus the N boxes just below it, one
# per axis.  Inclusion-exclusion writes its indicator as a signed sum over its
# 2^N corner boxes, which take the lower or the upper coordinate on each axis,
# so a function on boxes extends to a measure only if that signed sum of its
# values is non-negative on every cell.
# ---------------------------------------------------------------------------


def grid_lower(corners: np.ndarray) -> np.ndarray:
    """Lower corner of the grid cell below each row of ``corners``, an
    (n, N) array: on each axis, the largest coordinate of ``corners``, or 0,
    below the row's own; 0 where the row's own is 0."""
    lower = np.zeros_like(corners)
    for i, col in enumerate(corners.T):
        edges = np.unique(np.append(col, 0.0))
        lower[:, i] = edges[np.maximum(np.searchsorted(edges, col) - 1, 0)]
    return lower


def cell_corners(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, lowered) with 1_(lower, upper] = sum_k signs[k] 1_[0, c_k],
    where corner box c_k takes the lower coordinate on the axes
    ``lowered[k]`` and the upper one elsewhere: [0, upper] with sign +1, then
    the ``signed_terms`` of the N boxes just below it with the opposite
    sign.  Capped, as ``signed_terms`` is, at MAX_UNION_PARTS axes."""
    signs, corners = signed_terms(1.0 - np.eye(dim))
    return np.append(1.0, -signs), np.vstack([np.ones(dim), corners]) == 0.0
