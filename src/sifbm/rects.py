"""Rectangle index family: origin-anchored boxes in R^N_+, their finite unions,
the grid cells their corners cut, and their Lebesgue measure.

A box [0, t] is named by its upper corner t, and a family of boxes is an
(n, N) array of corners, one box per row; every computation runs on such
arrays.  ``distinct_rows`` sorts a family by corner and finds its repeats,
and ``find_rows`` is the one search for boxes among a family's rows.
``measure`` is the measure of a box, and ``signed_terms`` the one
inclusion-exclusion engine: a finite union, or a grid cell, is a signed sum
of boxes whose corners are the minima of subsets of its parts' corners.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Exact subset enumeration is 2^k; beyond this the family is refused rather
# than silently approximated.
MAX_UNION_PARTS = 20


class DimensionMismatchError(ValueError):
    """Raised when two index sets live in incompatible coordinate spaces."""


@dataclass(frozen=True)
class Rect:
    """A box [0, t] as an object with its upper corner t, a tuple of floats:
    what ``ExperimentConfig.ensemble_indices`` returns, for readers that take
    ``.corner``.  The program itself holds boxes as corner rows."""

    corner: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "corner", tuple(map(float, self.corner)))


def rect(*coords: float) -> tuple[float, ...]:
    """Shorthand for a box's corner row: rect(2, 0.5) == (2.0, 0.5)."""
    return tuple(map(float, coords))


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


def distinct_rows(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) of an (n, N) corner array: ``first`` the row of each
    distinct box's first occurrence, the boxes sorted by corner, and
    ``group`` the position in ``first`` of each row's box.  Rows compare by
    value, so -0.0 equals 0.0.  ``corners[first]`` is what np.unique(axis=0)
    returns, at a fraction of its cost and without loading numpy.ma."""
    order = np.lexsort(corners.T[::-1])
    ordered = corners[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group = np.empty(len(order), int)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def find_rows(rows, boxes) -> np.ndarray:
    """Row of ``rows``, an (n, N) corner array in any order, that holds each
    box of ``boxes``, an (m, N) one: its first match, or -1 where none
    does.  The one search for boxes: the stable sort of ``distinct_rows``
    puts each box's first row in ``rows`` ahead of every other copy."""
    first, group = distinct_rows(np.concatenate([rows, boxes]))
    return np.where(first < len(rows), first, -1)[group[len(rows):]]


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
        # the sorted column needs no dedupe: the first of equal values is found
        edges = np.sort(np.append(col, 0.0))
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
