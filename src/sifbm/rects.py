"""Rectangle index family: origin-anchored boxes in R^N_+, their finite unions,
the grid cells their corners cut, and their Lebesgue measure.

Every set handled here is a finite boolean combination of boxes [0, t].  All
measure queries reduce to inclusion-exclusion over corner minima.
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


def _check_same_dim(a: Rect, b: Rect):
    if a.is_empty or b.is_empty:
        return
    if len(a.corner) != len(b.corner):
        raise DimensionMismatchError(
            f"rectangles live in R^{len(a.corner)} and R^{len(b.corner)}"
        )


def rect_measure(r: Rect) -> float:
    """Lebesgue measure of [0, t]: the product of the corner coordinates."""
    if r.is_empty:
        return 0.0
    out = 1.0
    for c in r.corner:
        out *= c
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


def rect_intersection(a: Rect, b: Rect) -> Rect:
    """Componentwise minimum of corners; empty if either operand is empty."""
    if a.is_empty or b.is_empty:
        return EMPTY
    _check_same_dim(a, b)
    return Rect(tuple(min(x, y) for x, y in zip(a.corner, b.corner)))


def rect_contains(outer: Rect, inner: Rect) -> bool:
    """Set containment inner <= outer (empty set is contained in everything)."""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    _check_same_dim(outer, inner)
    return all(i <= o for i, o in zip(inner.corner, outer.corner))


@dataclass(frozen=True)
class RectUnion:
    """A finite union of boxes, stored in canonical form: empty parts and
    parts contained in another part are dropped.  An empty part list is the
    empty set."""

    parts: tuple[Rect, ...]

    def __post_init__(self):
        kept: list[Rect] = []
        for p in self.parts:
            if p.is_empty:
                continue
            if any(rect_contains(q, p) for q in kept):
                continue
            kept = [q for q in kept if not rect_contains(p, q)]
            kept.append(p)
        kept.sort(key=lambda r: r.corner)
        object.__setattr__(self, "parts", tuple(kept))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __repr__(self):
        return f"RectUnion({list(self.parts)})"


def signed_terms(parts: Sequence[Rect]) -> list[tuple[float, Rect]]:
    """Inclusion-exclusion expansion: (sign, intersection of S) for every
    non-empty subset S of the parts, sign = (-1)^{|S|+1}, in
    ``itertools.combinations`` order (all singletons, then all pairs, ...).

    The one place subsets are enumerated: exact, capped at MAX_UNION_PARTS
    parts, and every part must share one dimension.
    """
    parts = tuple(parts)
    if len(parts) > MAX_UNION_PARTS:
        raise ValueError(
            f"inclusion-exclusion capped at {MAX_UNION_PARTS} parts, got {len(parts)}"
        )
    for r in parts[1:]:
        _check_same_dim(parts[0], r)
    terms = []
    for k in range(1, len(parts) + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for combo in itertools.combinations(parts, k):
            inter = combo[0]
            for r in combo[1:]:
                inter = rect_intersection(inter, r)
            terms.append((sign, inter))
    return terms


def union_measure(parts: RectUnion | Sequence[Rect]) -> float:
    """Measure of a finite union by inclusion-exclusion over all non-empty
    subsets (exact; at most MAX_UNION_PARTS parts)."""
    if isinstance(parts, RectUnion):
        rects = parts.parts
    else:
        rects = tuple(p for p in parts if not p.is_empty)
    total = 0.0
    for sign, inter in signed_terms(rects):
        total += sign * rect_measure(inter)
    return max(total, 0.0)


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
    below = [Rect(tuple(float(j != i) for j in range(dim))) for i in range(dim)]
    terms = [(1.0, Rect((1.0,) * dim))] + [(-sign, r) for sign, r in signed_terms(below)]
    return np.array([sign for sign, _ in terms]), corner_array([r for _, r in terms]) == 0.0
