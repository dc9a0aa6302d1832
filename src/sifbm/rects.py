"""Rectangle index family: origin-anchored boxes in R^N_+, their finite unions,
left-neighborhoods U \\ (U_1 u ... u U_n), and their Lebesgue measure.

Every set handled here is a finite boolean combination of boxes [0, t].  All
measure queries reduce to inclusion-exclusion over corner minima.  For
containment questions, the corner coordinates cut R^N_+ into a grid of cells,
and each region becomes a boolean mask over those cells, exact up to
Lebesgue-null boundaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class LeftNeighborhood:
    """The set C = base \\ (sub_1 u ... u sub_n) with base and sub_i boxes.

    An empty subtracted list means C = base.  Intersections of two
    left-neighborhoods stay in the class; unions generally do not.
    """

    base: Rect
    subtracted: tuple[Rect, ...] = ()

    def __post_init__(self):
        subs = tuple(s for s in self.subtracted if not s.is_empty)
        for s in subs:
            _check_same_dim(self.base, s)
        object.__setattr__(self, "subtracted", subs)

    def signed_boxes(self) -> list[tuple[float, Rect]]:
        """Inclusion-exclusion expansion 1_C = sum of sign * 1_box: the base
        with sign +1, then the base intersected with each ``signed_terms``
        intersection of the subtracted boxes, with the opposite sign."""
        return [(1.0, self.base)] + [
            (-sign, rect_intersection(self.base, r)) for sign, r in signed_terms(self.subtracted)
        ]

    def __repr__(self):
        return f"LeftNeighborhood({self.base!r} minus {list(self.subtracted)})"


# ---------------------------------------------------------------------------
# Boolean combinations of boxes as masks over cells, exact up to null sets.
#
# The corner coordinates of all boxes involved induce a grid of open cells;
# each cell lies entirely inside or outside every box, so a region is a
# boolean mask over the cells.  Consecutive edges differ, so every cell has
# positive width on each axis and positive Lebesgue measure (its float volume
# may still underflow to 0.0), and comparing masks is comparing sets up to
# null sets.
# ---------------------------------------------------------------------------

Region = Rect | RectUnion | LeftNeighborhood


def _region_rects(region: Region | Iterable[Region]) -> list[Rect]:
    if isinstance(region, Rect):
        return [] if region.is_empty else [region]
    if isinstance(region, RectUnion):
        return list(region.parts)
    if isinstance(region, LeftNeighborhood):
        out = [] if region.base.is_empty else [region.base]
        return out + list(region.subtracted)
    out = []
    for r in region:
        out.extend(_region_rects(r))
    return out


class CellArrangement:
    """Grid-cell decomposition of R^N_+ induced by the box corners of some
    regions.  The cells are the open boxes between consecutive edges on each
    axis, in C order; ``upper`` holds their upper corners, shape
    (n_cells, N), and ``volumes`` their volumes."""

    def __init__(self, regions: Region | Iterable[Region]):
        corners = corner_array(_region_rects(regions))
        edges = [np.unique(np.append(col, 0.0)) for col in corners.T]
        grids = np.meshgrid(*(e[1:] for e in edges), indexing="ij")
        self.upper = np.stack([g.ravel() for g in grids], axis=1)
        volumes = np.ones(())
        for e in edges:
            volumes = np.multiply.outer(volumes, np.diff(e))
        self.volumes = volumes.ravel()

    def mask(self, region: Region | Iterable[Region]) -> np.ndarray:
        """bool[n_cells]: the cells whose interior lies in the region.  Every
        box of the region must be among those the arrangement was built on."""
        if isinstance(region, Rect):
            if region.is_empty:
                return np.zeros(len(self.volumes), dtype=bool)
            return np.all(self.upper <= region.corner, axis=1)
        if isinstance(region, RectUnion):
            return self.mask(region.parts)
        if isinstance(region, LeftNeighborhood):
            return self.mask(region.base) & ~self.mask(region.subtracted)
        out = np.zeros(len(self.volumes), dtype=bool)
        for r in region:
            out |= self.mask(r)
        return out

