"""Rectangle family: measures, inclusion-exclusion, and exact predicates."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sifbm.flows import Flow, canonical_unions, make_elementary_flow, time_change
from sifbm.rects import (
    MAX_UNION_PARTS,
    DimensionMismatchError,
    cell_corners,
    grid_lower,
    measure,
    rect,
    signed_terms,
)

# A box is its corner row, a tuple of floats (``rect``); the references
# below also take None, the empty set.
EMPTY = None


def corners_of(boxes) -> np.ndarray:
    """(n, N) array of the corner rows ``boxes``, the empty set as the zero
    corner (it has measure 0, as does its intersection with every box)."""
    dim = next((len(b) for b in boxes if b is not None), 1)
    return np.array([(0.0,) * dim if b is None else b for b in boxes], dtype=float).reshape(len(boxes), dim)


def is_box(region) -> bool:
    return region is None or isinstance(region, tuple)


# Scalar references for the corner-array engine: one subset, one box, one
# coordinate at a time, in the order the engine must reproduce bit for bit.


def measure_reference(corner) -> float:
    out = 1.0
    for c in corner:
        out *= c
    return out


def terms_reference(parts) -> list:
    """(sign, corner) for every non-empty subset of the corner tuples
    ``parts``, in ``itertools.combinations`` order, the corner the
    coordinatewise minimum over the subset."""
    return [
        (1.0 if k % 2 == 1 else -1.0, tuple(min(xs) for xs in zip(*combo)))
        for k in range(1, len(parts) + 1)
        for combo in itertools.combinations(parts, k)
    ]


def union_measure_reference(parts) -> float:
    """Measure of the union of the boxes with corners ``parts``: the signed
    term measures added one after another from 0, clipped at 0."""
    total = 0.0
    for sign, corner in terms_reference(parts):
        total += sign * measure_reference(corner)
    return max(total, 0.0)


def canonical_reference(boxes) -> list:
    """Corners of a union's parts: no empty box, no box inside another, each
    box once, sorted."""
    kept = {b for b in boxes if b is not None}
    return sorted(
        a for a in kept if not any(a != b and all(map(float.__le__, a, b)) for b in kept)
    )


def box_measure(u) -> float:
    """``measure`` of one box, the empty set as the zero corner."""
    return float(measure(corners_of([u]))[0])


def chain(*flows: Flow) -> Flow:
    """One flow of the segments of ``flows``, in order."""
    return Flow(tuple(s for f in flows for s in f.segments))


def segment_values(seg) -> list:
    """A segment's value at each grid point as a corner row, EMPTY for the empty set."""
    return [EMPTY if e else tuple(c) for c, e in zip(seg.corners.tolist(), seg.empty)]


def union_flow(*parts) -> Flow:
    """A flow whose segment i holds parts[i] constant, so its last value is
    the union of all of them."""
    return chain(*(make_elementary_flow([i, i + 1], [p, p]) for i, p in enumerate(parts)))


def union_measure(boxes) -> float:
    """The program's measure of a union of boxes (none: the empty set): the
    end of a ``union_flow``'s time change."""
    return float(time_change(union_flow(*boxes or [EMPTY])).values[-1])


# Exact references for tests and acceptance criteria 5-7; the CLI needs none
# of them.


@dataclass(frozen=True)
class LeftNeighborhood:
    """The set C = base \\ (sub_1 u ... u sub_n) with base and sub_i boxes; a
    grid cell is one, with the boxes just below its upper corner subtracted."""

    base: tuple | None
    subtracted: tuple = ()


def boxes_of(region):
    """Every non-empty box a region (or a list of regions, such as a union of
    boxes) is built from."""
    if is_box(region):
        return [] if region is None else [region]
    if isinstance(region, LeftNeighborhood):
        return boxes_of(region.base) + [s for s in region.subtracted if s is not None]
    return [b for r in region for b in boxes_of(r)]


class CellArrangement:
    """Grid-cell decomposition of R^N_+ induced by the box corners of some
    regions: the open boxes between consecutive edges on each axis, in C
    order, with ``upper`` their upper corners, shape (n_cells, N), and
    ``volumes`` their volumes.  Each cell lies inside or outside every
    region, so a region is a boolean mask over the cells, exact up to
    Lebesgue-null boundaries."""

    def __init__(self, regions):
        corners = corners_of(boxes_of(regions))
        edges = [np.unique(np.append(col, 0.0)) for col in corners.T]
        grids = np.meshgrid(*(e[1:] for e in edges), indexing="ij")
        self.upper = np.stack([g.ravel() for g in grids], axis=1)
        volumes = np.ones(())
        for e in edges:
            volumes = np.multiply.outer(volumes, np.diff(e))
        self.volumes = volumes.ravel()

    def mask(self, region) -> np.ndarray:
        """bool[n_cells]: the cells whose interior lies in the region, whose
        boxes must be among those the arrangement was built on."""
        if is_box(region):
            if region is None:
                return np.zeros(len(self.volumes), dtype=bool)
            return np.all(self.upper <= region, axis=1)
        if isinstance(region, LeftNeighborhood):
            return self.mask(region.base) & ~self.mask(list(region.subtracted))
        out = np.zeros(len(self.volumes), dtype=bool)
        for r in region:
            out |= self.mask(r)
        return out


def symdiff_measure(a, b) -> float:
    """m(a (+) b) = m(a) + m(b) - 2 m(a n b), never negative, with a n b the
    corner minimum."""
    c = corners_of([a, b])
    val = measure(c[0]) + measure(c[1]) - 2.0 * measure(c.min(axis=0))
    return max(float(val), 0.0)


def clip(base, boxes) -> list:
    """Corners of base n b for each non-empty box b of ``boxes``, none if
    base is empty."""
    subs = [b for b in boxes if b is not None]
    if base is None or not subs:
        return []
    return [tuple(c) for c in np.minimum(base, corners_of(subs)).tolist()]


def left_nbhd_measure(c: LeftNeighborhood) -> float:
    """m(C) = m(U) - m(U n (u sub_i)), via inclusion-exclusion; >= 0."""
    base_m = box_measure(c.base)
    if not c.subtracted:
        return base_m
    return max(base_m - union_measure_reference(clip(c.base, c.subtracted)), 0.0)


def region_subset_ae(inner, outer) -> bool:
    """True if inner is contained in outer up to a Lebesgue-null set."""
    arr = CellArrangement([inner, outer])
    return not np.any(arr.mask(inner) & ~arr.mask(outer))


def region_disjoint_ae(a, b) -> bool:
    """True if a and b overlap only on a Lebesgue-null set."""
    arr = CellArrangement([a, b])
    return not np.any(arr.mask(a) & arr.mask(b))

corners2 = st.tuples(
    st.floats(0, 10, allow_nan=False, allow_infinity=False),
    st.floats(0, 10, allow_nan=False, allow_infinity=False),
)
rects2 = corners2

# Coordinates from a small grid (zero included, so degenerate boxes and shared
# faces are common) mixed with arbitrary floats.
coords = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0, 3, allow_nan=False)


@st.composite
def box_families(draw, max_parts=5):
    """Families of 0..max_parts boxes of one dimension in 1..3, with EMPTY."""
    dim = draw(st.integers(1, 3))
    box = st.tuples(*[coords] * dim) | st.just(EMPTY)
    return draw(st.lists(box, max_size=max_parts))


class TestRectBasics:
    def test_measure_empty(self):
        # a flow holds the empty set as the zero corner
        assert measure(make_elementary_flow([0, 1], [EMPTY, EMPTY]).segments[0].corners).tolist() == [0.0, 0.0]

    def test_measure_unit_square(self):
        assert measure(rect(1, 1)) == 1.0

    def test_measure_product(self):
        # product oracle: 2 * 0.5 * 3
        assert measure(rect(2, 0.5, 3)) == pytest.approx(2 * 0.5 * 3)

    def test_degenerate_rect_is_not_empty(self):
        f = make_elementary_flow([0, 1], [rect(0, 5), rect(0, 5)])
        assert measure(f.segments[0].corners).tolist() == [0.0, 0.0]
        assert not f.segments[0].empty.any()

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            make_elementary_flow([0, 1], [rect(1, -0.5), rect(1, 1)])

    # a n b is the corner minimum, the corner of the pair term of signed_terms

    def test_intersection_idempotent(self):
        u = rect(1, 1)
        assert signed_terms(corners_of([u, u]))[1][-1].tolist() == list(u)

    def test_intersection_componentwise_min(self):
        assert signed_terms(corners_of([rect(1, 2), rect(2, 1)]))[1][-1].tolist() == [1.0, 1.0]

    def test_intersection_with_empty(self):
        # the empty set's zero corner meets every box in a box of measure 0
        _, corners = signed_terms(corners_of([rect(1, 1), EMPTY]))
        assert measure(corners[-1]) == 0.0

    def test_intersection_dimension_mismatch(self):
        # a union's parts come from a flow's segments, which refuse the mix
        with pytest.raises(DimensionMismatchError):
            union_flow(rect(1, 1), rect(1, 1, 1))


class TestMeasure:
    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.tuples(*[coords | st.floats(0, 1e200)] * dim), min_size=1, max_size=6)))
    def test_matches_coordinate_product(self, rows):
        # bit for bit, an overflow's inf and an inf times 0's nan included
        def same(got, want):
            want = np.array(want)
            return np.array_equal(got, want, equal_nan=True) and np.array_equal(
                np.signbit(got), np.signbit(want))

        assert same(measure(np.array(rows)), [measure_reference(r) for r in rows])
        # over the last axis of any shape, as build_cov_matrix reads it
        pairs = np.minimum(np.array(rows)[:, None], np.array(rows)[None])
        want = [[measure_reference(np.minimum(a, b).tolist()) for b in rows] for a in rows]
        assert same(measure(pairs), want)


class TestSymdiff:
    def test_self(self):
        u = rect(1.3, 0.7)
        assert symdiff_measure(u, u) == 0.0

    def test_with_empty(self):
        assert symdiff_measure(rect(1, 1), EMPTY) == 1.0

    def test_nested(self):
        # 1 + 2 - 2*1
        assert symdiff_measure(rect(1, 1), rect(2, 1)) == pytest.approx(1.0)

    @given(rects2, rects2)
    def test_symmetric_nonnegative(self, a, b):
        assert symdiff_measure(a, b) == symdiff_measure(b, a) >= 0.0

    @given(rects2, rects2, rects2)
    def test_triangle(self, a, b, c):
        lhs = symdiff_measure(a, c)
        rhs = symdiff_measure(a, b) + symdiff_measure(b, c)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)


class TestUnionMeasure:
    def test_empty_family(self):
        assert union_measure([]) == 0.0

    def test_single(self):
        assert union_measure([rect(1, 1)]) == 1.0

    def test_two_overlapping(self):
        # 2 + 2 - 1
        assert union_measure([rect(1, 2), rect(2, 1)]) == pytest.approx(3.0)

    def test_part_cap(self):
        with pytest.raises(ValueError, match="capped"):
            signed_terms(np.ones((MAX_UNION_PARTS + 1, 2)))

    @given(st.lists(rects2, min_size=1, max_size=4))
    def test_monotone_in_parts(self, parts):
        sub = union_measure(parts[:-1]) if len(parts) > 1 else 0.0
        assert union_measure(parts) >= sub - 1e-9

    def test_monte_carlo_oracle(self):
        # hit-count oracle on random small families, 3 sigma binomial band
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n_parts = rng.integers(1, 5)
            dim = rng.integers(1, 4)
            parts = [tuple(rng.uniform(0.1, 2.0, dim)) for _ in range(n_parts)]
            box = np.max(parts, axis=0)
            vol_box = float(np.prod(box))
            n = 200_000
            pts = rng.uniform(0, 1, (n, dim)) * box
            hit = np.zeros(n, dtype=bool)
            for p in parts:
                hit |= np.all(pts <= np.asarray(p), axis=1)
            p_hat = hit.mean()
            est = p_hat * vol_box
            se = vol_box * np.sqrt(p_hat * (1 - p_hat) / n)
            assert abs(union_measure(parts) - est) <= 3 * se + 1e-12


class TestLeftNeighborhood:
    def test_self_subtraction(self):
        u = rect(1.5, 2)
        assert left_nbhd_measure(LeftNeighborhood(u, (u,))) == 0.0

    def test_nothing_subtracted(self):
        u = rect(1.5, 2)
        assert left_nbhd_measure(LeftNeighborhood(u)) == measure(u)

    def test_corner_cell(self):
        # 4 - 2 - 2 + 1
        c = LeftNeighborhood(rect(2, 2), (rect(1, 2), rect(2, 1)))
        assert left_nbhd_measure(c) == pytest.approx(1.0)

    @given(rects2, st.lists(rects2, max_size=3))
    def test_complement_identity(self, base, subs):
        # m(C) + m(U n union(subs)) == m(U) exactly (1e-12 relative)
        c = LeftNeighborhood(base, tuple(subs))
        total = left_nbhd_measure(c) + union_measure(clip(base, subs))
        assert total == pytest.approx(measure(base), rel=1e-12, abs=1e-12)


class TestMonotonicity:
    @given(corners2, corners2)
    def test_measure_monotone(self, a, b):
        lo = tuple(min(x, y) for x, y in zip(a, b))
        hi = tuple(max(x, y) for x, y in zip(a, b))
        assert measure(lo) <= measure(hi)
        # lo lies in hi, so a flow may step from one to the other
        make_elementary_flow([0, 1], [lo, hi])


def union_parts(*boxes) -> list:
    """The corners of the parts a flow keeps for a union of boxes."""
    present = np.array([[b is not None for b in boxes]])
    unions = canonical_unions(corners_of(boxes)[None], present)
    return unions[0][1][0].tolist() if unions else []


class TestRectUnionCanonical:
    def test_drops_dominated_parts(self):
        assert union_parts(rect(1, 1), rect(2, 2), EMPTY) == [[2.0, 2.0]]

    def test_empty_union(self):
        assert union_parts(EMPTY, EMPTY) == []
        assert union_measure([EMPTY]) == 0.0

    def test_duplicates_collapse(self):
        assert union_parts(rect(1, 2), rect(1, 2)) == [[1.0, 2.0]]

    @given(box_families(max_parts=6))
    def test_matches_scalar_reference(self, parts):
        assert union_parts(*parts or [EMPTY]) == [list(c) for c in canonical_reference(parts)]


@st.composite
def part_arrays(draw):
    """(k, N) corner arrays, k in 0..8 and N in 1..4, with zero coordinates
    and repeated and nested parts."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[coords] * dim), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([1.0, 0.5, 0.0]))
        rows[draw(st.integers(0, len(rows) - 1))] = tuple(scale * x for x in row)
    return np.array(rows, dtype=float).reshape(len(rows), dim)


class TestSignedTerms:
    def test_combinations_order_and_signs(self):
        a, b, c = (1.0, 3.0), (2.0, 2.0), (3.0, 1.0)
        signs, corners = signed_terms(np.array([a, b, c]))
        assert signs.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0]
        assert corners.tolist() == [[1, 3], [2, 2], [3, 1], [1, 2], [1, 1], [2, 1], [1, 1]]

    def test_no_parts(self):
        signs, corners = signed_terms(np.zeros((0, 2)))
        assert signs.shape == (0,) and corners.shape == (0, 2)

    def test_dimension_mismatch(self):
        # the engine's parts come from a flow's segments, which refuse the mix
        with pytest.raises(DimensionMismatchError):
            union_flow(rect(1, 1), EMPTY, rect(1, 1, 1))

    @given(box_families())
    def test_measure_sum_matches_cell_volumes(self, parts):
        # inclusion-exclusion against the exact cell decomposition
        signs, corners = signed_terms(corners_of([p for p in parts if p is not None]))
        total = float(np.sum(signs * measure(corners)))
        arr = CellArrangement(parts)
        want = arr.volumes[arr.mask(parts)].sum()
        assert total == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(1, 3)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=coords)))
    def test_stack_matches_single_calls(self, stack):
        # P unions of k parts each, expanded together and one by one
        signs, corners = signed_terms(stack)
        p, k, dim = stack.shape
        assert corners.shape == (p, 2**k - 1, dim)
        for union, got in zip(stack, corners):
            want_signs, want = signed_terms(union)
            assert signs.tolist() == want_signs.tolist()
            assert got.tobytes() == want.tobytes()

    @given(part_arrays())
    @example(np.zeros((0, 3)))
    def test_matches_scalar_reference(self, parts):
        signs, corners = signed_terms(parts)
        want = terms_reference([tuple(r) for r in parts.tolist()])
        assert signs.tolist() == [sign for sign, _ in want]
        assert corners.shape == (len(want), parts.shape[1])
        assert corners.tolist() == [list(c) for _, c in want]


@st.composite
def simple_flows(draw):
    """Flows of 1..8 segments in 1..4 dimensions, each a two-point step
    from a box to a larger one, drawn from a small pool so that ends repeat
    and nest; zero coordinates and empty starts included."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=4))
    segments = []
    for i in range(draw(st.integers(1, 8))):
        hi = draw(st.sampled_from(pool))
        lo = draw(st.sampled_from([None, tuple(0.5 * x for x in hi), hi]))
        segments.append(make_elementary_flow([i, i + 1], [lo, hi]))
    return chain(*segments)


class TestUnionTimeChange:
    @given(simple_flows())
    @settings(deadline=None)
    def test_matches_scalar_reference(self, f):
        # each value the union of the current box and the earlier ends,
        # measured by the scalar expansion, then the running maximum
        want = []
        for i, seg in enumerate(f.segments):
            ends = [segment_values(s)[-1] for s in f.segments[:i]]
            want = want[:-1] + [
                union_measure_reference(canonical_reference([v, *ends])) for v in segment_values(seg)
            ]
        assert time_change(f).values.tolist() == np.maximum.accumulate(want).tolist()


class TestCornerArray:
    # a flow's segment holds its values as one corner array
    def test_empty_is_zero_corner(self):
        seg = make_elementary_flow([0, 1, 2], [EMPTY, rect(0, 3), rect(1, 3)]).segments[0]
        assert np.array_equal(seg.corners, [[0.0, 0.0], [0.0, 3.0], [1.0, 3.0]])
        assert seg.empty.tolist() == [True, False, False]

    def test_all_empty(self):
        assert np.array_equal(make_elementary_flow([0, 1], [EMPTY, EMPTY]).segments[0].corners, np.zeros((2, 1)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            make_elementary_flow([0, 1], [rect(1, 1), rect(1, 1, 1)])


def grid_lower_reference(corners):
    """Per row and axis: the largest coordinate of the column, or 0, below
    the row's own, and 0 where the row's own is 0."""
    return [
        [max([0.0] + [x for x in col if x < c]) for c, col in zip(row, zip(*corners))]
        for row in corners
    ]


@st.composite
def corner_grids(draw):
    """(n, N) corners in 1..3 dimensions: a lattice of drawn coordinates or
    scattered rows, with zeros (degenerate boxes) and repeated rows."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        axes = [draw(st.lists(coords, min_size=1, max_size=3)) for _ in range(dim)]
        rows = list(itertools.product(*axes))
    else:
        rows = draw(st.lists(st.tuples(*[coords] * dim), max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    return np.array(rows, dtype=float).reshape(len(rows), dim)


class TestGridCells:
    @given(corner_grids())
    def test_grid_lower_matches_scalar_reference(self, corners):
        want = np.array(grid_lower_reference(corners.tolist())).reshape(corners.shape)
        assert np.array_equal(grid_lower(corners), want)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_cell_corners_are_the_corner_picks(self, dim):
        # one corner box per subset of lowered axes, with sign (-1)^(its size)
        signs, lowered = cell_corners(dim)
        picks = sorted(map(tuple, lowered.tolist()))
        assert picks == sorted(itertools.product((False, True), repeat=dim))
        assert np.array_equal(signs, (-1.0) ** lowered.sum(axis=1))


class TestRegionPredicates:
    def test_tile_inside_box(self):
        tile = LeftNeighborhood(rect(2, 2), (rect(1, 2), rect(2, 1)))
        assert region_subset_ae(tile, rect(2, 2))
        assert not region_subset_ae(rect(2, 2), tile)

    def test_disjoint_tiles(self):
        t1 = LeftNeighborhood(rect(1, 1))
        t2 = LeftNeighborhood(rect(2, 1), (rect(1, 1),))
        assert region_disjoint_ae(t1, t2)
        assert not region_disjoint_ae(t1, rect(2, 2))

    def test_union_of_tiles_equals_box(self):
        tiles = [
            LeftNeighborhood(rect(1, 1)),
            LeftNeighborhood(rect(2, 1), (rect(1, 1),)),
            LeftNeighborhood(rect(1, 2), (rect(1, 1),)),
            LeftNeighborhood(rect(2, 2), (rect(1, 2), rect(2, 1))),
        ]
        arr = CellArrangement([tiles, rect(2, 2)])
        assert np.array_equal(arr.mask(tiles), arr.mask(rect(2, 2)))

    def test_cell_volumes_tile_measure(self):
        rects = [rect(1, 2), rect(2, 1), rect(1.5, 1.5)]
        arr = CellArrangement(rects)
        total = arr.volumes[arr.mask(rects)].sum()
        assert total == pytest.approx(union_measure(rects), rel=1e-12)

    def test_exhaustive_vs_pointwise_membership(self):
        # cell decomposition agrees with direct membership on random points
        rng = np.random.default_rng(7)
        base = rect(2, 2)
        c = LeftNeighborhood(base, (rect(1.2, 2), rect(2, 0.7)))
        arr = CellArrangement(c)
        inside = arr.mask(c)
        for _ in range(200):
            p = rng.uniform(0.001, 2.0, 2)
            in_c = np.all(p <= base) and not any(
                np.all(p <= s) for s in c.subtracted
            )
            # cells run in C order, so the first cell whose upper corner is
            # >= p on every axis is the one containing p
            cell = np.flatnonzero(np.all(arr.upper >= p, axis=1))[0]
            assert inside[cell] == bool(in_c)


def member(p, region) -> bool:
    """Pointwise membership straight from each region's definition."""
    if is_box(region):
        return region is not None and all(x <= c for x, c in zip(p, region))
    if isinstance(region, LeftNeighborhood):
        return member(p, region.base) and not any(member(p, q) for q in region.subtracted)
    return any(member(p, r) for r in region)


@st.composite
def region_families(draw):
    """1..3 regions of one dimension in 1..3: boxes (EMPTY and degenerate
    ones included), unions (lists of boxes), left-neighborhoods and lists of
    those."""
    dim = draw(st.integers(1, 3))
    box = st.tuples(*[coords] * dim) | st.just(EMPTY)
    boxes = st.lists(box, max_size=3)
    region = (
        box
        | boxes
        | st.builds(lambda b, subs: LeftNeighborhood(b, tuple(subs)), box, boxes)
    )
    return draw(st.lists(region | st.lists(region, max_size=3), min_size=1, max_size=3))


class TestCellMasks:
    @given(region_families())
    @example(regions=[(0.0, 5e-324), (0.5, 0.0)])
    @settings(deadline=None)
    def test_mask_matches_pointwise_oracle(self, regions):
        arr = CellArrangement(regions)
        corners = boxes_of(regions)
        dim = len(corners[0]) if corners else 1
        edges = [sorted({c[i] for c in corners} | {0.0}) for i in range(dim)]
        cells = list(itertools.product(*(range(len(e) - 1) for e in edges)))
        upper = [[edges[i][k + 1] for i, k in enumerate(cell)] for cell in cells]
        widths = [[edges[i][k + 1] - edges[i][k] for i, k in enumerate(cell)] for cell in cells]
        # exact midpoints: a float one can round onto a cell edge
        mids = [
            [(Fraction(edges[i][k]) + Fraction(edges[i][k + 1])) / 2 for i, k in enumerate(cell)]
            for cell in cells
        ]
        assert np.array_equal(arr.upper, np.reshape(upper, (len(cells), dim)))
        assert np.array_equal(arr.volumes, [math.prod(w) for w in widths])
        for region in [*regions, regions]:
            want = [member(p, region) for p in mids]
            assert np.array_equal(arr.mask(region), np.array(want, dtype=bool))

    @given(region_families())
    @settings(deadline=None)
    def test_mask_volume_is_measure(self, regions):
        arr = CellArrangement(regions)
        for region in regions:
            got = arr.volumes[arr.mask(region)].sum()
            if is_box(region):
                want = box_measure(region)
            elif isinstance(region, LeftNeighborhood):
                want = left_nbhd_measure(region)
            elif all(map(is_box, region)):
                want = union_measure(region)
            else:
                continue
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_no_boxes_no_cells(self):
        arr = CellArrangement([EMPTY, []])
        assert arr.mask([EMPTY, LeftNeighborhood(EMPTY)]).shape == (0,)
        assert np.array_equal(arr.mask(EMPTY), arr.mask([]))
