"""Rectangle family: measures, inclusion-exclusion, and exact predicates."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sifbm.rects import (
    EMPTY,
    CellArrangement,
    DimensionMismatchError,
    LeftNeighborhood,
    Rect,
    RectUnion,
    corner_array,
    rect,
    rect_contains,
    rect_intersection,
    rect_measure,
    signed_terms,
    union_measure,
)


# Scalar references for tests and acceptance criteria 5-7; the CLI needs none
# of them.


def symdiff_measure(a: Rect, b: Rect) -> float:
    """m(a (+) b) = m(a) + m(b) - 2 m(a n b), never negative; boxes of two
    dimensions raise in ``rect_intersection``."""
    val = rect_measure(a) + rect_measure(b) - 2.0 * rect_measure(rect_intersection(a, b))
    return max(val, 0.0)


def left_nbhd_measure(c: LeftNeighborhood) -> float:
    """m(C) = m(U) - m(U n (u sub_i)), via inclusion-exclusion; >= 0."""
    base_m = rect_measure(c.base)
    if not c.subtracted:
        return base_m
    clipped = [rect_intersection(c.base, s) for s in c.subtracted]
    return max(base_m - union_measure(clipped), 0.0)


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
rects2 = corners2.map(Rect)

# Coordinates from a small grid (zero included, so degenerate boxes and shared
# faces are common) mixed with arbitrary floats.
coords = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0, 3, allow_nan=False)


@st.composite
def box_families(draw, max_parts=5):
    """Families of 0..max_parts boxes of one dimension in 1..3, with EMPTY."""
    dim = draw(st.integers(1, 3))
    box = st.tuples(*[coords] * dim).map(Rect) | st.just(EMPTY)
    return draw(st.lists(box, max_size=max_parts))


class TestRectBasics:
    def test_measure_empty(self):
        assert rect_measure(EMPTY) == 0.0

    def test_measure_unit_square(self):
        assert rect_measure(rect(1, 1)) == 1.0

    def test_measure_product(self):
        # product oracle: 2 * 0.5 * 3
        assert rect_measure(rect(2, 0.5, 3)) == pytest.approx(2 * 0.5 * 3)

    def test_degenerate_rect_is_not_empty(self):
        r = rect(0, 5)
        assert rect_measure(r) == 0.0
        assert not r.is_empty
        assert r != EMPTY

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            rect(1, -0.5)

    def test_intersection_idempotent(self):
        u = rect(1, 1)
        assert rect_intersection(u, u) == u

    def test_intersection_componentwise_min(self):
        assert rect_intersection(rect(1, 2), rect(2, 1)) == rect(1, 1)

    def test_intersection_with_empty(self):
        assert rect_intersection(rect(1, 1), EMPTY) == EMPTY

    def test_intersection_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rect_intersection(rect(1, 1), rect(1, 1, 1))


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
        parts = [rect(1, 1)] * 21
        with pytest.raises(ValueError, match="capped"):
            union_measure(parts)

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
            parts = [Rect(tuple(rng.uniform(0.1, 2.0, dim))) for _ in range(n_parts)]
            box = np.max([p.corner for p in parts], axis=0)
            vol_box = float(np.prod(box))
            n = 200_000
            pts = rng.uniform(0, 1, (n, dim)) * box
            hit = np.zeros(n, dtype=bool)
            for p in parts:
                hit |= np.all(pts <= np.asarray(p.corner), axis=1)
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
        assert left_nbhd_measure(LeftNeighborhood(u)) == rect_measure(u)

    def test_corner_cell(self):
        # 4 - 2 - 2 + 1
        c = LeftNeighborhood(rect(2, 2), (rect(1, 2), rect(2, 1)))
        assert left_nbhd_measure(c) == pytest.approx(1.0)

    @given(rects2, st.lists(rects2, max_size=3))
    def test_complement_identity(self, base, subs):
        # m(C) + m(U n union(subs)) == m(U) exactly (1e-12 relative)
        c = LeftNeighborhood(base, tuple(subs))
        clipped = [rect_intersection(base, s) for s in subs]
        total = left_nbhd_measure(c) + union_measure(clipped)
        assert total == pytest.approx(rect_measure(base), rel=1e-12, abs=1e-12)


class TestMonotonicity:
    @given(corners2, corners2)
    def test_measure_monotone(self, a, b):
        lo = Rect(tuple(min(x, y) for x, y in zip(a, b)))
        hi = Rect(tuple(max(x, y) for x, y in zip(a, b)))
        assert rect_measure(lo) <= rect_measure(hi)
        assert rect_contains(hi, lo)


class TestRectUnionCanonical:
    def test_drops_dominated_parts(self):
        u = RectUnion((rect(1, 1), rect(2, 2), EMPTY))
        assert u.parts == (rect(2, 2),)

    def test_empty_union(self):
        assert RectUnion(()).is_empty
        assert union_measure(RectUnion(())) == 0.0

    def test_duplicates_collapse(self):
        u = RectUnion((rect(1, 2), rect(1, 2)))
        assert u.parts == (rect(1, 2),)


class TestSignedTerms:
    def test_combinations_order_and_signs(self):
        a, b, c = rect(1, 3), rect(2, 2), rect(3, 1)
        want = [(1.0, a), (1.0, b), (1.0, c)]
        want += [(-1.0, rect_intersection(x, y)) for x, y in itertools.combinations((a, b, c), 2)]
        want += [(1.0, rect(1, 1))]
        assert signed_terms([a, b, c]) == want

    def test_no_parts(self):
        assert signed_terms([]) == []

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            signed_terms([rect(1, 1), EMPTY, rect(1, 1, 1)])

    @given(box_families())
    def test_measure_sum_matches_cell_volumes(self, parts):
        # inclusion-exclusion against the exact cell decomposition
        total = sum(sign * rect_measure(r) for sign, r in signed_terms(parts))
        arr = CellArrangement(parts)
        want = arr.volumes[arr.mask(parts)].sum()
        assert total == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestCornerArray:
    def test_empty_is_zero_corner(self):
        got = corner_array([rect(1, 2), EMPTY, rect(0, 3)])
        assert np.array_equal(got, [[1.0, 2.0], [0.0, 0.0], [0.0, 3.0]])

    def test_all_empty(self):
        assert np.array_equal(corner_array([EMPTY, EMPTY]), np.zeros((2, 1)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            corner_array([rect(1, 1), rect(1, 1, 1)])


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
        total = arr.volumes[arr.mask(RectUnion(tuple(rects)))].sum()
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
            in_c = np.all(p <= base.corner) and not any(
                np.all(p <= s.corner) for s in c.subtracted
            )
            # cells run in C order, so the first cell whose upper corner is
            # >= p on every axis is the one containing p
            cell = np.flatnonzero(np.all(arr.upper >= p, axis=1))[0]
            assert inside[cell] == bool(in_c)


def boxes_of(region):
    """Every non-empty box a region is built from."""
    if isinstance(region, Rect):
        return [] if region.is_empty else [region]
    if isinstance(region, RectUnion):
        return list(region.parts)
    if isinstance(region, LeftNeighborhood):
        return boxes_of(region.base) + list(region.subtracted)
    return [b for r in region for b in boxes_of(r)]


def member(p, region) -> bool:
    """Pointwise membership straight from each region's definition."""
    if isinstance(region, Rect):
        return not region.is_empty and all(x <= c for x, c in zip(p, region.corner))
    if isinstance(region, RectUnion):
        return any(member(p, q) for q in region.parts)
    if isinstance(region, LeftNeighborhood):
        return member(p, region.base) and not any(member(p, q) for q in region.subtracted)
    return any(member(p, r) for r in region)


@st.composite
def region_families(draw):
    """1..3 regions of one dimension in 1..3: boxes (EMPTY and degenerate
    ones included), unions, left-neighborhoods and lists of those."""
    dim = draw(st.integers(1, 3))
    box = st.tuples(*[coords] * dim).map(Rect) | st.just(EMPTY)
    boxes = st.lists(box, max_size=3)
    region = (
        box
        | boxes.map(lambda ps: RectUnion(tuple(ps)))
        | st.builds(lambda b, subs: LeftNeighborhood(b, tuple(subs)), box, boxes)
    )
    return draw(st.lists(region | st.lists(region, max_size=3), min_size=1, max_size=3))


class TestCellMasks:
    @given(region_families())
    @example(regions=[Rect((0.0, 5e-324)), Rect((0.5, 0.0))])
    @settings(deadline=None)
    def test_mask_matches_pointwise_oracle(self, regions):
        arr = CellArrangement(regions)
        corners = [b.corner for b in boxes_of(regions)]
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
            if isinstance(region, Rect):
                want = rect_measure(region)
            elif isinstance(region, RectUnion):
                want = union_measure(region)
            elif isinstance(region, LeftNeighborhood):
                want = left_nbhd_measure(region)
            else:
                continue
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_no_boxes_no_cells(self):
        arr = CellArrangement([EMPTY, RectUnion(())])
        assert arr.mask([EMPTY, LeftNeighborhood(EMPTY)]).shape == (0,)
        assert np.array_equal(arr.mask(EMPTY), arr.mask(RectUnion(())))
