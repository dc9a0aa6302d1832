"""Pre-measure recovery, inclusion-exclusion extension, outer measure,
measurability splits, outer continuity, and the characterization verdict."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sifbm.flows import flow_weights, flows_through
from sifbm.gaussian import (
    HurstParam,
    ResolutionError,
    SampleEnsemble,
    build_cov_matrix,
    cholesky,
    covariance_from_measures,
    sample_ensemble,
)
from sifbm.recovery import (
    MAX_COVER_ELEMENTS,
    CharacterizationReport,
    CoverError,
    CoverFamily,
    MissingPsiError,
    PreMeasureTable,
    Thresholds,
    characterize,
    extension_residual,
    outer_measures,
    psi_on_C_with_se,
    recover_measure,
    tiling_cover,
    _covariance_criterion,
    _extension_criterion,
    _flow_criteria,
    _outer_measure_search,
    _psi_criteria,
)
from sifbm.rects import (
    EMPTY,
    CellArrangement,
    LeftNeighborhood,
    Rect,
    rect,
    rect_contains,
    rect_intersection,
    rect_measure,
)
from sifbm.storage import StoredEnsemble, write_ensemble_binary
from test_rects import left_nbhd_measure, region_disjoint_ae, region_subset_ae, symdiff_measure

# Checks that hold for the analytic table alone, so only the tests and
# acceptance criteria 6 and 7 run them.


def measurability_check(
    table: PreMeasureTable,
    covers: CoverFamily,
    u: Rect,
    a_inside: LeftNeighborhood,
    b_outside: LeftNeighborhood,
) -> float:
    """Residual |outer(a u b) - outer(a) - outer(b)| with a inside u and b
    outside u; cover pieces crossing the boundary of u are cut into their
    inside and outside halves first (both stay in the class)."""
    if not region_subset_ae(a_inside, u):
        raise ValueError("a_inside is not contained in u")
    if not region_disjoint_ae(b_outside, u):
        raise ValueError("b_outside overlaps u")
    pieces = []
    for el in covers.elements:
        inside = LeftNeighborhood(rect_intersection(el.base, u), el.subtracted)
        outside = LeftNeighborhood(el.base, el.subtracted + (u,))
        for p in (inside, outside):
            if not p.base.is_empty and left_nbhd_measure(p) > 0.0:
                pieces.append(p)
    if len(pieces) > MAX_COVER_ELEMENTS:
        raise ValueError(
            f"split cover has {len(pieces)} pieces, exceeding the "
            f"{MAX_COVER_ELEMENTS}-element search cap"
        )
    split = CoverFamily(tuple(pieces))
    both, a, b = outer_measures(table, split, [[a_inside, b_outside], a_inside, b_outside])
    return abs(both.value - a.value - b.value)


def outer_continuity_check(h: HurstParam, corners, u: Rect) -> np.ndarray:
    """Analytic variance of the difference along a shrinking box sequence:
    E[(X_{U_n} - X_U)^2] = m(U_n (+) U)^{2H}.

    The corner sequence must decrease componentwise to u's corner; the
    returned values are then monotone nonincreasing by construction.  When u
    is degenerate and the final corner is small enough, the final value is
    additionally asserted below 1e-6 (the regime where the bound is exact).
    """
    seq = [Rect(tuple(float(x) for x in c)) for c in corners]
    if u.is_empty:
        raise ValueError("limit index must be a box (possibly degenerate), not empty")
    prev = None
    for r in seq:
        if not rect_contains(r, u):
            raise ValueError(f"sequence element {r!r} does not contain the limit {u!r}")
        if prev is not None and not rect_contains(prev, r):
            raise ValueError("corner sequence is not componentwise nonincreasing")
        prev = r
    values = np.array([symdiff_measure(r, u) ** h.two_h for r in seq])
    if np.any(np.diff(values) > 0):
        raise AssertionError("analytic variance sequence failed to be nonincreasing")
    if rect_measure(u) == 0.0 and seq:
        n = len(u.corner)
        gap_scale = 1e-6 ** (1.0 / (h.two_h * n))
        if max(seq[-1].corner) <= gap_scale:
            assert values[-1] <= 1e-6
    return values


def lattice(nx=3, ny=3, sx=1.0, sy=1.0):
    return [rect(i * sx, j * sy) for i in range(1, nx + 1) for j in range(1, ny + 1)]


def exact_ensemble(indices, h, n, seed):
    f = cholesky(build_cov_matrix(sorted(indices, key=lambda r: r.corner), HurstParam(h)))
    return sample_ensemble(f, n, seed=seed)


def psi_entry(e, u, h):
    """The per-column plug-in recovery that ``PreMeasureTable.from_ensemble``
    replaced: (value, stderr) of one box, (mean of X_U^2)^{1/(2H)} with its
    delta-method standard error."""
    if e.n_samples < 100:
        raise ResolutionError(
            f"need at least 100 samples to estimate the pre-measure, got {e.n_samples}"
        )
    col = e.column(u)
    sq = col**2
    s = float(np.mean(sq))
    n = e.n_samples
    if s == 0.0:
        if not u.is_empty and rect_measure(u) > 0:
            warnings.warn(f"zero empirical variance for non-degenerate index {u!r}")
        return 0.0, 0.0
    inv = 1.0 / h.two_h
    value = s**inv
    se_s = float(np.std(sq, ddof=1)) / np.sqrt(n)
    return value, inv * s ** (inv - 1.0) * se_s


def psi_of(e, u):
    return PreMeasureTable.from_ensemble(e, [u]).value[0]


@st.composite
def psi_ensembles(draw):
    """Independent columns over distinct boxes of one dimension in 1..3
    (EMPTY and degenerate boxes included, so zero columns occur), some
    non-degenerate columns zeroed, at least 100 samples, a scale factor, and
    the box list to recover: None (every column) or a list with repeats."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    box = st.tuples(*[coord] * dim).map(Rect) | st.just(EMPTY)
    boxes = draw(st.lists(box, min_size=1, max_size=8, unique=True))
    n = draw(st.sampled_from([100, 101, 257]))
    scale = draw(st.sampled_from([1.0, 1.9, 1e-3, 1e3]))
    zeroed = draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sd = np.sqrt([rect_measure(u) for u in boxes]) * np.logical_not(zeroed)
    samples = scale * rng.standard_normal((n, len(boxes))) * sd
    e = SampleEnsemble(tuple(boxes), samples, HurstParam(draw(st.sampled_from([0.1, 0.3, 0.5]))))
    want = draw(st.none() | st.lists(st.sampled_from(boxes), max_size=10))
    return e, want


class TestEstimatePsi:
    def test_degenerate_column_zero(self):
        e = exact_ensemble([rect(0, 1), rect(1, 1)], 0.3, 200, seed=1)
        assert psi_of(e, rect(0, 1)) == 0.0

    def test_recovers_unit_measure(self):
        h = 0.35
        e = exact_ensemble([rect(1, 1)], h, 20_000, seed=12)
        got = psi_of(e, rect(1, 1))
        assert got == pytest.approx(1.0, rel=0.05)

    def test_scaling_homogeneity(self):
        h = HurstParam(0.25)
        e = exact_ensemble([rect(1, 1)], h.value, 500, seed=3)
        base = psi_of(e, rect(1, 1))
        c = 1.9
        scaled = SampleEnsemble(e.indices, c * e.samples, e.hurst)
        got = psi_of(scaled, rect(1, 1))
        assert got == pytest.approx(c ** (1 / h.value) * base, rel=1e-9)

    def test_small_sample_rejected(self):
        e = exact_ensemble([rect(1, 1)], 0.3, 50, seed=1)
        with pytest.raises(ValueError):
            psi_of(e, rect(1, 1))

    def test_zero_variance_on_nondegenerate_warns(self):
        e = SampleEnsemble((rect(1, 1),), np.zeros((200, 1)), HurstParam(0.3))
        with pytest.warns(UserWarning, match="zero empirical variance"):
            got = psi_of(e, rect(1, 1))
        assert got == 0.0

    @given(psi_ensembles())
    @settings(deadline=None)
    def test_matches_per_column_reference(self, case):
        e, want = case
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            table = PreMeasureTable.from_ensemble(e, want)
        boxes = tuple(dict.fromkeys(e.indices if want is None else want))
        assert table.boxes == boxes
        with warnings.catch_warnings(record=True) as ref_warned:
            warnings.simplefilter("always")
            ref = [psi_entry(e, u, e.hurst) for u in boxes]
        # equal to round-off (the block sums add in another order than
        # np.mean and np.std), and a warning exactly when some column warns
        want = np.array(ref, dtype=float).reshape(-1, 2)
        got = np.column_stack([table.value, table.stderr])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert bool(got_warned) == bool(ref_warned)


class TestPsiOnC:
    def test_self_subtraction_cancels(self):
        t = PreMeasureTable()
        u = rect(2, 1)
        assert psi_on_C_with_se(t, LeftNeighborhood(u, (u,)))[0] == 0.0

    def test_corner_cell(self):
        t = PreMeasureTable()
        c = LeftNeighborhood(rect(2, 2), (rect(1, 2), rect(2, 1)))
        # 4 - 2 - 2 + 1
        assert psi_on_C_with_se(t, c)[0] == pytest.approx(1.0)

    def test_no_subtraction(self):
        t = PreMeasureTable()
        u = rect(1.5, 2)
        assert psi_on_C_with_se(t, LeftNeighborhood(u))[0] == rect_measure(u)

    def test_matches_lebesgue_on_random_neighborhoods(self):
        t = PreMeasureTable()
        rng = np.random.default_rng(42)
        for _ in range(100):
            base = Rect(tuple(rng.uniform(0.5, 3, 2)))
            subs = tuple(
                Rect(tuple(rng.uniform(0, 3, 2))) for _ in range(rng.integers(0, 4))
            )
            c = LeftNeighborhood(base, subs)
            want = left_nbhd_measure(c)
            assert psi_on_C_with_se(t, c)[0] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_empirical_terms_add_in_quadrature(self):
        e = exact_ensemble(lattice(2, 2), 0.3, 200, seed=5)
        t = PreMeasureTable.from_ensemble(e)
        (v22, v12), (s22, s12) = t.lookup([rect(2, 2), rect(1, 2)])
        got = psi_on_C_with_se(t, LeftNeighborhood(rect(2, 2), (rect(1, 2),)))
        assert got == (v22 - v12, float(np.sqrt(s22**2 + s12**2)))

    def test_missing_entries_listed(self):
        e = exact_ensemble([rect(1, 2), rect(2, 1)], 0.3, 200, seed=5)
        t = PreMeasureTable.from_ensemble(e)
        c = LeftNeighborhood(rect(1, 2), (rect(2, 1),))
        with pytest.raises(MissingPsiError) as ei:
            psi_on_C_with_se(t, c)
        assert rect(1, 1) in ei.value.missing


def brute_force_cover_min(table, covers, target_rect, n_pts=4000, seed=0):
    """Independent oracle: minimum cover cost by full subset enumeration with
    Monte Carlo point-membership coverage."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, (n_pts, len(target_rect.corner))) * np.asarray(
        target_rect.corner
    )

    def in_nbhd(c, p):
        if c.base.is_empty or not np.all(p <= c.base.corner):
            return False
        return not any(np.all(p <= s.corner) for s in c.subtracted)

    member = np.array(
        [[in_nbhd(el, p) for el in covers.elements] for p in pts], dtype=bool
    )
    best = np.inf
    for k in range(len(covers.elements) + 1):
        for combo in itertools.combinations(range(len(covers.elements)), k):
            if not combo:
                covered = not member.shape[0]
            else:
                covered = bool(np.all(member[:, list(combo)].any(axis=1)))
            if covered:
                cost = sum(psi_on_C_with_se(table, covers.elements[i])[0] for i in combo)
                best = min(best, cost)
    return best


def branch_and_bound_search(costs, masks, universe):
    """The recursive reference the array search replaced: bit c of masks[i]
    says element i covers target cell c; prunes when all costs are
    non-negative; equal-cost ties break to the lexicographically smallest
    index tuple."""
    n = len(costs)
    can_prune = all(c >= 0 for c in costs)
    best = [np.inf, None]

    def consider(cost, chosen):
        if cost < best[0] or (cost == best[0] and (best[1] is None or chosen < best[1])):
            best[0], best[1] = cost, chosen

    def dfs(i, mask, cost, chosen):
        if mask & universe == universe:
            consider(cost, tuple(chosen))
            if can_prune:
                return
        if i == n:
            return
        if can_prune and cost > best[0]:
            return
        chosen.append(i)
        dfs(i + 1, mask | masks[i], cost + costs[i], chosen)
        chosen.pop()
        dfs(i + 1, mask, cost, chosen)

    dfs(0, 0, 0.0, [])
    if best[1] is None:
        raise CoverError("no sub-family of the covers contains the target")
    return best[0], best[1]


@st.composite
def cover_instances(draw):
    """Costs from a small pool (negative, zero and repeated values) or
    continuous, and a random cover matrix whose cells may have no element."""
    n = draw(st.integers(1, 12))
    cells = draw(st.integers(1, 8))
    pool = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    cost = pool | st.floats(-2.0, 5.0, allow_nan=False)
    costs = draw(st.lists(cost, min_size=n, max_size=n))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    bits = draw(st.lists(st.floats(0, 1), min_size=n * cells, max_size=n * cells))
    return costs, np.array(bits).reshape(n, cells) < density


class TestOuterMeasureSearch:
    @given(cover_instances())
    # an element covering no cell still counts: a negative cost lowers the
    # value, and a zero cost wins the tie-break
    @example(instance=([1.0, -0.5], np.array([[True], [False]])))
    @example(instance=([0.0, 1.0], np.array([[False], [True]])))
    @settings(deadline=None, max_examples=300)
    def test_matches_branch_and_bound(self, instance):
        costs, cover = instance
        masks = [sum(1 << int(c) for c in np.flatnonzero(row)) for row in cover]
        universe = (1 << cover.shape[1]) - 1
        try:
            want = branch_and_bound_search(costs, masks, universe)
        except CoverError:
            with pytest.raises(CoverError):
                _outer_measure_search(costs, cover)
            return
        value, chosen = _outer_measure_search(costs, cover)
        assert (value, chosen) == want
        assert type(chosen[0]) is int


def per_target_outer_measures(table, covers, targets) -> list[tuple]:
    """The per-target path that one shared cell arrangement replaced: each
    target gets its own arrangement with the covers, and a null target
    (empty or of measure 0) is (0, (), 0) without one."""

    def target_cover(target):
        if isinstance(target, Rect) and target.is_empty:
            return None
        arr = CellArrangement([target, covers.elements])
        inside = arr.mask(target)
        if not inside.any():
            return None
        return np.array([arr.mask(el)[inside] for el in covers.elements])

    cover_masks = [target_cover(t) for t in targets]
    if all(cover is None for cover in cover_masks):
        return [(0.0, (), 0.0)] * len(targets)
    costs, ses = zip(*(psi_on_C_with_se(table, el) for el in covers.elements))
    out = []
    for cover in cover_masks:
        if cover is None:
            out.append((0.0, (), 0.0))
            continue
        value, chosen = _outer_measure_search(costs, cover)
        out.append((float(value), tuple(chosen), float(np.sqrt(sum(ses[i] ** 2 for i in chosen)))))
    return out


@st.composite
def outer_measure_cases(draw):
    """Cover pieces and targets on a coarse grid with zero, as in
    ``criterion_cases``: targets are boxes (degenerate ones included), the
    empty set, left-neighborhoods and unions of these; a seed for the table."""
    dim = draw(st.integers(1, 3))
    box = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])] * dim).map(Rect)
    nbhd = st.builds(LeftNeighborhood, box, st.lists(box, max_size=2).map(tuple))
    elements = draw(st.lists(nbhd, min_size=1, max_size=6))
    if draw(st.booleans()):
        elements.append(LeftNeighborhood(Rect((2.0,) * dim)))
    region = box | st.just(EMPTY) | nbhd
    targets = draw(st.lists(region | st.lists(region, min_size=1, max_size=3), min_size=1, max_size=5))
    return CoverFamily(tuple(elements)), targets, draw(st.integers(0, 2**32 - 1))


class TestSharedArrangement:
    @given(outer_measure_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_target_arrangements(self, case):
        covers, targets, seed = case
        boxes = tuple(dict.fromkeys(
            b for el in covers.elements for _, b in el.signed_boxes() if not b.is_empty
        ))
        rng = np.random.default_rng(seed)
        # signed and tied costs, and non-zero standard errors
        value = rng.choice([-0.5, 0.0, 0.5, 1.0, 2.5], len(boxes))
        table = PreMeasureTable(boxes, value, rng.uniform(0.0, 0.1, len(boxes)))
        try:
            want = per_target_outer_measures(table, covers, targets)
        except CoverError:
            with pytest.raises(CoverError):
                outer_measures(table, covers, targets)
            return
        got = outer_measures(table, covers, targets)
        assert [(r.value, r.chosen, r.stderr) for r in got] == want


class TestOuterMeasure:
    def test_singleton_cover(self):
        t = PreMeasureTable()
        u = rect(2, 1.5)
        covers = CoverFamily((LeftNeighborhood(u),))
        assert outer_measures(t, covers, [u])[0].value == pytest.approx(rect_measure(u))

    def test_empty_target(self):
        t = PreMeasureTable()
        covers = CoverFamily((LeftNeighborhood(rect(1, 1)),))
        assert outer_measures(t, covers, [EMPTY])[0].value == 0.0

    def test_null_target_needs_no_cover_costs(self):
        # a null target is 0 before any cover element is looked up, so a
        # table without the covers' entries still answers it
        t = PreMeasureTable((), np.zeros(0), np.zeros(0))
        covers = CoverFamily((LeftNeighborhood(rect(1, 1)),))
        assert outer_measures(t, covers, [EMPTY])[0].value == 0.0
        assert outer_measures(t, covers, [rect(0, 1)])[0].value == 0.0
        with pytest.raises(MissingPsiError):
            outer_measures(t, covers, [rect(1, 1)])[0]

    def test_redundant_expensive_piece_ignored(self):
        t = PreMeasureTable()
        target = rect(2, 1)
        tiles = (
            LeftNeighborhood(rect(1, 1)),
            LeftNeighborhood(rect(2, 1), (rect(1, 1),)),
            LeftNeighborhood(rect(5, 5)),  # covers everything, costs 25
        )
        got = outer_measures(t, CoverFamily(tiles), [target])[0].value
        assert got == pytest.approx(2.0)

    def test_matches_brute_force_oracle(self):
        t = PreMeasureTable()
        target = rect(2, 2)
        covers = tiling_cover((2, 2), (2, 2))
        extra = CoverFamily(covers.elements + (LeftNeighborhood(rect(2, 2)),))
        got = outer_measures(t, extra, [target])[0].value
        want = brute_force_cover_min(t, extra, target)
        assert got == pytest.approx(want, rel=1e-9)

    def test_no_cover_raises(self):
        t = PreMeasureTable()
        covers = CoverFamily((LeftNeighborhood(rect(1, 1)),))
        with pytest.raises(CoverError):
            outer_measures(t, covers, [rect(3, 3)])[0]

    def test_monotone_in_target(self):
        t = PreMeasureTable()
        covers = tiling_cover((3, 3), (3, 3))
        small = outer_measures(t, covers, [rect(1.5, 1.5)])[0].value
        big = outer_measures(t, covers, [rect(2.5, 2.5)])[0].value
        assert small <= big

    def test_subadditive_over_unions(self):
        t = PreMeasureTable()
        covers = tiling_cover((3, 3), (3, 3))
        a = LeftNeighborhood(rect(2, 1))
        b = LeftNeighborhood(rect(1, 2))
        both, one, other = (
            outer_measures(t, covers, [target])[0].value for target in ([a, b], a, b)
        )
        assert both <= one + other + 1e-12

    def test_tie_break_deterministic(self):
        t = PreMeasureTable()
        u = rect(1, 1)
        covers = CoverFamily((LeftNeighborhood(u), LeftNeighborhood(u)))
        det = outer_measures(t, covers, [u])[0]
        assert det.chosen == (0,)

    def test_family_cap(self):
        tiles = tuple(
            LeftNeighborhood(rect(i, 1), (rect(i - 1, 1),)) for i in range(1, 18)
        )
        with pytest.raises(ValueError, match="capped"):
            CoverFamily(tiles)


class TestVerifyExtension:
    def test_exact_table_reports_a_zero_worst(self):
        # integer measures: every residual and recovery error is exactly 0,
        # and the details say so instead of naming no box
        boxes = tuple(lattice(2, 2))
        m = np.array([rect_measure(u) for u in boxes])
        t = PreMeasureTable(boxes, m, np.zeros(len(boxes)))
        ext = _extension_criterion(t, tiling_cover((2, 2), (2, 2)), Thresholds())
        assert (ext.passed, ext.statistic) == (True, 0.0)
        assert ext.detail == "worst residual over 4 targets is 0"
        rec, _ = _psi_criteria(t, Thresholds())
        assert (rec.passed, rec.statistic) == (True, 0.0)
        assert rec.detail == "worst relative recovery error is 0"

    def test_self_cover(self):
        t = PreMeasureTable()
        u = rect(2, 2)
        covers = CoverFamily((LeftNeighborhood(u),))
        assert extension_residual(t, outer_measures(t, covers, [u])[0], u)[0] == 0.0

    def test_tilings_two_granularities(self):
        t = PreMeasureTable()
        u = rect(2, 2)
        for divs in ((2, 2), (3, 3)):
            covers = tiling_cover((2, 2), divs)
            assert extension_residual(t, outer_measures(t, covers, [u])[0], u)[0] <= 1e-12

    def test_empirical_within_tolerance(self):
        h = 0.35
        idx = sorted(set(lattice(2, 2)), key=lambda r: r.corner)
        e = exact_ensemble(idx, h, 20_000, seed=33)
        t = PreMeasureTable.from_ensemble(e)
        covers = tiling_cover((2, 2), (2, 2))
        u = rect(2, 2)
        resid, se = extension_residual(t, outer_measures(t, covers, [u])[0], u)
        assert resid <= 3 * se


class TestMeasurability:
    def test_disjoint_tiles_additive(self):
        t = PreMeasureTable()
        covers = tiling_cover((3, 3), (3, 3))
        u = rect(2, 2)
        a = LeftNeighborhood(rect(1, 1))
        b = LeftNeighborhood(rect(3, 1), (rect(2, 1),))
        assert measurability_check(t, covers, u, a, b) <= 1e-12

    def test_random_disjoint_pairs(self):
        t = PreMeasureTable()
        covers = tiling_cover((3, 3), (3, 3))
        u = rect(2, 2)
        inside = [
            LeftNeighborhood(rect(1, 1)),
            LeftNeighborhood(rect(2, 1), (rect(1, 1),)),
            LeftNeighborhood(rect(1, 2), (rect(1, 1),)),
            LeftNeighborhood(rect(2, 2), (rect(1, 2), rect(2, 1))),
        ]
        outside = [
            LeftNeighborhood(rect(3, 1), (rect(2, 1),)),
            LeftNeighborhood(rect(3, 2), (rect(2, 2), rect(3, 1))),
            LeftNeighborhood(rect(1, 3), (rect(1, 2),)),
            LeftNeighborhood(rect(3, 3), (rect(2, 3), rect(3, 2))),
        ]
        for a in inside:
            for b in outside:
                assert measurability_check(t, covers, u, a, b) <= 1e-12

    def test_containment_violated(self):
        t = PreMeasureTable()
        covers = tiling_cover((3, 3), (3, 3))
        with pytest.raises(ValueError, match="not contained"):
            measurability_check(
                t, covers, rect(1, 1), LeftNeighborhood(rect(2, 2)), LeftNeighborhood(rect(3, 3), (rect(1, 1),))
            )

    def test_overlap_violated(self):
        t = PreMeasureTable()
        covers = tiling_cover((3, 3), (3, 3))
        with pytest.raises(ValueError, match="overlaps"):
            measurability_check(
                t, covers, rect(2, 2), LeftNeighborhood(rect(1, 1)), LeftNeighborhood(rect(3, 3))
            )


class TestOuterContinuity:
    def test_constant_sequence_zero(self):
        u = rect(1, 1)
        vals = outer_continuity_check(HurstParam(0.3), [u.corner] * 5, u)
        assert np.all(vals == 0.0)

    def test_harmonic_shrink_half(self):
        u = rect(1, 1)
        corners = [(1 + 1 / n, 1.0) for n in range(1, 30)]
        vals = outer_continuity_check(HurstParam(0.5), corners, u)
        want = np.array([1 / n for n in range(1, 30)])
        assert np.allclose(vals, want, rtol=1e-9)

    def test_harmonic_shrink_quarter(self):
        u = rect(1, 1)
        corners = [(1 + 1 / n, 1.0) for n in range(1, 30)]
        vals = outer_continuity_check(HurstParam(0.25), corners, u)
        assert np.allclose(vals, np.array([(1 / n) ** 0.5 for n in range(1, 30)]), rtol=1e-9)

    def test_not_decreasing_rejected(self):
        u = rect(1, 1)
        with pytest.raises(ValueError, match="nonincreasing"):
            outer_continuity_check(HurstParam(0.3), [(1.1, 1), (1.2, 1)], u)

    def test_must_contain_limit(self):
        u = rect(1, 1)
        with pytest.raises(ValueError, match="does not contain"):
            outer_continuity_check(HurstParam(0.3), [(0.5, 1)], u)

    def test_degenerate_limit_reaches_floor(self):
        h = HurstParam(0.2)
        origin = rect(0, 0)
        corners = [(d, d) for d in np.geomspace(1.0, 1e-9, 12)]
        vals = outer_continuity_check(h, corners, origin)
        assert np.all(np.diff(vals) <= 0)
        assert vals[-1] <= 1e-6


def battery_and_indices(h, n, seed, lattice_pts):
    flows = [
        flows_through(rect(2, 2), points=12),
        flows_through(rect(3, 1), points=12),
    ]
    idx = set(lattice_pts)
    for f in flows:
        idx.update(flow_weights(f)[0])
    e = exact_ensemble(sorted(idx, key=lambda r: r.corner), h, n, seed)
    return e, flows


class TestCharacterize:
    H = 0.3
    LATTICE = lattice(3, 3)
    COVERS = tiling_cover((3, 3), (3, 3))

    def _run(self, e, flows, h=None):
        return characterize(
            e,
            flows,
            HurstParam(h or self.H),
            self.COVERS,
            table_indices=self.LATTICE,
        )

    def test_exact_field_passes(self):
        e, flows = battery_and_indices(self.H, 20_000, 101, self.LATTICE)
        rep = self._run(e, flows)
        assert rep.verdict, rep.failed

    def test_wrong_h_fails_on_profile(self):
        e, flows = battery_and_indices(self.H, 20_000, 102, self.LATTICE)
        rep = self._run(e, flows, h=self.H + 0.15)
        assert not rep.verdict
        assert "variance_profile" in rep.failed

    def test_independent_columns_fail_on_profile(self):
        e, flows = battery_and_indices(self.H, 4_000, 103, self.LATTICE)
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(e.samples.shape)
        bad = SampleEnsemble(e.indices, noise, e.hurst)
        rep = self._run(bad, flows)
        assert not rep.verdict
        assert "variance_profile" in rep.failed

    def test_mean_shift_fails_on_recovery(self):
        e, flows = battery_and_indices(self.H, 20_000, 104, self.LATTICE)
        shifted = e.samples.copy()
        col = e.indices.index(rect(2, 2))
        shifted[:, col] += 0.5
        bad = SampleEnsemble(e.indices, shifted, e.hurst)
        rep = self._run(bad, flows)
        assert not rep.verdict
        assert "psi_recovery" in rep.failed

    def test_insufficient_samples_rejected(self):
        e, flows = battery_and_indices(self.H, 500, 105, self.LATTICE)
        with pytest.raises(ValueError, match="1000"):
            self._run(e, flows)

    def test_report_serializes(self):
        e, flows = battery_and_indices(self.H, 2_000, 106, self.LATTICE)
        rep = self._run(e, flows)
        d = rep.to_dict()
        assert d["verdict"] in ("pass", "fail")
        assert [c["name"] for c in d["criteria"]] == [
            "variance_profile",
            "gaussianity",
            "psi_recovery",
            "psi_monotonicity",
            "extension",
            "covariance_comparison",
        ]

    def test_flow_details_name_what_they_found(self):
        # a fraction of 1.0 on every flow, or no varying series, names no
        # flow: the details say so instead of ending in "at "
        e, flows = battery_and_indices(self.H, 2_000, 108, self.LATTICE)
        wide = Thresholds(profile_se_mult=1e6)
        prof, gauss = _flow_criteria(e, flows, e.hurst, wide)
        assert (prof.passed, prof.statistic) == (True, 1.0)
        assert prof.detail == "every pair of every flow within band"
        assert gauss.detail.startswith("worst moment z at flow ")
        prof, gauss = _flow_criteria(e, [], e.hurst, wide)
        assert prof.detail == "every pair of every flow within band"
        assert (gauss.passed, gauss.statistic) == (True, 0.0)
        assert gauss.detail == "no series varies, so none was tested"
        prof, _ = _flow_criteria(e, flows, e.hurst, Thresholds(profile_se_mult=0.0))
        assert prof.statistic < 1.0 and prof.detail.startswith("worst within-band fraction at flow ")

    def test_composes_flow_recovery_and_covariance_criteria(self):
        e, flows = battery_and_indices(self.H, 2_000, 107, self.LATTICE)
        rep = self._run(e, flows)
        recovered, table = recover_measure(e, self.COVERS, table_indices=self.LATTICE)
        assert list(table.boxes) == self.LATTICE
        assert [c.name for c in rep.criteria] == (
            ["variance_profile", "gaussianity"]
            + [c.name for c in recovered.criteria]
            + ["covariance_comparison"]
        )
        assert rep.criteria[2:-1] == recovered.criteria


class TestStoredEnsemble:
    def test_reports_bit_equal_to_in_memory(self, tmp_path):
        # 3,000 rows: eleven full blocks and a partial one
        e, flows = battery_and_indices(0.3, 3_000, 108, lattice(3, 3))
        path = tmp_path / "ensemble.sifb"
        write_ensemble_binary(e.row_blocks(), path, e.samples.shape)
        stored = StoredEnsemble(path, e.indices, e.hurst, e.n_samples)
        covers, idx = tiling_cover((3, 3), (3, 3)), lattice(3, 3)
        (mem, mem_t), (disk, disk_t) = (
            recover_measure(x, covers, table_indices=idx) for x in (e, stored)
        )
        assert repr(disk.to_dict()) == repr(mem.to_dict())
        for name in ("value", "stderr", "gram"):
            assert getattr(disk_t, name).tobytes() == getattr(mem_t, name).tobytes()
        mem, disk = (characterize(x, flows, e.hurst, covers, table_indices=idx) for x in (e, stored))
        assert repr(disk.to_dict()) == repr(mem.to_dict())


def covariance_criterion_reference(e, table, h, mult):
    """(entries, entries within band): every ensemble-column pair, kept when
    both boxes and their intersection are in the table."""
    emp = (e.samples.T @ e.samples) / e.n_samples
    diag = np.diag(emp)
    table_set = set(table.boxes)
    total = ok = 0
    for i, u in enumerate(e.indices):
        for j in range(i, len(e.indices)):
            v = e.indices[j]
            inter = rect_intersection(u, v)
            if u not in table_set or v not in table_set or inter not in table_set:
                continue
            mu, mv, mi = table.lookup([u, v, inter])[0].tolist()
            pred = covariance_from_measures(mu, mv, max(mu + mv - 2 * mi, 0.0), h)
            se = np.sqrt((diag[i] * diag[j] + emp[i, j] ** 2) / e.n_samples)
            dev = abs(emp[i, j] - pred)
            total += 1
            ok += bool(dev <= mult * se) if se > 0 else bool(dev == 0)
    return total, ok


@st.composite
def criterion_cases(draw):
    """Distinct boxes of one dimension in 1..3 on a grid with zero (so
    intersections and degenerate boxes are common), a non-empty subset of
    them as the table, a sample seed and H."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
    boxes = draw(st.lists(st.tuples(*[coord] * dim).map(Rect), min_size=1, max_size=14, unique=True))
    keep = draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)))
    table_idx = [b for b, k in zip(boxes, keep) if k] or boxes[:1]
    return boxes, table_idx, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.05, 0.5))


class TestCovarianceCriterion:
    @given(criterion_cases(), st.floats(0.5, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_pair_reference(self, case, mult):
        boxes, table_idx, seed, hv = case
        h = HurstParam(hv)
        # independent columns scaled to the box measure: diagonal entries
        # match their prediction, nested pairs do not
        scale = np.sqrt([rect_measure(b) for b in boxes])
        samples = np.random.default_rng(seed).standard_normal((200, len(boxes))) * scale
        e = SampleEnsemble(tuple(boxes), samples, h)
        table = PreMeasureTable.from_ensemble(e, table_idx)
        thr = Thresholds(covariance_se_mult=mult)
        got = _covariance_criterion(table, h, thr)
        total, ok = covariance_criterion_reference(e, table, h, mult)
        assert f"fraction of {total} entries" in got.detail
        assert got.statistic == ok / total
        assert got.passed == (ok / total >= thr.covariance_pass_fraction)


def pair_scan_reference(table, thr):
    """The per-box and per-pair scans over itertools.combinations that the
    array expressions replaced: (psi_recovery passed, worst relative error
    and where it is, psi_monotonicity passed and worst violation)."""
    idx = list(table.boxes)
    value, stderr = table.lookup(idx)
    entry = dict(zip(idx, zip(value.tolist(), stderr.tolist())))
    recovered, worst_rel, worst_detail = True, 0.0, "is 0"
    for u in idx:
        m = rect_measure(u)
        if m < thr.psi_floor:
            continue
        got, se = entry[u]
        tol = max(thr.psi_recovery_rel * m, thr.psi_recovery_se_mult * se)
        rel = abs(got - m) / m
        if abs(got - m) > tol:
            recovered = False
        if rel > worst_rel:
            worst_rel, worst_detail = rel, f"at {u!r}"
    passed, worst = True, 0.0
    for u, v in itertools.combinations(idx, 2):
        if rect_contains(v, u):
            small, big = u, v
        elif rect_contains(u, v):
            small, big = v, u
        else:
            continue
        (vs, ss), (vb, sb) = entry[small], entry[big]
        viol = vs - vb - thr.monotonicity_se_mult * float(np.hypot(ss, sb))
        if viol > 0:
            passed, worst = False, max(worst, viol)
    return recovered, worst_rel, worst_detail, passed, worst


@st.composite
def psi_tables(draw):
    """A table over distinct boxes of one dimension in 1..3 (EMPTY and
    degenerate boxes included), psi = m(U) times a factor in [0.5, 1.5], so
    nested pairs can violate monotonicity, with standard errors in [0, 0.3]."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0, 2, allow_nan=False)
    box = st.tuples(*[coord] * dim).map(Rect) | st.just(EMPTY)
    boxes = draw(st.lists(box, max_size=14, unique=True))
    value = [rect_measure(u) * draw(st.floats(0.5, 1.5)) for u in boxes]
    stderr = [draw(st.floats(0, 0.3)) for _ in boxes]
    return PreMeasureTable(tuple(boxes), np.array(value), np.array(stderr))


class TestPairScans:
    # floors equal to grid measures, so a box sits exactly on the floor
    @given(psi_tables(), st.floats(0, 4), st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 2))
    # a box exactly on the floor is tested, and fails here
    @example(PreMeasureTable((rect(1.0),), np.array([2.0]), np.array([0.0])), 0.0, 1.0)
    @settings(deadline=None)
    def test_match_per_pair_reference(self, table, mult, floor):
        thr = Thresholds(psi_recovery_se_mult=mult, psi_floor=floor, monotonicity_se_mult=mult)
        recovered, worst_rel, worst_detail, passed, worst = pair_scan_reference(table, thr)
        rec, mono = _psi_criteria(table, thr)
        assert rec.name == "psi_recovery" and mono.name == "psi_monotonicity"
        assert (rec.passed, rec.statistic) == (recovered, worst_rel)
        assert rec.detail == f"worst relative recovery error {worst_detail}"
        assert (mono.passed, mono.statistic) == (passed, worst)
