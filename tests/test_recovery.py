"""Pre-measure recovery, psi on grid cells and the extension test, the
measure the cell increments give, measurability splits, outer continuity,
and the characterization verdict."""

import itertools
import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sifbm.config import parse_config
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
    CharacterizationReport,
    PreMeasureTable,
    Thresholds,
    characterize,
    psi_on_cells,
    recover_measure,
    _cell_criterion,
    _covariance_criterion,
    _flow_criteria,
    _psi_criteria,
)
from sifbm.rects import (
    EMPTY,
    MAX_UNION_PARTS,
    Rect,
    corner_array,
    rect,
    rect_contains,
    rect_intersection,
    rect_measure,
    union_measure,
)
from sifbm.storage import StoredEnsemble, write_ensemble_binary
from test_rects import (
    LeftNeighborhood,
    boxes_of,
    member,
    region_disjoint_ae,
    region_subset_ae,
    symdiff_measure,
)

ROOT = Path(__file__).resolve().parents[1]

# Checks that hold for the Lebesgue table alone, so only the tests and
# acceptance criteria 6 and 7 run them.


def lebesgue_table(boxes) -> PreMeasureTable:
    """The analytic table: psi is Lebesgue measure, with zero error."""
    boxes = tuple(boxes)
    m = np.array([rect_measure(u) for u in boxes])
    return PreMeasureTable(boxes, m, np.zeros(len(boxes)))


def entry(table, u) -> tuple[float, float]:
    """(psi, standard error) of table box u."""
    i = table.boxes.index(u)
    return float(table.value[i]), float(table.stderr[i])


def on_cells(table, cells):
    """``psi_on_cells`` over (lower, upper) corner pairs."""
    lower, upper = (np.array(c, dtype=float) for c in zip(*cells))
    return psi_on_cells(table, lower, upper)


def cell_measure(table, region) -> tuple[float, float]:
    """(measure, propagated standard error) that psi's cell increments give
    a region: the sum of psi over the grid cells of the table's corners whose
    interior lies in it, errors in quadrature.  Every box of the region must
    have its corner on that grid, and every cell in it every corner box in
    the table or on an axis; otherwise ValueError."""
    edges = [sorted(set(col) | {0.0}) for col in corner_array(table.boxes).T.tolist()]
    for b in boxes_of(region):
        if len(b.corner) != len(edges) or any(c not in e for c, e in zip(b.corner, edges)):
            raise ValueError(f"{b!r} is not a union of grid cells of the table")
    cells = itertools.product(*(zip(e, e[1:]) for e in edges))
    # exact midpoints: a float one can round onto a cell edge
    inside = [
        (lo, hi) for lo, hi in (zip(*c) for c in cells)
        if member([(Fraction(a) + Fraction(b)) / 2 for a, b in zip(lo, hi)], region)
    ]
    if not inside:
        return 0.0, 0.0
    value, se, tested = on_cells(table, inside)
    if not tested.all():
        raise ValueError("a cell of the region has a corner box the table lacks")
    return float(value.sum()), float(np.sqrt(np.sum(se**2)))


def measurability_check(
    table: PreMeasureTable,
    u: Rect,
    a_inside: LeftNeighborhood,
    b_outside: LeftNeighborhood,
) -> float:
    """Residual |mu(a u b) - mu(a) - mu(b)| of the measure mu the table's
    cell increments give, with a inside u and b outside u: u splits the
    union additively."""
    if not region_subset_ae(a_inside, u):
        raise ValueError("a_inside is not contained in u")
    if not region_disjoint_ae(b_outside, u):
        raise ValueError("b_outside overlaps u")
    both, a, b = (cell_measure(table, r)[0] for r in ([a_inside, b_outside], a_inside, b_outside))
    return abs(both - a - b)


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
    # C is a grid cell (lower, upper]: [0, upper] minus the boxes just below it

    def test_self_subtraction_cancels(self):
        # lower == upper: a box minus itself
        value, se, tested = on_cells(lebesgue_table([rect(2, 1)]), [((2, 1), (2, 1))])
        assert tested[0] and (value[0], se[0]) == (0.0, 0.0)

    def test_corner_cell(self):
        # 4 - 2 - 2 + 1
        value, _, _ = on_cells(lebesgue_table(lattice(2, 2)), [((1, 1), (2, 2))])
        assert value[0] == pytest.approx(1.0)

    def test_no_subtraction(self):
        # every box below [0, u] lies on an axis
        u = rect(1.5, 2)
        value, _, tested = on_cells(lebesgue_table([u]), [((0, 0), u.corner)])
        assert tested[0] and value[0] == rect_measure(u)

    def test_matches_lebesgue_on_random_neighborhoods(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            upper = rng.uniform(0.5, 3, 2)
            lower = upper * rng.uniform(0, 1, 2) * rng.integers(0, 2, 2)
            boxes = [Rect(tuple(np.where(pick, lower, upper)))
                     for pick in itertools.product((False, True), repeat=2)]
            value, _, tested = on_cells(lebesgue_table(boxes), [(lower, upper)])
            want = float(np.prod(upper - lower))
            assert tested[0] and value[0] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_empirical_terms_add_in_quadrature(self):
        e = exact_ensemble(lattice(2, 2), 0.3, 200, seed=5)
        t = PreMeasureTable.from_ensemble(e)
        (v22, s22), (v12, s12), (v21, s21), (v11, s11) = (
            entry(t, u) for u in (rect(2, 2), rect(1, 2), rect(2, 1), rect(1, 1))
        )
        value, se, _ = on_cells(t, [((1, 1), (2, 2))])
        assert value[0] == pytest.approx(v22 - v12 - v21 + v11, rel=1e-12)
        assert se[0] == pytest.approx(np.sqrt(s22**2 + s12**2 + s21**2 + s11**2), rel=1e-12)

    def test_missing_entries_listed(self):
        # the cell below (2, 2) needs (1, 1), which the table lacks: it is
        # listed as not tested and reads 0 with error 0
        e = exact_ensemble([rect(1, 2), rect(2, 1), rect(2, 2)], 0.3, 200, seed=5)
        t = PreMeasureTable.from_ensemble(e)
        value, se, tested = on_cells(t, [((1, 1), (2, 2)), ((0, 1), (1, 2))])
        assert tested.tolist() == [False, False]
        assert (value.tolist(), se.tolist()) == ([0.0, 0.0], [0.0, 0.0])
        value, _, tested = on_cells(t, [((1, 0), (2, 1)), ((0, 0), (2, 2))])
        assert tested.tolist() == [False, True] and value[1] == entry(t, rect(2, 2))[0]


def cell_reference(table):
    """The scalar path, one table box at a time: (lower, upper, psi,
    stderr) of the grid cell below each box off the axes, psi and stderr
    None when a corner box is neither on an axis nor in the table.  The
    corner boxes come from a loop over itertools.product of the corner picks;
    the grid's edges are every table corner coordinate and 0."""
    boxes = [u for u in table.boxes if not u.is_empty]
    pos = {u.corner: i for i, u in enumerate(table.boxes) if not u.is_empty}
    dim = len(boxes[0].corner) if boxes else 1
    edges = [{u.corner[i] for u in boxes} | {0.0} for i in range(dim)]
    out = []
    for u in boxes:
        if min(u.corner) == 0.0:
            continue
        lower = tuple(max(x for x in e if x < c) for e, c in zip(edges, u.corner))
        total, var = 0.0, 0.0
        for picks in itertools.product((False, True), repeat=dim):
            corner = tuple(lo if p else hi for p, lo, hi in zip(picks, lower, u.corner))
            if min(corner) == 0.0:
                continue
            if corner not in pos:
                total = var = None
                break
            total += (-1.0) ** sum(picks) * float(table.value[pos[corner]])
            var += float(table.stderr[pos[corner]]) ** 2
        out.append((lower, u.corner, total, None if var is None else var**0.5))
    return out


@st.composite
def cell_tables(draw):
    """A table in 1..3 dimensions over a lattice of drawn coordinates or
    scattered corners, with degenerate boxes, EMPTY and repeats (kept once,
    as ``from_ensemble`` keeps them); psi is Lebesgue measure with zero
    error, or a multiple in [0.5, 1.5] of it with errors in [0, 0.3]."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0, 3, allow_nan=False)
    if draw(st.booleans()):
        axes = [draw(st.lists(coord, min_size=1, max_size=3)) for _ in range(dim)]
        boxes = [Rect(c) for c in itertools.product(*axes)]
        boxes = [u for u in boxes if draw(st.integers(0, 5))]  # drop about one in six
    else:
        boxes = draw(st.lists(st.tuples(*[coord] * dim).map(Rect), max_size=10))
    boxes += draw(st.lists(st.sampled_from(boxes) | st.just(EMPTY), max_size=3)) if boxes else []
    boxes = tuple(dict.fromkeys(boxes))
    m = np.array([rect_measure(u) for u in boxes])
    if draw(st.booleans()):
        return PreMeasureTable(boxes, m, np.zeros(len(boxes))), True
    factor = draw(st.lists(st.floats(0.5, 1.5), min_size=len(boxes), max_size=len(boxes)))
    stderr = draw(st.lists(st.floats(0, 0.3), min_size=len(boxes), max_size=len(boxes)))
    return PreMeasureTable(boxes, m * np.array(factor), np.array(stderr)), False


class TestCellCriterion:
    @given(cell_tables())
    @example(case=(lebesgue_table([EMPTY]), True))
    @example(case=(lebesgue_table([rect(0.2, 0.2), rect(0.3, 0.25)]), True))
    @settings(deadline=None, max_examples=200)
    def test_matches_per_cell_reference(self, case):
        table, lebesgue = case
        ref = cell_reference(table)
        thr = Thresholds()
        got = _cell_criterion(table, thr)
        tested = [r for r in ref if r[2] is not None]
        if ref:
            value, se, ok = on_cells(table, [(lo, hi) for lo, hi, _, _ in ref])
            # a cell is skipped exactly when a corner box is missing
            assert ok.tolist() == [r[2] is not None for r in ref]
            scale = 1e-12 * max(1.0, float(np.max(np.abs(table.value))))
            for (lo, hi, want, want_se), v, s in zip(ref, value, se):
                if want is None:
                    continue
                assert abs(v - want) <= scale and abs(s - want_se) <= 1e-12 * max(1.0, want_se)
                if lebesgue:
                    assert abs(v - float(np.prod(np.subtract(hi, lo)))) <= scale
        if not tested:
            assert (got.passed, got.statistic) == (True, 0.0)
            assert got.detail == "no cell has every corner box in the table, so none was tested"
            return
        assert got.detail.startswith(f"cells tested: {len(tested)};")
        viol = [-v - thr.extension_se_mult * s for _, _, v, s in tested]
        assert got.statistic == pytest.approx(max(max(viol), 0.0), abs=1e-12)
        if all(abs(x) > 1e-9 for x in viol):
            assert got.passed == (max(viol) <= 0)

    def test_rejects_non_measure_tables(self):
        # the 9 demo boxes, psi a random multiple in [0.5, 1.5] of each box's
        # measure with standard errors 1% of it: 187 of 200 tables failed the
        # cover-search test this criterion replaced
        boxes = tuple(lattice(3, 3))
        m = np.array([rect_measure(u) for u in boxes])
        rng = np.random.default_rng(0)
        rejected = 0
        for _ in range(200):
            value = m * rng.uniform(0.5, 1.5, len(boxes))
            table = PreMeasureTable(boxes, value, 0.01 * value)
            rejected += not _cell_criterion(table, Thresholds()).passed
        assert rejected >= 187

    @pytest.mark.parametrize(
        "covers",
        [
            None,
            {"elements": [{"base": [2.0, 2.0]}, {"base": [3.0, 1.0]}]},
        ],
        ids=["omitted", "overlapping"],
    )
    def test_exact_data_passes_whatever_the_covers(self, covers):
        # with these covers the cover search read 1.9-5.4 on exact data and
        # failed all seven seeds
        raw = json.loads((ROOT / "configs" / "demo.json").read_text())
        raw.pop("covers", None)
        if covers is not None:
            raw["covers"] = covers
        cfg = parse_config({**raw, "n_samples": 4000})
        factor = cholesky(build_cov_matrix(cfg.ensemble_indices(), cfg.hurst))
        for seed in range(1, 8):
            e = sample_ensemble(factor, cfg.n_samples, seed=seed)
            ext = _cell_criterion(PreMeasureTable.from_ensemble(e, cfg.table_indices), cfg.thresholds)
            assert ext.passed, (seed, ext.detail)
            assert ext.detail.startswith("cells tested: 9;")


class TestOuterMeasure:
    # the measure mu that psi's cell increments give unions of grid cells

    def test_singleton_cover(self):
        u = rect(2, 1.5)
        got, se = cell_measure(lebesgue_table([u]), u)
        assert (got, se) == (pytest.approx(rect_measure(u)), 0.0)

    def test_empty_target(self):
        t = lebesgue_table(lattice(2, 2))
        assert cell_measure(t, EMPTY) == cell_measure(t, []) == (0.0, 0.0)

    def test_null_target_needs_no_cover_costs(self):
        # a degenerate box holds no cell, so a table that lacks corner boxes
        # still answers it
        t = lebesgue_table([rect(1, 1), rect(2, 2)])
        assert cell_measure(t, rect(0, 1)) == (0.0, 0.0)
        assert cell_measure(t, rect(1, 1))[0] == 1.0
        with pytest.raises(ValueError, match="corner box the table lacks"):
            cell_measure(t, rect(2, 2))

    def test_redundant_expensive_piece_ignored(self):
        # a box inside the union adds nothing, and a larger table box that
        # is not in it costs nothing
        t = lebesgue_table([rect(1, 1), rect(2, 1), rect(5, 5)])
        got, _ = cell_measure(t, [rect(2, 1), rect(1, 1)])
        assert got == pytest.approx(2.0)

    def test_matches_brute_force_oracle(self):
        # inclusion-exclusion over every subset of the union's boxes
        t = lebesgue_table(lattice(3, 3, 0.5, 0.75))
        rng = np.random.default_rng(0)
        for _ in range(20):
            parts = [t.boxes[i] for i in rng.choice(9, int(rng.integers(1, 5)), replace=False)]
            got, _ = cell_measure(t, parts)
            assert got == pytest.approx(union_measure(parts), rel=1e-9)

    def test_no_cover_raises(self):
        t = lebesgue_table([rect(1, 1)])
        with pytest.raises(ValueError, match="not a union of grid cells"):
            cell_measure(t, rect(3, 3))

    def test_monotone_in_target(self):
        e = exact_ensemble(lattice(3, 3), 0.3, 4000, seed=11)
        t = PreMeasureTable.from_ensemble(e)
        small = cell_measure(t, rect(1, 2))[0]
        big = cell_measure(t, rect(2, 2))[0]
        assert small <= big

    def test_subadditive_over_unions(self):
        t = lebesgue_table(lattice(3, 3))
        a = LeftNeighborhood(rect(2, 1))
        b = LeftNeighborhood(rect(1, 2))
        both, one, other = (cell_measure(t, target)[0] for target in ([a, b], a, b))
        assert both <= one + other + 1e-12

    def test_family_cap(self):
        # a cell has 2^N corner boxes, capped as inclusion-exclusion is
        corner = np.ones((1, MAX_UNION_PARTS + 1))
        with pytest.raises(ValueError, match="capped"):
            psi_on_cells(lebesgue_table([Rect(tuple(corner[0]))]), 0 * corner, corner)


class TestVerifyExtension:
    def test_exact_table_reports_a_zero_worst(self):
        # integer measures: every cell and recovery error is exact, and the
        # details say so instead of naming no box
        boxes = tuple(lattice(2, 2))
        m = np.array([rect_measure(u) for u in boxes])
        t = PreMeasureTable(boxes, m, np.zeros(len(boxes)))
        ext = _cell_criterion(t, Thresholds())
        assert (ext.passed, ext.statistic) == (True, 0.0)
        assert ext.detail == "cells tested: 4; smallest z inf in ([0.0, 0.0], [1.0, 1.0]]"
        rec, _ = _psi_criteria(t, Thresholds())
        assert (rec.passed, rec.statistic) == (True, 0.0)
        assert rec.detail == "worst relative recovery error is 0"

    def test_self_cover(self):
        # a box alone is its own cell
        u = rect(2, 2)
        t = lebesgue_table([u])
        assert cell_measure(t, u)[0] == rect_measure(u)
        assert _cell_criterion(t, Thresholds()).detail.startswith("cells tested: 1;")

    def test_tilings_two_granularities(self):
        u = rect(2, 2)
        for k in (2, 3):
            t = lebesgue_table(lattice(k, k, 2 / k, 2 / k))
            assert abs(cell_measure(t, u)[0] - rect_measure(u)) <= 1e-12
            ext = _cell_criterion(t, Thresholds())
            assert ext.passed and ext.detail.startswith(f"cells tested: {k * k};")

    def test_empirical_within_tolerance(self):
        h = 0.35
        idx = sorted(set(lattice(2, 2)), key=lambda r: r.corner)
        e = exact_ensemble(idx, h, 20_000, seed=33)
        t = PreMeasureTable.from_ensemble(e)
        ext = _cell_criterion(t, Thresholds())
        assert ext.passed and ext.statistic == 0.0
        value, se, tested = on_cells(t, [((1, 1), (2, 2)), ((0, 1), (1, 2))])
        assert tested.all() and np.all(value >= -3 * se)


class TestMeasurability:
    def test_disjoint_tiles_additive(self):
        t = lebesgue_table(lattice(3, 3))
        u = rect(2, 2)
        a = LeftNeighborhood(rect(1, 1))
        b = LeftNeighborhood(rect(3, 1), (rect(2, 1),))
        assert measurability_check(t, u, a, b) <= 1e-12

    def test_random_disjoint_pairs(self):
        t = lebesgue_table(lattice(3, 3))
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
                assert measurability_check(t, u, a, b) <= 1e-12

    def test_containment_violated(self):
        t = lebesgue_table(lattice(3, 3))
        with pytest.raises(ValueError, match="not contained"):
            measurability_check(
                t, rect(1, 1), LeftNeighborhood(rect(2, 2)), LeftNeighborhood(rect(3, 3), (rect(1, 1),))
            )

    def test_overlap_violated(self):
        t = lebesgue_table(lattice(3, 3))
        with pytest.raises(ValueError, match="overlaps"):
            measurability_check(
                t, rect(2, 2), LeftNeighborhood(rect(1, 1)), LeftNeighborhood(rect(3, 3))
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

    def _run(self, e, flows, h=None):
        return characterize(
            e,
            flows,
            HurstParam(h or self.H),
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
        recovered, table = recover_measure(e, table_indices=self.LATTICE)
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
        idx = lattice(3, 3)
        (mem, mem_t), (disk, disk_t) = (
            recover_measure(x, table_indices=idx) for x in (e, stored)
        )
        assert repr(disk.to_dict()) == repr(mem.to_dict())
        for name in ("value", "stderr", "gram"):
            assert getattr(disk_t, name).tobytes() == getattr(mem_t, name).tobytes()
        mem, disk = (characterize(x, flows, e.hurst, table_indices=idx) for x in (e, stored))
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
            (mu, _), (mv, _), (mi, _) = (entry(table, w) for w in (u, v, inter))
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
    entry = dict(zip(idx, zip(table.value.tolist(), table.stderr.tolist())))
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
