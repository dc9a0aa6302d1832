"""Covariance construction, factorization, and exact-sampler statistics."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sifbm.config import load_config
from sifbm.flows import project
from sifbm.gaussian import (
    JITTER_LADDER,
    STREAM_BLOCK,
    HurstParam,
    MissingIndexError,
    NotPSDError,
    SampleEnsemble,
    build_cov_matrix,
    cholesky,
    columns,
    covariance_from_measures,
    sample_ensemble,
)
from sifbm.intrep import KernelLaw, fbm_covariance
from sifbm.rects import find_rows, measure, rect
from test_rects import EMPTY, box_measure, symdiff_measure, union_flow

rects2 = st.tuples(
    st.floats(0, 5, allow_nan=False, allow_infinity=False),
    st.floats(0, 5, allow_nan=False, allow_infinity=False),
)
hursts = st.floats(0.05, 0.5, allow_nan=False).map(HurstParam)


def covariance(u, v, h: HurstParam) -> float:
    """Covariance of the field at two box indices: the scalar reference for
    ``build_cov_matrix``."""
    return float(covariance_from_measures(
        box_measure(u), box_measure(v), symdiff_measure(u, v), h
    ))


@st.composite
def index_lists(draw):
    """1..12 corner rows of one dimension in 1..3: boxes, degenerate boxes
    and the zero corner, which is how an index set holds the empty set."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 4, allow_nan=False)
    box = st.tuples(*[coord] * dim) | st.just((0.0,) * dim)
    return draw(st.lists(box, min_size=1, max_size=12))


@st.composite
def grams(draw):
    """Gram matrices A A^T of 1..9 small-integer rows, some repeated and some
    0, with each index rescaled by a power of ten from 1e-150 to 1e150."""
    r = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=5))
    a += draw(st.lists(st.sampled_from(a), max_size=2)) + [[0] * r] * draw(st.integers(0, 2))
    a = np.array(draw(st.permutations(a)), dtype=float)
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-150, 150), min_size=len(a), max_size=len(a))))
    return np.outer(scale, scale) * (a @ a.T)


class TestHurstParam:
    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.51, 1.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            HurstParam(bad)

    def test_accepts_half(self):
        assert HurstParam(0.5).is_half


class TestCovariance:
    def test_diagonal_unit(self):
        u = rect(1, 1)
        for h in (0.1, 0.3, 0.5):
            assert covariance(u, u, HurstParam(h)) == pytest.approx(1.0)

    def test_half_case_example(self):
        # m(U)=1, m(V)=1, m(UnV)=0.5 -> 0.5(1+1-1) = m(UnV)
        got = covariance(rect(1, 1), rect(2, 0.5), HurstParam(0.5))
        assert got == pytest.approx(0.5)

    def test_quarter_case_example(self):
        # 0.5 (1 + 2^{0.5} - 1^{0.5}) = sqrt(2)/2
        got = covariance(rect(1, 1), rect(2, 1), HurstParam(0.25))
        assert got == pytest.approx(0.5 * (1 + np.sqrt(2) - 1))
        assert got == pytest.approx(0.70711, abs=5e-6)

    @given(rects2, rects2, hursts)
    def test_symmetric(self, u, v, h):
        assert covariance(u, v, h) == covariance(v, u, h)

    @given(rects2, hursts)
    def test_empty_index_is_degenerate(self, u, h):
        assert covariance(u, EMPTY, h) == 0.0

    @given(rects2, rects2)
    @settings(max_examples=200)
    def test_half_identity(self, u, v):
        # at H = 1/2 the covariance is exactly the intersection measure
        got = covariance(u, v, HurstParam(0.5))
        want = measure(np.minimum(u, v))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestCovMatrix:
    def test_single_index(self):
        cm = build_cov_matrix([rect(1, 1)], HurstParam(0.3))
        assert cm.shape == (1, 1)
        assert cm[0, 0] == pytest.approx(1.0)

    def test_empty_index_row_zero(self):
        # the empty set's zero corner
        cm = build_cov_matrix([rect(0, 0), rect(1, 1)], HurstParam(0.3))
        assert np.all(cm[0] == 0.0)
        assert np.all(cm[:, 0] == 0.0)

    def test_half_grid_equals_intersections(self):
        pts = [rect(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        cm = build_cov_matrix(pts, HurstParam(0.5))
        want = np.array(
            [[measure(np.minimum(u, v)) for v in pts] for u in pts]
        )
        assert np.max(np.abs(cm - want)) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            build_cov_matrix([], HurstParam(0.3))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_cov_matrix([rect(1, 1), rect(0, 0), rect(1, 1, 1)], HurstParam(0.3))

    @given(index_lists(), hursts)
    @settings(max_examples=200)
    def test_matches_scalar_covariance(self, idx, h):
        # corner-array assembly against the scalar per-pair reference
        got = build_cov_matrix(idx, h)
        assert not got.flags.writeable
        want = np.array([[covariance(u, v, h) for v in idx] for u in idx])
        # symmetric bit for bit: ``cholesky`` reads one triangle, unchecked
        assert np.array_equal(got.view(np.uint64), got.T.view(np.uint64))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.diag(want))

    @given(index_lists(), hursts)
    @settings(max_examples=200)
    def test_matches_inline_formulas(self, idx, h):
        # the inline assembly that the broadcast covariance_from_measures
        # replaced, with its diagonal written as m^{2H}
        meas = np.ones(len(idx))
        inter = np.ones((len(idx), len(idx)))
        for c in np.array(idx).T:
            meas *= c
            inter *= np.minimum.outer(c, c)
        p = h.two_h
        sd = np.maximum(np.add.outer(meas, meas) - 2.0 * inter, 0.0)
        mp = meas**p
        want = 0.5 * (np.add.outer(mp, mp) - sd**p)
        np.fill_diagonal(want, mp)
        assert np.array_equal(build_cov_matrix(idx, h), want)
        # and fbm_covariance's, with the sorted box measures as one flow's
        # time-change values
        t = np.sort(measure(idx))
        want = 0.5 * (t[:, None] ** p + t[None, :] ** p - np.abs(t[:, None] - t[None, :]) ** p)
        assert np.array_equal(fbm_covariance(t, h), want)

    def test_psd_random_sets(self):
        rng = np.random.default_rng(99)
        for h in (0.1, 0.2, 0.35, 0.5):
            for _ in range(8):
                dim = int(rng.integers(1, 4))
                k = int(rng.integers(2, 13))
                idx = rng.uniform(0, 3, (k, dim))
                cm = build_cov_matrix(idx, HurstParam(h))
                mineig = np.linalg.eigvalsh(cm).min()
                assert mineig >= -1e-10 * cm.diagonal().max()


class TestCholesky:
    def test_identity(self):
        cm = build_cov_matrix([rect(1, 1)], HurstParam(0.3))
        lower, jitter = cholesky(cm)
        assert jitter == 0.0
        assert lower[0, 0] == pytest.approx(1.0)

    def test_1x1_scalar(self):
        cm = build_cov_matrix([rect(2, 2)], HurstParam(0.5))  # variance 4
        assert cholesky(cm)[0][0, 0] == pytest.approx(2.0)

    def test_random_set_small_jitter(self):
        rng = np.random.default_rng(5)
        idx = rng.uniform(0.2, 3, (6, 2))
        cm = build_cov_matrix(idx, HurstParam(0.2))
        # eigenvalue oracle: matrix is PSD up to fp noise before any jitter
        assert np.linalg.eigvalsh(cm).min() >= -1e-12
        assert cholesky(cm)[1] <= 1e-10

    def test_duplicated_index_needs_jitter_but_factorizes(self):
        idx = [rect(1, 1), rect(1, 1), rect(2, 1)]
        cm = build_cov_matrix(idx, HurstParam(0.3))
        lower, jitter = cholesky(cm)
        assert jitter > 0.0
        assert np.allclose(lower @ lower.T, cm, atol=1e-7)

    @given(index_lists(), hursts, st.data())
    @settings(max_examples=200, deadline=None)
    def test_factor_of_the_positive_variance_indices(self, idx, h, data):
        # boxes, degenerate boxes and repeated indices: L L^T is C +
        # jitter*diag(C) where the variance is positive, and 0 elsewhere
        idx = idx + data.draw(st.lists(st.sampled_from(idx), max_size=3))
        c = build_cov_matrix(idx, h)
        lower, jitter = cholesky(c)
        d = np.diag(c)
        pos = d > 0.0
        want = np.where(np.outer(pos, pos), c + jitter * np.diag(d), 0.0)
        band = 1e-12 * np.outer(np.sqrt(d), np.sqrt(d))  # d_i d_j can underflow
        assert np.all(np.abs(lower @ lower.T - want) <= band)
        assert np.all(lower[~pos] == 0.0)
        e = sample_ensemble(idx, h, 3, seed=1)
        assert np.all(e.samples[:, ~pos] == 0.0)

    def test_subnormal_repeated_variance_factors_on_the_ladder(self):
        # a box of corner 5e-324 twice at H = 1/2: jitter * diag(C) underflows
        # to 0 at every step, jitter * I on the correlation matrix does not
        c = np.full((2, 2), 5e-324)
        lower, jitter = cholesky(c)
        assert jitter == JITTER_LADDER[1]
        assert np.array_equal(lower @ lower.T, c + jitter * np.diag(np.diag(c)))

    @given(grams())
    @settings(max_examples=300, deadline=None)
    def test_factor_of_any_rescaled_gram(self, c):
        # repeated rows need the ladder; its jitter scales each variance by
        # itself, so a rescaled index changes nothing but its own scale
        lower, jitter = cholesky(c)
        d = np.diag(c)
        pos = d > 0
        want = c + jitter * np.diag(d)
        band = 1e-12 * np.outer(np.sqrt(d), np.sqrt(d))  # d_i d_j can underflow
        assert np.all(np.abs(lower @ lower.T - want)[np.ix_(pos, pos)] <= band[np.ix_(pos, pos)])
        assert np.all(lower[~pos] == 0.0) and np.all(lower[:, ~pos] == 0.0)
        if jitter == 0.0:
            keep = np.flatnonzero(pos)
            want = np.linalg.cholesky(c[np.ix_(keep, keep)])
            assert np.array_equal(lower[np.ix_(keep, keep)], want)

    @pytest.mark.parametrize(
        "config", ["configs/demo.json", "benchmark/configs/wide.json", "benchmark/configs/intrep_coarse.json"]
    )
    def test_shipped_configs_factor_without_jitter(self, config):
        # every law a shipped config draws from: the field's over its
        # ensemble indices, and verify-intrep's over the distinct positive
        # masses, the kernel laws on the base and the refined grid for every
        # H and the min(s, t) law
        cfg = load_config(Path(__file__).resolve().parents[1] / config)
        assert cholesky(build_cov_matrix(cfg.ensemble_boxes(), cfg.hurst))[1] == 0.0
        ir = cfg.intrep
        p = np.unique([m for m in ir.masses if m > 0])
        law = KernelLaw(HurstParam(hv) for hv in ir.hursts)
        laws = [np.minimum.outer(p, p)]
        laws += [cov for spec in (ir.grid, ir.grid.refine(2)) for cov in law.covariances(p, spec)]
        assert len(laws) == 1 + 2 * len(ir.hursts)
        assert [cholesky(cov)[1] for cov in laws] == [0.0] * len(laws)

    def test_not_psd_rejected(self):
        mat = build_cov_matrix([rect(1, 1), rect(2, 2)], HurstParam(0.3)).copy()
        mat[0, 1] = mat[1, 0] = 10.0  # impossible correlation
        with pytest.raises(NotPSDError):
            cholesky(mat)


class TestSampling:
    def test_deterministic(self):
        idx, h = [rect(1, 1), rect(2, 1)], HurstParam(0.3)
        a = sample_ensemble(idx, h, 5, seed=42)
        b = sample_ensemble(idx, h, 5, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_jobs_do_not_change_bits(self):
        idx = [rect(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        a = sample_ensemble(idx, HurstParam(0.35), 700, seed=3, jobs=1)
        b = sample_ensemble(idx, HurstParam(0.35), 700, seed=3, jobs=8)
        assert np.array_equal(a.samples, b.samples)

    def test_prefix_stability(self):
        # first rows do not depend on how many rows are drawn
        a = sample_ensemble([rect(1, 1)], HurstParam(0.3), 10, seed=11)
        b = sample_ensemble([rect(1, 1)], HurstParam(0.3), 1000, seed=11)
        assert np.array_equal(a.samples, b.samples[:10])

    def test_prefix_stable_across_block_boundary_at_demo_width(self):
        # the trailing partial block must give the same bits as a full one,
        # although BLAS picks its kernel by the shape of the product
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "demo.json")
        idx = cfg.ensemble_boxes()
        assert len(idx) == 266 and 300 < 2 * STREAM_BLOCK < 700
        a = sample_ensemble(idx, cfg.hurst, 300, seed=7)
        b = sample_ensemble(idx, cfg.hurst, 700, seed=7)
        assert np.array_equal(a.samples, b.samples[:300])

    def test_zero_matrix_factor(self):
        e = sample_ensemble([rect(0, 1), rect(0, 2)], HurstParam(0.3), 20, seed=1)
        assert np.all(e.samples == 0.0)

    def test_degenerate_columns_zero_even_with_jitter(self):
        idx = [rect(0, 1), rect(1, 1), rect(1, 1)]  # duplicate forces jitter
        assert cholesky(build_cov_matrix(idx, HurstParam(0.3)))[1] > 0.0
        e = sample_ensemble(idx, HurstParam(0.3), 50, seed=8)
        assert np.all(e.samples[:, 0] == 0.0)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_ensemble([rect(1, 1)], HurstParam(0.3), 0, seed=1)

    def test_monte_carlo_covariance(self):
        # empirical second moments within 3 CLT standard errors, entrywise
        idx = [rect(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        c = build_cov_matrix(idx, HurstParam(0.35))
        n = 20_000
        e = sample_ensemble(idx, HurstParam(0.35), n, seed=2024)
        emp = e.samples.T @ e.samples / n
        se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c**2) / n)
        frac = np.mean(np.abs(emp - c) <= 3 * se)
        assert frac >= 0.99


class TestPositions:
    def _ensemble(self):
        idx = (rect(1, 2), rect(2, 1), rect(1, 2), rect(1, 1))
        return SampleEnsemble(idx, np.arange(8.0).reshape(2, 4), HurstParam(0.3))

    def test_first_occurrence_of_a_repeated_index(self):
        e = self._ensemble()
        assert columns(e.indices, [rect(1, 1), rect(1, 2), rect(2, 1)]).tolist() == [3, 0, 1]
        assert np.array_equal(e.column(rect(1, 2)), e.samples[:, 0])

    def test_missing_boxes_named_once_and_sorted(self):
        e = self._ensemble()
        with pytest.raises(MissingIndexError) as ei:
            columns(e.indices, [rect(3, 1), rect(1, 2), rect(0, 5), rect(3, 1)])
        assert ei.value.missing == [rect(0, 5), rect(3, 1)]

    def test_column_of_missing_box(self):
        with pytest.raises(MissingIndexError) as ei:
            self._ensemble().column(rect(0, 0))
        assert ei.value.missing == [rect(0, 0)]

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_dict_reference(self, data):
        # repeated rows, -0.0 against 0.0, 1-D boxes and absent boxes
        dim = data.draw(st.integers(1, 3))
        row = st.tuples(*[st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])] * dim)
        indices = data.draw(st.lists(row, min_size=1, max_size=10))
        boxes = data.draw(st.lists(st.sampled_from(indices) | row, min_size=1, max_size=10))
        want, missing = columns_reference(indices, boxes)
        e = SampleEnsemble(indices, np.zeros((1, len(indices))), HurstParam(0.3))
        found = find_rows(e.indices, np.array(boxes))
        assert found.tolist() == [-1 if i is None else i for i in want]
        if missing:
            with pytest.raises(MissingIndexError) as ei:
                columns(e.indices, boxes)
            assert ei.value.missing == missing
        else:
            assert columns(e.indices, boxes).tolist() == want


def columns_reference(indices, boxes) -> tuple[list, list]:
    """The dict-keyed search that ``columns`` replaced, keyed by corner
    tuples with -0.0 read as 0.0, as ``Rect`` read them: each box's column,
    a repeated index's first one and None where absent, and the absent boxes
    once, sorted by corner."""
    def key(row):
        return tuple(c + 0.0 for c in row)

    pos = {key(u): i for i, u in reversed(list(enumerate(indices)))}
    return [pos.get(key(r)) for r in boxes], sorted({key(r) for r in boxes} - pos.keys())


class TestAdditiveExtend:
    """The field on a finite union of boxes is the inclusion-exclusion sum of
    its box columns; ``project`` reads it at a union-valued flow point."""

    def _ensemble(self):
        a, b, ab = rect(1, 2), rect(2, 1), rect(1, 1)
        idx = [a, b, ab]
        return sample_ensemble(idx, HurstParam(0.3), 500, seed=9), a, b, ab

    def test_single_part_passthrough(self):
        e, a, *_ = self._ensemble()
        got = project(e, union_flow(a))[:, -1]
        assert np.array_equal(got, e.column(a))

    def test_duplicate_part_idempotent(self):
        e, a, *_ = self._ensemble()
        got = project(e, union_flow(a, a))[:, -1]
        assert np.array_equal(got, e.column(a))

    def test_two_part_expansion(self):
        # small-integer samples: every summation order is exact
        a, b, ab = rect(1, 2), rect(2, 1), rect(1, 1)
        x = np.random.default_rng(9).integers(-8, 9, (500, 3)).astype(float)
        e = SampleEnsemble((a, b, ab), x, HurstParam(0.3))
        got = project(e, union_flow(a, b))[:, -1]
        want = e.column(a) + e.column(b) - e.column(ab)
        assert np.allclose(got, want, atol=0, rtol=0)

    def test_missing_intersection_reported(self):
        a, b = rect(1, 2), rect(2, 1)
        e = sample_ensemble([a, b], HurstParam(0.3), 10, seed=4)
        with pytest.raises(MissingIndexError) as ei:
            project(e, union_flow(a, b))
        assert rect(1, 1) in ei.value.missing

    def test_empty_union_is_zero(self):
        e, *_ = self._ensemble()
        assert np.all(project(e, union_flow(EMPTY)) == 0.0)
