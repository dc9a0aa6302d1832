"""Hurst estimation, Gaussianity z-tests, and variance profiles."""

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sifbm.flows import (
    TimeChange,
    flow_weights,
    flows_through,
    make_elementary_flow,
    predicted_increment_moment,
    project,
    time_change,
)
from sifbm.gaussian import HurstParam, build_cov_matrix, cholesky, sample_ensemble
from sifbm.rects import rect
from sifbm.storage import PROFILE_BLOCK_ROWS, write_profile_csv
from sifbm.stats import (
    PROFILE_DTYPE,
    DegenerateDataError,
    GaussianityReport,
    VarianceProfile,
    gaussianity_check,
    hurst_estimate,
    variance_profile,
)


def exact_projection(h, points=16, n=20_000, seed=100, corner=(1.0, 1.0)):
    f = flows_through(rect(*corner), points=points)
    fac = cholesky(build_cov_matrix(flow_weights(f)[0], HurstParam(h)))
    e = sample_ensemble(fac, n, seed=seed)
    return project(e, f), time_change(f)


def moments(paths):
    """The second-moment matrix of the paths and their count."""
    return (paths.T @ paths) / len(paths), len(paths)


def fbm_paths(h, theta, n, seed):
    """One-parameter fBm sampled exactly at the given theta values."""
    theta = np.asarray(theta)
    cov = 0.5 * (
        theta[:, None] ** (2 * h)
        + theta[None, :] ** (2 * h)
        - np.abs(theta[:, None] - theta[None, :]) ** (2 * h)
    )
    lower = np.linalg.cholesky(cov + 1e-14 * np.eye(len(theta)))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, len(theta))) @ lower.T


class TestHurstEstimate:
    def test_recovers_h_030(self):
        paths, tc = exact_projection(0.3, points=64)
        est = hurst_estimate(*moments(paths), tc)
        assert est == pytest.approx(0.30, abs=0.05)

    def test_recovers_h_050_brownian(self):
        theta = np.linspace(0, 1, 64) ** 2
        paths = fbm_paths(0.5, theta, 20_000, seed=8)
        tc = TimeChange(np.linspace(0, 1, 64), theta)
        assert hurst_estimate(*moments(paths), tc) == pytest.approx(0.50, abs=0.05)

    def test_constant_paths_rejected(self):
        tc = TimeChange(np.linspace(0, 1, 16), np.linspace(0, 1, 16))
        with pytest.raises(DegenerateDataError):
            hurst_estimate(np.zeros((16, 16)), 2000, tc)

    def test_scale_invariant(self):
        paths, tc = exact_projection(0.25, points=16, n=2000)
        a = hurst_estimate(*moments(paths), tc)
        b = hurst_estimate(*moments(3.7 * paths), tc)
        assert a == pytest.approx(b, rel=1e-9)

    def test_grid_reparameterization_invariant(self):
        # the regression uses theta, so relabeling the grid changes nothing
        paths, tc = exact_projection(0.35, points=16, n=2000)
        warped = TimeChange(np.exp(tc.grid), tc.values)
        assert hurst_estimate(*moments(paths), tc) == hurst_estimate(*moments(paths), warped)

    def test_too_few_distinct_theta(self):
        tc = TimeChange(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
        with pytest.raises(DegenerateDataError):
            hurst_estimate(*moments(np.random.default_rng(0).standard_normal((2000, 4))), tc)


def loop_hurst(paths, tc):
    """The per-increment loop over paths that reading the moment matrix
    replaced."""
    theta = np.asarray(tc.values)
    if len(np.unique(theta)) < 8:
        raise DegenerateDataError("need at least 8 distinct time-change values")
    xs, ys = [], []
    for i in range(paths.shape[1] - 1):
        dtheta = theta[i + 1] - theta[i]
        if dtheta <= 0:
            continue
        v = float(np.mean((paths[:, i + 1] - paths[:, i]) ** 2))
        if v <= 0:
            raise DegenerateDataError("zero variance increment")
        xs.append(np.log(dtheta))
        ys.append(np.log(v))
    if len(xs) < 2:
        raise DegenerateDataError("no usable increments (constant time change)")
    return float(np.polyfit(xs, ys, 1)[0] / 2.0)


@st.composite
def hurst_inputs(draw):
    """Gaussian paths with random column scales, and a nondecreasing time
    change with ties, sometimes too few distinct values."""
    k = draw(st.integers(4, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(hnp.arrays(np.float64, k, elements=st.floats(0.1, 10)))
    paths = rng.standard_normal((1000, k)) * scales
    steps = draw(hnp.arrays(np.float64, k, elements=st.sampled_from([0.0, 0.5]) | st.floats(0.01, 3)))
    # equal positive steps leave the regression slope undefined
    positive = steps[1:][steps[1:] > 0]
    assume(positive.size == 0 or np.ptp(np.log(positive)) > 0.1)
    return paths, TimeChange(np.arange(float(k)), np.cumsum(steps))


class TestHurstMoments:
    @given(hurst_inputs())
    @settings(deadline=None, max_examples=100)
    def test_matches_loop_reference(self, args):
        paths, tc = args
        try:
            want = loop_hurst(paths, tc)
        except DegenerateDataError as exc:
            with pytest.raises(DegenerateDataError, match=str(exc)):
                hurst_estimate(*moments(paths), tc)
            return
        assert hurst_estimate(*moments(paths), tc) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestGaussianity:
    def test_exact_gaussian_passes(self):
        x = np.random.default_rng(3).standard_normal(20_000)
        assert gaussianity_check(x).passed

    def test_exponential_fails_on_skewness(self):
        # exponential skewness is 2, far beyond 4*sqrt(6/n)
        x = np.random.default_rng(4).exponential(size=20_000)
        rep = gaussianity_check(x)
        assert not rep.passed
        assert abs(rep.skewness_z) > 4

    def test_bernoulli_closed_form(self):
        # Bernoulli(1/4): skewness 2/sqrt(3), excess kurtosis -2/3
        x = np.array([0.0, 0.0, 0.0, 1.0] * 300)
        rep = gaussianity_check(x)
        assert rep.skewness_z * np.sqrt(6.0 / x.size) == pytest.approx(2 / np.sqrt(3), abs=1e-12)
        assert rep.excess_kurtosis_z * np.sqrt(24.0 / x.size) == pytest.approx(-2 / 3, abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateDataError):
            gaussianity_check(np.ones(2000))

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            gaussianity_check(np.random.default_rng(0).standard_normal(100))


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import sys, sifbm; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def scalar_profile(paths, tc, h, predicted=None):
    """The per-pair reference: one tuple of Python floats per grid pair, in
    row-major pair order, with the default prediction in scalar arithmetic."""
    n, k = paths.shape
    m = (paths.T @ paths) / n
    theta, grid = tc.values, tc.grid
    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            observed = max(m[i, i] + m[j, j] - 2.0 * m[i, j], 0.0)
            if predicted is not None:
                pred = float(predicted[i, j])
            else:
                pred = abs(theta[j] - theta[i]) ** h.two_h
            rows.append((
                float(grid[i]), float(grid[j]), float(theta[i]), float(theta[j]),
                pred, float(observed), float(observed * np.sqrt(2.0 / n)),
            ))
    return rows


def default_branch_rows(m, n, tc, h):
    """The rows ``variance_profile`` built when it was passed no prediction,
    before the prediction became required: the power law
    |theta_t - theta_s|^{2H} on each grid pair, in array arithmetic."""
    theta = tc.values
    d = np.diag(m)
    i, j = np.triu_indices(m.shape[0], 1)
    rows = np.empty(len(i), PROFILE_DTYPE)
    rows["s"], rows["t"] = tc.grid[i], tc.grid[j]
    rows["theta_s"], rows["theta_t"] = theta[i], theta[j]
    rows["predicted"] = np.abs(theta[j] - theta[i]) ** h.two_h
    rows["observed"] = np.maximum(d[i] + d[j] - 2.0 * m[i, j], 0.0)
    rows["stderr"] = rows["observed"] * np.sqrt(2.0 / n)
    return rows


def power_law(tc, h):
    """|theta_t - theta_s|^{2H} over all grid pairs: the exact field's
    increment moments along an elementary flow with time change ``tc``."""
    theta = tc.values
    return np.abs(theta[:, None] - theta[None, :]) ** h.two_h


@st.composite
def elementary_flows(draw):
    """An elementary flow in 1-3 dimensions on a random increasing grid: its
    corners grow coordinatewise by steps from a small pool or any size, so
    values repeat or stay degenerate, after an empty prefix of any length."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(2, 12))
    step = st.sampled_from([0.0, 0.25]) | st.floats(0, 2)
    corners = np.cumsum(draw(hnp.arrays(np.float64, (k, dim), elements=step)), axis=0)
    empty = draw(st.integers(0, k - 1))
    grid = np.cumsum(draw(hnp.arrays(np.float64, k, elements=st.floats(0.01, 1))))
    return make_elementary_flow(grid, [None] * empty + [tuple(c) for c in corners[empty:].tolist()])


def write_rows_csv(rows, path):
    """The per-row profile writer the record-array writer replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "t", "theta_s", "theta_t", "predicted", "observed", "stderr"])
        for r in rows:
            w.writerow(repr(v) for v in r)


def write_profile_reference(rows, path):
    """The csv-module profile writer that formatting each distinct float once
    replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(rows.dtype.names)
        w.writerows(rows.tolist())


# Values the dedup must keep apart or format specially: both zeros, NaNs
# with other payloads and signs, infinities and the extreme subnormals.
SPECIAL_FLOATS = [0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324, 2.2250738585072014e-308]
SPECIAL_FLOATS += np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001], np.uint64
).view(np.float64).tolist()


@st.composite
def profile_records(draw):
    """``PROFILE_DTYPE`` records of any float64s, repeats from a small pool
    mixed in, and a column holding both 0.0 and -0.0 whenever there are two
    rows."""
    n = draw(st.integers(0, 40))
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    pool = draw(st.lists(floats, min_size=1, max_size=4)) + SPECIAL_FLOATS
    flat = draw(hnp.arrays(np.float64, (n, 7), elements=floats | st.sampled_from(pool)))
    if n >= 2:
        col = draw(st.integers(0, 6))
        i, j = draw(st.permutations(range(n)))[:2]
        flat[i, col], flat[j, col] = 0.0, -0.0
    rows = np.empty(n, PROFILE_DTYPE)
    rows.view(np.float64).reshape(n, 7)[:] = flat
    return rows


@st.composite
def profile_inputs(draw):
    """Paths, a nondecreasing time change (ties included) and, half the time,
    an explicit pairwise prediction matrix."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(2, 12))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    paths = draw(hnp.arrays(np.float64, (n, k), elements=values))
    steps = draw(hnp.arrays(np.float64, k, elements=st.sampled_from([0.0, 0.25]) | st.floats(0, 2)))
    grid = np.cumsum(draw(hnp.arrays(np.float64, k, elements=st.floats(0.01, 1))))
    tc = TimeChange(grid, np.cumsum(steps))
    predicted = draw(st.none() | hnp.arrays(np.float64, (k, k), elements=st.floats(0, 10)))
    return paths, tc, HurstParam(draw(st.sampled_from([0.05, 0.2, 0.35, 0.5]))), predicted


class TestVarianceProfile:
    @given(profile_inputs())
    @settings(deadline=None)
    def test_matches_scalar_reference(self, args):
        paths, tc, h, predicted = args
        vp = variance_profile(*moments(paths), tc, power_law(tc, h) if predicted is None else predicted)
        want = scalar_profile(paths, tc, h, predicted)
        assert vp.rows.dtype == PROFILE_DTYPE and not vp.rows.flags.writeable
        assert len(vp.rows) == len(want)
        want = np.array(want, dtype=np.float64).reshape(len(want), 7)
        got = vp.rows.copy().view(np.float64).reshape(len(want), 7)
        if predicted is None:
            # an array power may differ from the scalar one in the last bit
            np.testing.assert_array_max_ulp(got[:, 4], want[:, 4], maxulp=1)
            got[:, 4] = want[:, 4]
        assert np.array_equal(got, want)
        for k in (0.5, 4.0):
            frac = vp.fraction_within(k)
            ok = sum(1 for r in want if abs(r[5] - r[4]) <= k * r[6])
            assert type(frac) is float and frac == ok / len(want)

    @given(elementary_flows(), st.floats(0.01, 0.5), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_flow_prediction_matches_default_branch(self, f, hv, n, seed):
        # an elementary flow's own law is the power law, so the required
        # prediction leaves every profile row as the default branch built it
        h = HurstParam(hv)
        tc = time_change(f)
        paths = np.random.default_rng(seed).standard_normal((n, len(f.grid)))
        m = moments(paths)[0]
        got = variance_profile(m, n, tc, predicted_increment_moment(f, h)).rows
        want = default_branch_rows(m, n, tc, h)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(profile_inputs())
    @settings(deadline=None, max_examples=50)
    def test_csv_bytes_match_per_row_writer(self, args):
        paths, tc, h, predicted = args
        if predicted is None:
            predicted = np.zeros((paths.shape[1],) * 2)
        vp = variance_profile(*moments(paths), tc, predicted)
        with tempfile.TemporaryDirectory() as d:
            new, old = Path(d) / "new.csv", Path(d) / "old.csv"
            write_profile_csv(vp, new)
            write_rows_csv(scalar_profile(paths, tc, h, predicted), old)
            assert new.read_bytes() == old.read_bytes()

    @given(profile_records())
    @example(np.zeros(0, PROFILE_DTYPE))
    @example(np.array([(0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0)], PROFILE_DTYPE))
    @settings(deadline=None, max_examples=200)
    def test_csv_bytes_match_csv_module(self, rows):
        with tempfile.TemporaryDirectory() as d:
            new, ref = Path(d) / "new.csv", Path(d) / "ref.csv"
            write_profile_csv(VarianceProfile(rows), new)
            write_profile_reference(rows, ref)
            assert new.read_bytes() == ref.read_bytes()

    def test_csv_bytes_match_csv_module_across_blocks(self, tmp_path):
        # blocks format their distinct values apart: repeats, both zeros and
        # NaN straddle the block boundaries
        n = 2 * PROFILE_BLOCK_ROWS + 3
        pool = np.array(SPECIAL_FLOATS + [0.1, 1 / 3, 2.0])
        flat = np.random.default_rng(5).choice(pool, size=(n, 7))
        flat[:, 4] = np.random.default_rng(6).standard_normal(n)
        rows = np.empty(n, PROFILE_DTYPE)
        rows.view(np.float64).reshape(n, 7)[:] = flat
        write_profile_csv(VarianceProfile(rows), tmp_path / "new.csv")
        write_profile_reference(rows, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_constant_flow_all_zero(self):
        tc = TimeChange(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        paths = np.tile(np.random.default_rng(1).standard_normal((500, 1)), (1, 2))
        vp = variance_profile(*moments(paths), tc, power_law(tc, HurstParam(0.3)))
        assert np.all(vp.rows["predicted"] == 0) and np.all(vp.rows["observed"] == 0)
        assert vp.fraction_within() == 1.0

    def test_exact_field_within_bands(self):
        paths, tc = exact_projection(0.35, points=24, corner=(2.0, 1.5))
        f = flows_through(rect(2.0, 1.5), points=24)
        vp = variance_profile(*moments(paths), tc, predicted_increment_moment(f, HurstParam(0.35)))
        assert vp.fraction_within(4.0) >= 0.95

    def test_brownian_linear_theta(self):
        theta = np.linspace(0, 1, 16)
        paths = fbm_paths(0.5, theta, 20_000, seed=17)
        tc = TimeChange(theta, theta)
        vp = variance_profile(*moments(paths), tc, power_law(tc, HurstParam(0.5)))
        r = vp.rows
        assert r["predicted"] == pytest.approx(np.abs(r["theta_t"] - r["theta_s"]))
        assert vp.fraction_within(4.0) >= 0.95

    def test_predicted_zero_iff_theta_equal(self):
        tc = TimeChange(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0]))
        paths = np.random.default_rng(0).standard_normal((100, 3))
        vp = variance_profile(*moments(paths), tc, power_law(tc, HurstParam(0.3)))
        r = vp.rows
        assert np.array_equal(r["predicted"] == 0, r["theta_s"] == r["theta_t"])

    def test_wrong_h_detected(self):
        # data at H=0.2 against a prediction at H=0.45 blows the bands
        paths, tc = exact_projection(0.2, points=16, corner=(2.0, 2.0))
        f = flows_through(rect(2.0, 2.0), points=16)
        vp = variance_profile(*moments(paths), tc, predicted_increment_moment(f, HurstParam(0.45)))
        assert vp.fraction_within(4.0) < 0.95
