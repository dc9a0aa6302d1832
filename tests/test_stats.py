"""Hurst estimation, Gaussianity z-tests, and variance profiles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sifbm.flows import TimeChange, flows_through, project, time_change, required_flow_indices
from sifbm.gaussian import HurstParam, build_cov_matrix, cholesky, sample_ensemble
from sifbm.rects import rect
from sifbm.stats import (
    DegenerateDataError,
    GaussianityReport,
    gaussianity_check,
    hurst_estimate,
    variance_profile,
)


def exact_projection(h, points=16, n=20_000, seed=100, corner=(1.0, 1.0)):
    f = flows_through(rect(*corner), points=points)
    idx = sorted(required_flow_indices(f), key=lambda r: r.corner)
    fac = cholesky(build_cov_matrix(idx, HurstParam(h)))
    e = sample_ensemble(fac, n, seed=seed)
    return project(e, f), time_change(f)


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
        pe, tc = exact_projection(0.3, points=64)
        est = hurst_estimate(pe.paths, tc)
        assert est == pytest.approx(0.30, abs=0.05)

    def test_recovers_h_050_brownian(self):
        theta = np.linspace(0, 1, 64) ** 2
        paths = fbm_paths(0.5, theta, 20_000, seed=8)
        tc = TimeChange(np.linspace(0, 1, 64), theta)
        assert hurst_estimate(paths, tc) == pytest.approx(0.50, abs=0.05)

    def test_constant_paths_rejected(self):
        tc = TimeChange(np.linspace(0, 1, 16), np.linspace(0, 1, 16))
        with pytest.raises(DegenerateDataError):
            hurst_estimate(np.zeros((2000, 16)), tc)

    def test_scale_invariant(self):
        pe, tc = exact_projection(0.25, points=16, n=2000)
        a = hurst_estimate(pe.paths, tc)
        b = hurst_estimate(3.7 * pe.paths, tc)
        assert a == pytest.approx(b, rel=1e-9)

    def test_grid_reparameterization_invariant(self):
        # the regression uses theta, so relabeling the grid changes nothing
        pe, tc = exact_projection(0.35, points=16, n=2000)
        warped = TimeChange(np.exp(tc.grid), tc.values)
        assert hurst_estimate(pe.paths, tc) == hurst_estimate(pe.paths, warped)

    def test_too_few_distinct_theta(self):
        tc = TimeChange(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
        with pytest.raises(DegenerateDataError):
            hurst_estimate(np.random.default_rng(0).standard_normal((2000, 4)), tc)


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


class TestVarianceProfile:
    def test_constant_flow_all_zero(self):
        tc = TimeChange(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        paths = np.tile(np.random.default_rng(1).standard_normal((500, 1)), (1, 2))
        vp = variance_profile(paths, tc, HurstParam(0.3))
        assert all(r.predicted == 0 and r.observed == 0 for r in vp.rows)
        assert vp.fraction_within() == 1.0

    def test_exact_field_within_bands(self):
        pe, tc = exact_projection(0.35, points=24, corner=(2.0, 1.5))
        vp = variance_profile(pe.paths, tc, HurstParam(0.35))
        assert vp.fraction_within(4.0) >= 0.95

    def test_brownian_linear_theta(self):
        theta = np.linspace(0, 1, 16)
        paths = fbm_paths(0.5, theta, 20_000, seed=17)
        tc = TimeChange(theta, theta)
        vp = variance_profile(paths, tc, HurstParam(0.5))
        for r in vp.rows:
            assert r.predicted == pytest.approx(abs(r.theta_t - r.theta_s))
        assert vp.fraction_within(4.0) >= 0.95

    def test_predicted_zero_iff_theta_equal(self):
        tc = TimeChange(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0]))
        paths = np.random.default_rng(0).standard_normal((100, 3))
        vp = variance_profile(paths, tc, HurstParam(0.3))
        for r in vp.rows:
            assert (r.predicted == 0) == (r.theta_s == r.theta_t)

    def test_pair_subsampling(self):
        tc = TimeChange(np.linspace(0, 1, 20), np.linspace(0, 1, 20))
        paths = np.random.default_rng(0).standard_normal((50, 20))
        vp = variance_profile(paths, tc, HurstParam(0.5), max_pairs=30)
        assert len(vp.rows) <= 30

    def test_wrong_h_detected(self):
        # data at H=0.2 against a prediction at H=0.45 blows the bands
        pe, tc = exact_projection(0.2, points=16, corner=(2.0, 2.0))
        vp = variance_profile(pe.paths, tc, HurstParam(0.45))
        assert vp.fraction_within(4.0) < 0.95
