"""Moving-average representation: kernel, normalization, simulation, and the
H = 1/2 Brownian special case.

Unit tests run on a coarsened grid spec with correspondingly relaxed
tolerances; the acceptance suite exercises the default grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sifbm.flows import flows_through, project, required_flow_indices, time_change
from sifbm.gaussian import HurstParam, build_cov_matrix, cholesky, sample_ensemble
from sifbm.intrep import (
    GridSpec,
    HalfCaseError,
    RepConfig,
    STREAM_BLOCK,
    build_kernel_grid,
    discretized_covariance,
    discretized_factor,
    fbm_covariance,
    half_case_simulate,
    mvn_kernel,
    normalization_const,
    simulate_via_integral,
)
from sifbm.rects import rect

COARSE = GridSpec(cells_per_mass=512)


class TestKernel:
    def test_zero_mass_vanishes(self):
        h = HurstParam(0.3)
        u = np.linspace(-3, 3, 50) + 0.01
        assert np.all(mvn_kernel(0.0, u, h) == 0.0)

    def test_midpoint_zero(self):
        # |1 - 0.5|^a == |0.5|^a
        for hv in (0.1, 0.3, 0.45):
            assert mvn_kernel(1.0, 0.5, HurstParam(hv)) == 0.0

    def test_negative_axis_value(self):
        # 2^{-0.2} - 1
        got = mvn_kernel(1.0, -1.0, HurstParam(0.3))
        assert got == pytest.approx(2 ** (-0.2) - 1)
        assert got == pytest.approx(-0.12945, abs=5e-6)

    def test_half_redirects(self):
        with pytest.raises(HalfCaseError):
            mvn_kernel(1.0, 0.3, HurstParam(0.5))

    def test_antisymmetric_about_midpoint(self):
        # k(m, m/2 + x) = -k(m, m/2 - x); dyadic offsets keep the reflected
        # kernel arguments bit-exact, so the identity holds with no tolerance
        h = HurstParam(0.25)
        mass = 2.0
        x = np.arange(1, 60) / 64.0
        left = mvn_kernel(mass, mass / 2 - x, h)
        right = mvn_kernel(mass, mass / 2 + x, h)
        assert np.array_equal(right, -left)


class TestGrid:
    def test_singularities_on_edges(self):
        g = build_kernel_grid([0.25, 1.0], COARSE)
        for s in (0.0, 0.25, 1.0):
            assert np.min(np.abs(g.edges - s)) == 0.0

    def test_midpoints_off_singularities(self):
        g = build_kernel_grid([0.25, 1.0], COARSE)
        mids, widths = g.midpoints, g.widths
        for s in (0.0, 0.25, 1.0):
            gap = np.abs(mids - s)
            assert np.all(gap >= widths / 2 - 1e-15)

    def test_truncation_bounds(self):
        g = build_kernel_grid([2.0], COARSE)
        assert g.edges[0] == pytest.approx(-50.0 * 2.0)
        assert g.edges[-1] == pytest.approx(2.0 * 2.0)

    def test_refinement_increases_cells_near_singularities(self):
        fine = build_kernel_grid([1.0], COARSE)
        base_step = 1.0 / COARSE.cells_per_mass
        near = np.abs(fine.midpoints) < 0.01
        assert np.all(fine.widths[near] < base_step)


class TestNormalization:
    def test_definition_self_check(self):
        # C(H)^2 * quadrature integral == 1 by construction
        for hv in (0.2, 0.35):
            h = HurstParam(hv)
            c = normalization_const(h, COARSE)
            g = build_kernel_grid([1.0], COARSE)
            k = mvn_kernel(1.0, g.midpoints, h)
            integral = float(np.sum(k * k * g.widths))
            assert c**2 * integral == pytest.approx(1.0, abs=1e-12)

    def test_refinement_oracle(self):
        # Richardson extrapolation with the known cell^{2H} error rate; the
        # constant tracks the quadrature it cancels against, so its distance
        # from the extrapolated limit is the singular-cell deficit
        h = HurstParam(0.3)

        def integral(spec):
            g = build_kernel_grid([1.0], spec)
            k = mvn_kernel(1.0, g.midpoints, h)
            return float(np.sum(k * k * g.widths))

        i1, i2 = integral(COARSE.refine(2)), integral(COARSE.refine(4))
        r = 2.0 ** (-2 * h.value)
        c_ext = (i2 + (i2 - i1) * r / (1 - r)) ** -0.5
        c0 = normalization_const(h, COARSE)
        assert abs(c0 - c_ext) / c_ext < 1e-2
        # the default grid is 8x denser and correspondingly closer
        c_def = normalization_const(h, GridSpec())
        assert abs(c_def - c_ext) / c_ext < 2.5e-3

    def test_tail_insensitive(self):
        # the |.|-kernel tail decays like |u|^{2H-3}, so widening the window
        # moves the constant at the sub-percent level, not below
        h = HurstParam(0.3)
        wide = GridSpec(truncation_factor=100.0, margin=3.0, cells_per_mass=512)
        c0 = normalization_const(h, COARSE)
        c1 = normalization_const(h, wide)
        assert abs(c0 - c1) / c1 < 2e-2

    def test_too_coarse_rejected(self):
        h = HurstParam(0.1)
        with pytest.raises(ValueError, match="not converged"):
            normalization_const(h, GridSpec(cells_per_mass=8, refine_factor=1))


class TestSimulate:
    def test_zero_mass_paths_zero(self):
        cfg = RepConfig(HurstParam(0.3), seed=1, grid=COARSE)
        pe = simulate_via_integral([0.0], cfg, 50)
        assert np.all(pe.paths == 0.0)

    def test_unit_variance(self):
        cfg = RepConfig(HurstParam(0.3), seed=2, grid=COARSE)
        n = 20_000
        pe = simulate_via_integral([1.0], cfg, n)
        var = float(np.mean(pe.paths[:, 0] ** 2))
        assert var == pytest.approx(1.0, rel=0.03)

    def test_decreasing_masses_rejected(self):
        cfg = RepConfig(HurstParam(0.3), seed=1, grid=COARSE)
        with pytest.raises(ValueError, match="nondecreasing"):
            simulate_via_integral([1.0, 0.5], cfg, 10)

    def test_half_redirects(self):
        cfg = RepConfig(HurstParam(0.5), seed=1, grid=COARSE)
        with pytest.raises(HalfCaseError):
            simulate_via_integral([1.0], cfg, 10)

    def test_deterministic(self):
        cfg = RepConfig(HurstParam(0.35), seed=9, grid=GridSpec(cells_per_mass=64, refine_factor=2))
        a = simulate_via_integral([0.5, 1.0], cfg, 300)
        b = simulate_via_integral([0.5, 1.0], cfg, 300)
        assert np.array_equal(a.paths, b.paths)

    def test_prefix_stable_across_block_boundary(self):
        assert 300 < 2 * STREAM_BLOCK < 700
        cfg = RepConfig(HurstParam(0.35), seed=9, grid=GridSpec(cells_per_mass=64, refine_factor=2))
        a = simulate_via_integral([0.0, 0.5, 1.0], cfg, 300)
        b = simulate_via_integral([0.0, 0.5, 1.0], cfg, 700)
        assert np.array_equal(a.paths, b.paths[:300])
        assert np.all(b.paths[:, 0] == 0.0)

    def test_covariance_matches_fbm(self):
        h = HurstParam(0.3)
        cfg = RepConfig(h, seed=4, grid=COARSE)
        masses = [0.5, 0.75, 1.0]
        n = 20_000
        pe = simulate_via_integral(masses, cfg, n)
        emp = (pe.paths.T @ pe.paths) / n
        want = fbm_covariance(masses, h)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
        assert np.all(np.abs(emp - want) <= 4 * se)

    def test_single_brownian_drives_whole_flow(self):
        # same seed, nested mass lists: shared masses see the same increments
        # (bit-level equality across different lists is not guaranteed, since
        # the factor is recomputed, so compare at fp-roundoff tolerance)
        cfg = RepConfig(HurstParam(0.3), seed=6, grid=COARSE)
        a = simulate_via_integral([0.5, 1.0], cfg, 20)
        b = simulate_via_integral([0.5, 1.0, 1.0], cfg, 20)
        assert np.allclose(a.paths[:, 0], b.paths[:, 0], rtol=1e-10, atol=1e-12)
        assert np.array_equal(b.paths[:, 1], b.paths[:, 2])


class TestDiscretizedCovariance:
    def test_single_mass_exact_by_scaling(self):
        # the unit-grid normalization makes single-mass variance exact
        for theta in (0.25, 1.0, 4.0):
            for hv in (0.2, 0.35):
                got = discretized_covariance([theta], HurstParam(hv), COARSE)[0, 0]
                assert got == pytest.approx(theta ** (2 * hv), rel=1e-10)

    def test_error_decreases_under_refinement(self):
        # two joint refinement steps (step halved, truncation widened): the
        # covariance error against the closed form drops monotonically
        h = HurstParam(0.3)
        masses = [0.5, 0.75, 1.0]
        want = fbm_covariance(masses, h)
        errs = []
        for spec in (COARSE, COARSE.refine_overall(2), COARSE.refine_overall(4)):
            got = discretized_covariance(masses, h, spec)
            errs.append(float(np.max(np.abs(got - want))))
        assert errs[0] > errs[1] > errs[2]


# nondecreasing mass lists with zeros and repeats: a few levels, each repeated
_LEVELS = st.sampled_from([0.0, 0.0, 0.125, 0.3, 0.5, 0.77, 1.0, 1.5])


class TestDiscretizedFactor:
    @settings(max_examples=40, deadline=None)
    @given(
        masses=st.lists(_LEVELS, min_size=1, max_size=7).map(sorted),
        # HurstParam admits H in (0, 1/2]; 1/2 itself has no kernel
        hv=st.floats(0.1, 0.5, exclude_max=True),
    )
    def test_reproduces_discretized_covariance(self, masses, hv):
        h = HurstParam(hv)
        sigma = discretized_covariance(masses, h, COARSE)
        f = discretized_factor(masses, h, COARSE)
        assert f.shape == (len(masses), len(set(masses) - {0.0}))
        assert np.max(np.abs(f @ f.T - sigma)) <= 1e-10 * np.max(np.abs(sigma))
        m = np.asarray(masses)
        for i in range(m.size):
            for j in range(i + 1, m.size):
                if m[i] == m[j]:
                    assert np.array_equal(f[i], f[j])
        assert np.all(f[m == 0.0] == 0.0)


class TestHalfCase:
    def test_zero_mass(self):
        pe = half_case_simulate([0.0], seed=1, n_samples=20)
        assert np.all(pe.paths == 0.0)

    def test_unit_variance(self):
        n = 20_000
        pe = half_case_simulate([1.0], seed=2, n_samples=n)
        var = float(np.mean(pe.paths[:, 0] ** 2))
        assert var == pytest.approx(1.0, rel=0.03)

    def test_covariance_is_min(self):
        n = 20_000
        s, t = 0.4, 1.3
        pe = half_case_simulate([s, t], seed=3, n_samples=n)
        cov = float(np.mean(pe.paths[:, 0] * pe.paths[:, 1]))
        se = np.sqrt((s * t + s**2) / n)
        assert abs(cov - s) <= 3 * se

    def test_deterministic(self):
        a = half_case_simulate([0.5, 1.0], seed=11, n_samples=40)
        b = half_case_simulate([0.5, 1.0], seed=11, n_samples=40)
        assert np.array_equal(a.paths, b.paths)

    def test_prefix_stable_across_block_boundary(self):
        a = half_case_simulate([0.5, 1.0], seed=11, n_samples=300)
        b = half_case_simulate([0.5, 1.0], seed=11, n_samples=700)
        assert np.array_equal(a.paths, b.paths[:300])


class TestCrossValidation:
    def test_matches_exact_field_projection(self):
        # increment variances from the representation and from projecting the
        # exact field onto the same flow agree: two-sample ratio in [0.9, 1.1]
        h = 0.3
        n = 20_000
        f = flows_through(rect(1.2, 0.9), points=8)
        tc = time_change(f)
        idx = sorted(required_flow_indices(f), key=lambda r: r.corner)
        e = sample_ensemble(cholesky(build_cov_matrix(idx, HurstParam(h))), n, seed=51)
        proj = project(e, f)
        cfg = RepConfig(HurstParam(h), seed=52, grid=COARSE)
        rep = simulate_via_integral(tc.values, cfg, n)
        for j in (1, 4, 7):
            inc_a = proj.paths[:, j] - proj.paths[:, 0]
            inc_b = rep.paths[:, j] - rep.paths[:, 0]
            ratio = float(np.mean(inc_a**2) / np.mean(inc_b**2))
            assert 0.9 <= ratio <= 1.1
