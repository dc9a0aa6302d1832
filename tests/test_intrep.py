"""Moving-average representation: kernel, normalization, simulation, and the
H = 1/2 Brownian special case.

Unit tests run on a coarsened grid spec with correspondingly relaxed
tolerances; the acceptance suite exercises the default grid.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sifbm.flows import flow_weights, flows_through, project, time_change
from sifbm.gaussian import STREAM_BLOCK, HurstParam, build_cov_matrix, cholesky, sample_ensemble
from sifbm import intrep
from sifbm.intrep import (
    CELL_BLOCK,
    GridSpec,
    HalfCaseError,
    IntRepConfig,
    build_kernel_grid,
    discretized_covariance,
    discretized_factor,
    fbm_covariance,
    half_case_simulate,
    mvn_kernel,
    normalization_const,
    simulate_via_integral,
    verify_intrep,
)
from sifbm.rects import rect

COARSE = GridSpec(cells_per_mass=512)


def _unique_kernel_edges(masses, spec: GridSpec) -> np.ndarray:
    """The np.unique grid builder that ``build_kernel_grid`` replaced."""
    masses = [float(m) for m in masses]
    max_mass = max(masses)
    u_min = -spec.truncation_factor * max_mass
    u_max = (1.0 + spec.margin) * max_mass
    step = max_mass / spec.cells_per_mass
    n_base = int(round((u_max - u_min) / step))
    base = np.linspace(u_min, u_max, n_base + 1)
    crit = np.array(sorted({0.0} | {m for m in masses if m > 0}))
    edges = np.unique(np.concatenate([base, crit]))
    radius = spec.refine_radius_frac * max_mass
    lo, hi = edges[:-1], edges[1:]
    near = np.zeros(lo.size, dtype=bool)
    for c in crit:
        near |= (lo <= c + radius) & (hi >= c - radius)
    counts = np.where(near, spec.refine_factor, 1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    j = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts) + 1
    out = np.empty(offsets[-1] + 1)
    out[0] = edges[0]
    out[1:] = np.repeat(lo, counts) + np.repeat((hi - lo) / counts, counts) * j
    out[offsets[1:]] = hi
    return out


def _cells(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the cells between ``edges``."""
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def _loop_gram(masses, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """K diag(widths) K^T with one ``mvn_kernel`` call per mass, summed over
    the quadrature's blocks of CELL_BLOCK cells."""
    edges = build_kernel_grid(masses, spec).edges
    gram = np.zeros((len(masses), len(masses)))
    for start in range(0, edges.size - 1, CELL_BLOCK):
        mids, widths = _cells(edges[start:start + CELL_BLOCK + 1])
        kmat = np.empty((len(masses), mids.size))
        for i, m in enumerate(masses):
            kmat[i] = mvn_kernel(float(m), mids, h)
        gram += (kmat * widths) @ kmat.T
    return gram


def _loop_kernel_covariance(masses, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """``discretized_covariance`` with one ``mvn_kernel`` call per mass."""
    return _loop_normalization_const(h, spec) ** 2 * _loop_gram(masses, h, spec)


def _loop_normalization_const(h: HurstParam, spec: GridSpec) -> float:
    return float(_loop_gram([1.0], h, spec)[0, 0]) ** -0.5


def _whole_grid_gram(masses, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """K diag(widths) K^T in one product over every cell of the grid."""
    mids, widths = _cells(build_kernel_grid(masses, spec).edges)
    kmat = mvn_kernel(np.asarray(masses, dtype=float)[:, None], mids, h)
    return (kmat * widths) @ kmat.T


# grid masses: zero, repeats, dyadic values on base edges, and values off them
_GRID_MASSES = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.3, 0.5, 0.5, 0.77, 1.0, 1.0, 1.5, 2.0])
# dyadic steps and radii put c +- radius on base edges for dyadic masses
_GRID_SPECS = st.builds(
    GridSpec,
    truncation_factor=st.sampled_from([0.5, 2.0, 50.0]),
    margin=st.sampled_from([0.25, 1.0, 3.0]),
    cells_per_mass=st.sampled_from([8, 16, 64, 256]),
    refine_factor=st.sampled_from([1, 2, 3, 8]),
    refine_radius_frac=st.sampled_from([0.0, 0.01, 1 / 64, 1 / 16, 1 / 8, 0.3, 100.0]),
)


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
        mids, widths = _cells(build_kernel_grid([0.25, 1.0], COARSE).edges)
        for s in (0.0, 0.25, 1.0):
            gap = np.abs(mids - s)
            assert np.all(gap >= widths / 2 - 1e-15)

    def test_truncation_bounds(self):
        g = build_kernel_grid([2.0], COARSE)
        assert g.edges[0] == pytest.approx(-50.0 * 2.0)
        assert g.edges[-1] == pytest.approx(2.0 * 2.0)

    def test_refinement_increases_cells_near_singularities(self):
        mids, widths = _cells(build_kernel_grid([1.0], COARSE).edges)
        base_step = 1.0 / COARSE.cells_per_mass
        near = np.abs(mids) < 0.01
        assert np.all(widths[near] < base_step)

    @settings(max_examples=150, deadline=None)
    @given(
        masses=st.lists(_GRID_MASSES, min_size=1, max_size=6).map(sorted).filter(
            lambda m: m[-1] > 0
        ),
        spec=_GRID_SPECS,
    )
    # zero and duplicate masses; dyadic masses on base edges
    @example(masses=[0.0, 0.0, 0.5, 0.5, 1.0], spec=GridSpec(cells_per_mass=16))
    # c - radius and c + radius exactly on base edges (step and radius 1/16)
    @example(masses=[0.5, 1.0], spec=GridSpec(cells_per_mass=16, refine_radius_frac=1 / 16))
    # overlapping windows, and no subdivision at all
    @example(masses=[0.25, 0.3, 1.0], spec=GridSpec(cells_per_mass=8, refine_radius_frac=0.3))
    @example(masses=[0.25, 0.3, 1.0], spec=GridSpec(cells_per_mass=8, refine_factor=1))
    # windows past both ends of the grid
    @example(masses=[1.0], spec=GridSpec(truncation_factor=0.5, margin=0.25,
                                         cells_per_mass=8, refine_radius_frac=100.0))
    def test_matches_unique_builder(self, masses, spec):
        got = build_kernel_grid(masses, spec).edges
        want = _unique_kernel_edges(masses, spec)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGridCache:
    def test_same_key_same_grid(self):
        spec = GridSpec(cells_per_mass=64)
        g = build_kernel_grid([0.5, 1.0], spec)
        assert build_kernel_grid([0.5, 1.0], spec) is g
        with pytest.raises(ValueError, match="read-only"):
            g.edges[0] = 0.0

    def test_sequence_types_share_one_entry(self):
        spec = GridSpec(cells_per_mass=48)
        intrep._kernel_grid.cache_clear()
        g = build_kernel_grid([0.5, 1.0], spec)
        assert build_kernel_grid((0.5, 1.0), spec) is g
        assert build_kernel_grid(np.array([0.5, 1.0]), spec) is g
        assert intrep._kernel_grid.cache_info().currsize == 1

    def test_size_bounded(self):
        maxsize = intrep._kernel_grid.cache_info().maxsize
        assert maxsize == 16
        for k in range(2 * maxsize):
            build_kernel_grid([1.0 + k / 8], GridSpec(cells_per_mass=8))
            assert intrep._kernel_grid.cache_info().currsize <= maxsize

    def test_zeros_and_repeats_share_one_grid(self):
        # discretized_covariance asks for the grid of the whole list and
        # discretized_factor for that of its distinct positive masses
        h, masses = HurstParam(0.3), (0.0, 0.5, 0.5, 1.0)
        normalization_const(h, COARSE)  # its unit-mass grids are not counted
        intrep._kernel_grid.cache_clear()
        discretized_covariance(masses, h, COARSE)
        discretized_factor(masses, h, COARSE)
        info = intrep._kernel_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        with pytest.raises(ValueError, match="at least one positive mass"):
            build_kernel_grid([0.0, 0.0], COARSE)

    def test_verify_intrep_cold_equals_warm(self):
        ir = IntRepConfig(
            masses=(0.5, 0.75, 1.0),
            variance_masses=(0.25, 1.0),
            hursts=(0.3, 0.35),
            n_samples=300,
            grid=GridSpec(cells_per_mass=64, refine_factor=2),
        )
        first = verify_intrep(ir, seed=3).to_dict()
        normalization_const.cache_clear()
        intrep._kernel_grid.cache_clear()
        assert verify_intrep(ir, seed=3).to_dict() == first


class TestNormalization:
    def test_definition_self_check(self):
        # C(H)^2 * quadrature integral == 1 by construction
        for hv in (0.2, 0.35):
            h = HurstParam(hv)
            c = normalization_const(h, COARSE)
            mids, widths = _cells(build_kernel_grid([1.0], COARSE).edges)
            k = mvn_kernel(1.0, mids, h)
            integral = float(np.sum(k * k * widths))
            assert c**2 * integral == pytest.approx(1.0, abs=1e-12)

    def test_refinement_oracle(self):
        # Richardson extrapolation with the known cell^{2H} error rate; the
        # constant tracks the quadrature it cancels against, so its distance
        # from the extrapolated limit is the singular-cell deficit
        h = HurstParam(0.3)

        def integral(spec):
            mids, widths = _cells(build_kernel_grid([1.0], spec).edges)
            k = mvn_kernel(1.0, mids, h)
            return float(np.sum(k * k * widths))

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
        # functools.cache stores no exception, so a second call raises again
        for _ in range(2):
            with pytest.raises(ValueError, match="not converged"):
                normalization_const(h, GridSpec(cells_per_mass=8, refine_factor=1))


class TestSimulate:
    def test_zero_mass_paths_zero(self):
        paths = simulate_via_integral([0.0], 1, 50, HurstParam(0.3), COARSE)
        assert np.all(paths == 0.0)

    def test_unit_variance(self):
        n = 20_000
        paths = simulate_via_integral([1.0], 2, n, HurstParam(0.3), COARSE)
        var = float(np.mean(paths[:, 0] ** 2))
        assert var == pytest.approx(1.0, rel=0.03)

    def test_decreasing_masses_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            simulate_via_integral([1.0, 0.5], 1, 10, HurstParam(0.3), COARSE)

    def test_half_redirects(self):
        with pytest.raises(HalfCaseError):
            simulate_via_integral([1.0], 1, 10, HurstParam(0.5), COARSE)

    def test_deterministic(self):
        h, spec = HurstParam(0.35), GridSpec(cells_per_mass=64, refine_factor=2)
        a = simulate_via_integral([0.5, 1.0], 9, 300, h, spec)
        b = simulate_via_integral([0.5, 1.0], 9, 300, h, spec)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_block_boundary(self):
        assert 300 < 2 * STREAM_BLOCK < 700
        h, spec = HurstParam(0.35), GridSpec(cells_per_mass=64, refine_factor=2)
        a = simulate_via_integral([0.0, 0.5, 1.0], 9, 300, h, spec)
        b = simulate_via_integral([0.0, 0.5, 1.0], 9, 700, h, spec)
        assert np.array_equal(a, b[:300])
        assert np.all(b[:, 0] == 0.0)

    def test_prefix_stable_at_64_masses(self):
        masses = np.linspace(0.1, 1.0, 64)
        h, spec = HurstParam(0.3), GridSpec(cells_per_mass=64, refine_factor=2)
        for n, m in ((10, 300), (300, 700), (257, 1000)):
            a = simulate_via_integral(masses, 5, n, h, spec)
            b = simulate_via_integral(masses, 5, m, h, spec)
            assert np.array_equal(a, b[:n]), (n, m)

    def test_covariance_matches_fbm(self):
        h = HurstParam(0.3)
        masses = [0.5, 0.75, 1.0]
        n = 20_000
        paths = simulate_via_integral(masses, 4, n, h, COARSE)
        emp = (paths.T @ paths) / n
        want = fbm_covariance(masses, h)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
        assert np.all(np.abs(emp - want) <= 4 * se)

    def test_single_brownian_drives_whole_flow(self):
        # same seed, nested mass lists: shared masses see the same increments
        # (bit-level equality across different lists is not guaranteed, since
        # the factor is recomputed, so compare at fp-roundoff tolerance)
        h = HurstParam(0.3)
        a = simulate_via_integral([0.5, 1.0], 6, 20, h, COARSE)
        b = simulate_via_integral([0.5, 1.0, 1.0], 6, 20, h, COARSE)
        assert np.allclose(a[:, 0], b[:, 0], rtol=1e-10, atol=1e-12)
        assert np.array_equal(b[:, 1], b[:, 2])


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


class TestBroadcastKernel:
    @pytest.mark.parametrize("hv", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize(
        "masses", [[1.0], [0.25, 1.0, 4.0], [0.5, 0.75, 0.75, 1.0], [0.125, 0.3, 0.77, 1.5]]
    )
    def test_matches_per_mass_loop(self, masses, hv):
        h = HurstParam(hv)
        spec = GridSpec(cells_per_mass=256)
        want = _loop_kernel_covariance(masses, h, spec)
        assert normalization_const(h, spec) == _loop_normalization_const(h, spec)
        assert np.array_equal(discretized_covariance(masses, h, spec), want)
        distinct, inverse = np.unique(masses, return_inverse=True)
        lam, vec = np.linalg.eigh(_loop_kernel_covariance(distinct, h, spec))
        fd = vec * np.sqrt(np.where(lam > 1e-12 * lam[-1], lam, 0.0))
        assert np.array_equal(discretized_factor(masses, h, spec), fd[inverse])

    def test_negative_mass_in_array_rejected(self):
        with pytest.raises(ValueError, match="mass must be non-negative"):
            mvn_kernel(np.array([[0.5], [-1.0]]), np.linspace(-1.0, 1.0, 5), HurstParam(0.3))


class TestBlockedQuadrature:
    @settings(max_examples=40, deadline=None)
    @given(
        masses=st.lists(_LEVELS.filter(lambda m: m > 0), min_size=1, max_size=5).map(sorted),
        hv=st.floats(0.1, 0.5, exclude_max=True),
        spec=_GRID_SPECS,
        # the grid's cell count against the block: below, equal, one above,
        # and several blocks
        blocks=st.sampled_from(["below", "equal", "one_above", "several"]),
    )
    # the module's own block on a grid several blocks long
    @example(masses=[0.5, 1.0], hv=0.3, spec=GridSpec(cells_per_mass=1024), blocks="module")
    def test_matches_whole_grid_product(self, masses, hv, spec, blocks):
        h = HurstParam(hv)
        n_cells = build_kernel_grid(masses, spec).n_cells
        block = {
            "below": n_cells + 1, "equal": n_cells, "one_above": n_cells - 1,
            "several": max(n_cells // 5, 1), "module": CELL_BLOCK,
        }[blocks]
        assert blocks != "module" or n_cells > 4 * CELL_BLOCK
        want = _whole_grid_gram(masses, h, spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intrep, "CELL_BLOCK", block)
            got = intrep._kernel_gram(np.asarray(masses, dtype=float), h, spec)
        # a mass a few ulps off a base edge can leave zero-width cells whose
        # midpoint is the mass: both sums are NaN in that mass's row
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want), initial=0.0) <= 1e-12 * np.nanmax(np.abs(want), initial=0.0)

    def test_memory_flat_in_cell_count(self):
        # the grid is built and the constant computed beforehand: what is
        # left is the quadrature, which holds one block whatever the grid
        h, masses = HurstParam(0.3), [0.8, 0.9, 1.0]
        peaks = []
        for cells_per_mass in (512, 2048):
            spec = GridSpec(cells_per_mass=cells_per_mass)
            assert build_kernel_grid(masses, spec).n_cells > 2 * CELL_BLOCK
            normalization_const(h, spec)
            tracemalloc.start()
            try:
                discretized_covariance(masses, h, spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < len(masses) * CELL_BLOCK * 8


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
        paths = half_case_simulate([0.0], seed=1, n_samples=20)
        assert np.all(paths == 0.0)

    def test_unit_variance(self):
        n = 20_000
        paths = half_case_simulate([1.0], seed=2, n_samples=n)
        var = float(np.mean(paths[:, 0] ** 2))
        assert var == pytest.approx(1.0, rel=0.03)

    def test_covariance_is_min(self):
        n = 20_000
        s, t = 0.4, 1.3
        paths = half_case_simulate([s, t], seed=3, n_samples=n)
        cov = float(np.mean(paths[:, 0] * paths[:, 1]))
        se = np.sqrt((s * t + s**2) / n)
        assert abs(cov - s) <= 3 * se

    def test_deterministic(self):
        a = half_case_simulate([0.5, 1.0], seed=11, n_samples=40)
        b = half_case_simulate([0.5, 1.0], seed=11, n_samples=40)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_block_boundary(self):
        a = half_case_simulate([0.5, 1.0], seed=11, n_samples=300)
        b = half_case_simulate([0.5, 1.0], seed=11, n_samples=700)
        assert np.array_equal(a, b[:300])


class TestCrossValidation:
    def test_matches_exact_field_projection(self):
        # increment variances from the representation and from projecting the
        # exact field onto the same flow agree: two-sample ratio in [0.9, 1.1]
        h = 0.3
        n = 20_000
        f = flows_through(rect(1.2, 0.9), points=8)
        tc = time_change(f)
        idx = flow_weights(f)[0]
        e = sample_ensemble(cholesky(build_cov_matrix(idx, HurstParam(h))), n, seed=51)
        proj = project(e, f)
        rep = simulate_via_integral(tc.values, 52, n, HurstParam(h), COARSE)
        for j in (1, 4, 7):
            inc_a = proj[:, j] - proj[:, 0]
            inc_b = rep[:, j] - rep[:, 0]
            ratio = float(np.mean(inc_a**2) / np.mean(inc_b**2))
            assert 0.9 <= ratio <= 1.1
