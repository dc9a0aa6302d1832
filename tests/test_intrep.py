"""Moving-average representation: kernel, grid, the discretized law and its
draw, and the H = 1/2 Brownian special case.

Unit tests run on a coarsened grid spec with correspondingly relaxed
tolerances; the acceptance suite exercises the default grid.
"""

import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sifbm.flows import flow_weights, flows_through, project, time_change
from sifbm.gaussian import (
    STREAM_BLOCK,
    HurstParam,
    ResolutionError,
    block_draw,
    sample_ensemble,
)
from sifbm import intrep
from sifbm.config import load_config
from sifbm.intrep import (
    CELL_BLOCK,
    KERNEL_H_MAX,
    GridSpec,
    HalfCaseError,
    IntRepConfig,
    KernelLaw,
    draw,
    fbm_covariance,
    mvn_kernel,
    verify_intrep,
)
from sifbm.recovery import CriterionResult
from sifbm.rects import rect

COARSE = GridSpec(cells_per_mass=512)
INTREP_COARSE = Path(__file__).resolve().parents[1] / "benchmark" / "configs" / "intrep_coarse.json"


def _kernel_grid(masses, spec: GridSpec) -> np.ndarray:
    """The edges of the whole grid for a masses list: the quadrature's blocks
    joined, each block's first edge being the previous one's last."""
    blocks = list(intrep._kernel_grid_blocks(masses, spec))
    return np.concatenate([blocks[0], *(b[1:] for b in blocks[1:])])


def _unique_kernel_edges(masses, spec: GridSpec) -> np.ndarray:
    """The grid in one piece, through np.unique: a whole linspace base, each
    singular point's nearest base edge moved onto it when within
    4 * refine_factor ulps of the extent (a mass that close to the singular
    point kept below it is dropped), and every cell near a singular point
    split."""
    masses = [float(m) for m in masses]
    max_mass = max(masses)
    u_min = -spec.truncation_factor * max_mass
    u_max = (1.0 + spec.margin) * max_mass
    step = max_mass / spec.cells_per_mass
    n_base = int(round((u_max - u_min) / step))
    base = np.linspace(u_min, u_max, n_base + 1)
    tol = 4 * spec.refine_factor * np.spacing(max(-u_min, u_max))
    crit = [0.0]
    for m in sorted(m for m in masses if m > 0):
        if m > crit[-1] + tol:
            crit.append(m)
    crit = np.array(crit)
    for c in crit:
        i = np.argmin(np.abs(base - c))
        if abs(base[i] - c) <= tol:
            base[i] = c
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
    the quadrature's blocks of CELL_BLOCK cells, then the tails beyond the
    grid."""
    edges = _kernel_grid(masses, spec)
    gram = np.zeros((len(masses), len(masses)))
    for start in range(0, edges.size - 1, CELL_BLOCK):
        mids, widths = _cells(edges[start:start + CELL_BLOCK + 1])
        kmat = np.empty((len(masses), mids.size))
        for i, m in enumerate(masses):
            kmat[i] = mvn_kernel(float(m), mids, h)
        gram += (kmat * widths) @ kmat.T
    gram += _tails(masses, h, edges)
    return gram


def _loop_kernel_covariance(masses, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """``KernelLaw.covariances`` with one ``mvn_kernel`` call per mass."""
    return _loop_normalization_const(h, spec) ** 2 * _loop_gram(masses, h, spec)


def _loop_normalization_const(h: HurstParam, spec: GridSpec) -> float:
    return float(_loop_gram([1.0], h, spec)[0, 0]) ** -0.5


def _whole_grid_gram(masses, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """K diag(widths) K^T in one product over every cell of the grid, plus
    the tails beyond it."""
    edges = _kernel_grid(masses, spec)
    mids, widths = _cells(edges)
    kmat = mvn_kernel(np.asarray(masses, dtype=float)[:, None], mids, h)
    return (kmat * widths) @ kmat.T + _tails(masses, h, edges)


def _tails(masses, h: HurstParam, edges: np.ndarray) -> np.ndarray:
    """The quadrature's closed-form tails beyond the grid ``edges``."""
    return intrep._tails(np.asarray(masses, dtype=float), h, edges[0], edges[-1])


def _per_h_gram(masses: np.ndarray, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """K diag(widths) K^T for one H, summed over the quadrature's blocks in
    order, then the tails beyond the grid: one walk of the grid per H."""
    gram = np.zeros((masses.size, masses.size))
    blocks = list(intrep._kernel_grid_blocks(masses, spec))
    for e in blocks:
        k = mvn_kernel(masses[:, None], 0.5 * (e[:-1] + e[1:]), h)
        gram += (k * np.diff(e)) @ k.T
    gram += intrep._tails(masses, h, blocks[0][0], blocks[-1][-1])
    return gram


def _normalization_const(h: HurstParam, spec: GridSpec) -> float:
    """C(H) from the raw walk of the unit mass on ``spec``."""
    return float(_per_h_gram(np.ones(1), h, spec)[0, 0]) ** -0.5


def _covariance(masses, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """The law's covariance of ``masses`` for one H."""
    return KernelLaw([h]).covariances(masses, spec)[0]


def _simulate(masses, seed: int, n_samples: int, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """Paths along ``masses``, drawn from the law of its distinct positive
    masses."""
    m = np.asarray(masses, dtype=float)
    return draw(masses, _covariance(np.unique(m[m > 0]), h, spec), seed, n_samples)


def _factor(distinct: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The draw's factor on the sorted distinct masses ``distinct``, from the
    covariance ``cov`` of their positive ones: ``np.linalg.cholesky`` of the
    block of positive variance, with zero rows for a zero mass and for a
    mass of zero variance."""
    positive = distinct > 0
    f = np.zeros((distinct.size, int(np.count_nonzero(positive))))
    keep = np.flatnonzero(np.diag(cov) > 0)
    f[np.flatnonzero(positive)[keep, None], keep] = np.linalg.cholesky(cov[np.ix_(keep, keep)])
    return f


# grid masses: zero, repeats, dyadic values on base edges, and values off them
_GRID_MASSES = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.3, 0.5, 0.5, 0.77, 1.0, 1.0, 1.5, 2.0])
# dyadic steps and radii put c +- radius on base edges for dyadic masses
_GRID_SPECS = st.builds(
    GridSpec,
    truncation_factor=st.sampled_from([1.25, 2.0, 50.0]),
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

    def test_accurate_at_the_largest_accepted_h(self):
        # against |m - u|^a - |u|^a in 60-digit decimal arithmetic from the
        # same float inputs, away from the kernel's zero at u = m/2; the
        # cancellation costs about 1e-16/|a|, 5e-10 at KERNEL_H_MAX
        h = HurstParam(KERNEL_H_MAX)
        masses = np.array([0.125, 0.8, 1.0, 4.0])
        t = np.array([-3.1, -1.3, -0.7, -0.21, -0.013, 0.004, 0.17, 0.33, 0.41,
                      0.62, 0.77, 0.96, 0.999, 1.02, 1.4, 2.6, 5.3])
        u = masses[:, None] * t
        got = mvn_kernel(masses[:, None], u, h)
        with localcontext() as ctx:
            ctx.prec = 60
            a = Decimal(h.value) - Decimal("0.5")
            want = np.array([
                [float(abs(Decimal(m) - Decimal(x)) ** a - abs(Decimal(x)) ** a) for x in row]
                for m, row in zip(masses.tolist(), u.tolist())
            ])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-9

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
        edges = _kernel_grid([0.25, 1.0], COARSE)
        for s in (0.0, 0.25, 1.0):
            assert np.min(np.abs(edges - s)) == 0.0

    def test_midpoints_off_singularities(self):
        mids, widths = _cells(_kernel_grid([0.25, 1.0], COARSE))
        for s in (0.0, 0.25, 1.0):
            gap = np.abs(mids - s)
            assert np.all(gap >= widths / 2 - 1e-15)

    def test_truncation_bounds(self):
        edges = _kernel_grid([2.0], COARSE)
        assert edges[0] == pytest.approx(-2.0 * 2.0)
        assert edges[-1] == pytest.approx(2.0 * 2.0)

    def test_refinement_increases_cells_near_singularities(self):
        mids, widths = _cells(_kernel_grid([1.0], COARSE))
        base_step = 1.0 / COARSE.cells_per_mass
        near = np.abs(mids) < 0.01
        assert np.all(widths[near] < base_step)

    @settings(max_examples=150, deadline=None)
    @given(
        masses=st.lists(_GRID_MASSES, min_size=1, max_size=6).map(sorted).filter(
            lambda m: m[-1] > 0
        ),
        spec=_GRID_SPECS,
        # small blocks put windows and singular points across block edges
        block=st.one_of(st.integers(1, 40), st.just(CELL_BLOCK)),
    )
    # zero and duplicate masses; dyadic masses on base edges
    @example(masses=[0.0, 0.0, 0.5, 0.5, 1.0], spec=GridSpec(cells_per_mass=16), block=CELL_BLOCK)
    # c - radius and c + radius exactly on base edges (step and radius 1/16)
    @example(masses=[0.5, 1.0], spec=GridSpec(cells_per_mass=16, refine_radius_frac=1 / 16),
             block=CELL_BLOCK)
    # overlapping windows, and no subdivision at all
    @example(masses=[0.25, 0.3, 1.0], spec=GridSpec(cells_per_mass=8, refine_radius_frac=0.3),
             block=CELL_BLOCK)
    @example(masses=[0.25, 0.3, 1.0], spec=GridSpec(cells_per_mass=8, refine_factor=1),
             block=CELL_BLOCK)
    # windows past both ends of the grid
    @example(masses=[1.0], spec=GridSpec(truncation_factor=1.25, margin=0.25,
                                         cells_per_mass=8, refine_radius_frac=100.0),
             block=CELL_BLOCK)
    # blocks of 5 base cells at step 1/8 from -1.75 start at 0.125 and 0.75:
    # windows straddling both, and singular points on both
    @example(masses=[0.5, 1.0], spec=GridSpec(truncation_factor=1.75, margin=0.25,
                                              cells_per_mass=8, refine_radius_frac=0.3), block=5)
    @example(masses=[0.125, 0.75, 1.0], spec=GridSpec(truncation_factor=1.75, margin=0.25,
                                                      cells_per_mass=8, refine_factor=1), block=5)
    def test_matches_unique_builder(self, masses, spec, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intrep, "CELL_BLOCK", block)
            blocks = list(intrep._kernel_grid_blocks(masses, spec))
        assert all(b.size == block + 1 for b in blocks[:-1])
        assert 1 < blocks[-1].size <= block + 1
        assert all(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
        got = np.concatenate([blocks[0], *(b[1:] for b in blocks[1:])])
        want = _unique_kernel_edges(masses, spec)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(
        masses=st.lists(st.integers(1, 199).map(lambda k: k / 100), min_size=1, max_size=4).map(sorted),
        hv=st.floats(0.05, 0.5, exclude_max=True),
        spec=st.builds(
            GridSpec,
            truncation_factor=st.sampled_from([1.25, 2.0, 50.0]),
            margin=st.sampled_from([0.25, 1.0]),
            cells_per_mass=st.sampled_from([8, 256, 1024]),
            refine_factor=st.sampled_from([1, 3, 4, 8]),
            refine_radius_frac=st.sampled_from([0.0, 0.01, 0.3]),
        ),
    )
    # a base edge one ulp off the mass: before base edges were moved onto
    # singular points, these grids had zero-width cells and a NaN Gram
    @example(masses=[0.3], hv=0.3,
             spec=GridSpec(truncation_factor=1.25, margin=0.25, cells_per_mass=256))
    @example(masses=[0.1, 0.17], hv=0.3, spec=GridSpec(cells_per_mass=256, refine_factor=4))
    # a base edge 37 of the mass's ulps off it: a rounding sliver of the base
    @example(masses=[0.1, 1.87], hv=0.3, spec=GridSpec(cells_per_mass=4096))
    # masses an ulp apart: the upper one, inserted beside the lower as a
    # singular point, made zero-width cells and a NaN Gram
    @example(masses=[0.3, np.nextafter(0.3, 1)], hv=0.3, spec=GridSpec(cells_per_mass=256))
    def test_cells_have_width_and_grams_are_finite(self, masses, hv, spec):
        # no cell is a sliver of a few ulps, let alone of zero width
        edges = _kernel_grid(masses, spec)
        assert np.all(np.diff(edges) > 2 * np.spacing(max(-edges[0], edges[-1])))
        gram = intrep._kernel_grams(np.asarray(masses), (HurstParam(hv),), spec)[0]
        assert np.all(np.isfinite(gram))
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-12 * np.max(gram)

    def test_sequence_types_zeros_and_repeats_give_one_grid(self):
        spec = GridSpec(cells_per_mass=48)
        want = _kernel_grid([0.5, 1.0], spec)
        for masses in ((0.5, 1.0), np.array([0.5, 1.0]), [0.0, 0.5, 0.5, 1.0], (1.0, 0.5, 0.0)):
            got = _kernel_grid(masses, spec)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_no_positive_mass_rejected(self):
        with pytest.raises(ValueError, match="at least one positive mass"):
            _kernel_grid([0.0, 0.0], COARSE)

    @pytest.mark.parametrize(
        "key, value",
        [("truncation_factor", 1.0), ("truncation_factor", 1.2),
         ("truncation_factor", float("nan")), ("margin", 0.2), ("margin", 0.0)],
    )
    def test_window_floor_rejected(self, key, value):
        # the tail series diverges for a mass at or beyond the window's edge;
        # the floors keep max_mass / |edge| at most 0.8
        with pytest.raises(ValueError, match=f"{key} must be >= "):
            GridSpec(**{key: value})
        GridSpec(truncation_factor=1.25, margin=0.25)


class TestNormalization:
    def test_definition_self_check(self):
        # C(H)^2 * quadrature integral == 1 by construction, and so the law's
        # unit-mass variance is 1
        for hv in (0.2, 0.35):
            h = HurstParam(hv)
            assert _covariance([1.0], h, COARSE)[0, 0] == pytest.approx(1.0, abs=1e-12)
            c = _normalization_const(h, COARSE)
            edges = _kernel_grid([1.0], COARSE)
            mids, widths = _cells(edges)
            k = mvn_kernel(1.0, mids, h)
            integral = float(np.sum(k * k * widths) + _tails([1.0], h, edges)[0, 0])
            assert c**2 * integral == pytest.approx(1.0, abs=1e-12)

    def test_refinement_oracle(self):
        # Richardson extrapolation with the known cell^{2H} error rate; the
        # constant tracks the quadrature it cancels against, so its distance
        # from the extrapolated limit is the singular-cell deficit
        h = HurstParam(0.3)

        def integral(spec):
            edges = _kernel_grid([1.0], spec)
            mids, widths = _cells(edges)
            k = mvn_kernel(1.0, mids, h)
            return float(np.sum(k * k * widths) + _tails([1.0], h, edges)[0, 0])

        i1, i2 = integral(COARSE.refine(2)), integral(COARSE.refine(4))
        r = 2.0 ** (-2 * h.value)
        c_ext = (i2 + (i2 - i1) * r / (1 - r)) ** -0.5
        c0 = _normalization_const(h, COARSE)
        assert abs(c0 - c_ext) / c_ext < 1e-2
        # the default grid is 8x denser and correspondingly closer
        c_def = _normalization_const(h, GridSpec())
        assert abs(c_def - c_ext) / c_ext < 2.5e-3

    def test_tail_insensitive(self):
        # the tails beyond the window are added in closed form, so widening
        # the window only trades them for cells
        h = HurstParam(0.3)
        wide = GridSpec(truncation_factor=100.0, margin=3.0, cells_per_mass=512)
        c0 = _normalization_const(h, COARSE)
        c1 = _normalization_const(h, wide)
        assert abs(c0 - c1) / c1 < 2e-2

    def test_too_coarse_rejected(self):
        law = KernelLaw([HurstParam(0.1)])
        # the law keeps its walks, not the verdict, so a second call raises again
        for _ in range(2):
            with pytest.raises(ResolutionError, match="not converged"):
                law.covariances([1.0], GridSpec(cells_per_mass=8, refine_factor=1))

    def test_verify_intrep_cold_equals_warm(self):
        ir = IntRepConfig(
            masses=(0.5, 0.75, 1.0),
            variance_masses=(0.25, 1.0),
            hursts=(0.3, 0.35),
            n_samples=300,
            grid=GridSpec(cells_per_mass=64, refine_factor=2),
        )
        first = verify_intrep(ir, seed=3).to_dict()
        assert verify_intrep(ir, seed=3).to_dict() == first
        # a law that has walked its grids gives what a fresh one gives
        hs = [HurstParam(hv) for hv in ir.hursts]
        warm = KernelLaw(hs)
        for spec in (ir.grid, ir.grid.refine(2)):
            cold = warm.covariances(ir.masses, spec)
            for law in (warm, KernelLaw(hs)):
                assert all(np.array_equal(g, c) for g, c in zip(law.covariances(ir.masses, spec), cold))


class TestSimulate:
    def test_zero_mass_paths_zero(self):
        paths = _simulate([0.0], 1, 50, HurstParam(0.3), COARSE)
        assert np.all(paths == 0.0)

    def test_unit_variance(self):
        n = 20_000
        paths = _simulate([1.0], 2, n, HurstParam(0.3), COARSE)
        var = float(np.mean(paths[:, 0] ** 2))
        assert var == pytest.approx(1.0, rel=0.03)

    def test_decreasing_masses_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            _simulate([1.0, 0.5], 1, 10, HurstParam(0.3), COARSE)

    def test_half_redirects(self):
        with pytest.raises(HalfCaseError):
            _simulate([1.0], 1, 10, HurstParam(0.5), COARSE)

    def test_deterministic(self):
        h, spec = HurstParam(0.35), GridSpec(cells_per_mass=64, refine_factor=2)
        a = _simulate([0.5, 1.0], 9, 300, h, spec)
        b = _simulate([0.5, 1.0], 9, 300, h, spec)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_block_boundary(self):
        assert 300 < 2 * STREAM_BLOCK < 700
        h, spec = HurstParam(0.35), GridSpec(cells_per_mass=64, refine_factor=2)
        a = _simulate([0.0, 0.5, 1.0], 9, 300, h, spec)
        b = _simulate([0.0, 0.5, 1.0], 9, 700, h, spec)
        assert np.array_equal(a, b[:300])
        assert np.all(b[:, 0] == 0.0)

    def test_prefix_stable_at_64_masses(self):
        masses = np.linspace(0.1, 1.0, 64)
        h, spec = HurstParam(0.3), GridSpec(cells_per_mass=64, refine_factor=2)
        for n, m in ((10, 300), (300, 700), (257, 1000)):
            a = _simulate(masses, 5, n, h, spec)
            b = _simulate(masses, 5, m, h, spec)
            assert np.array_equal(a, b[:n]), (n, m)

    def test_covariance_matches_fbm(self):
        h = HurstParam(0.3)
        masses = [0.5, 0.75, 1.0]
        n = 20_000
        paths = _simulate(masses, 4, n, h, COARSE)
        emp = (paths.T @ paths) / n
        want = fbm_covariance(masses, h)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
        assert np.all(np.abs(emp - want) <= 4 * se)

    def test_single_brownian_drives_whole_flow(self):
        # same seed, nested mass lists: shared masses see the same increments
        # (bit-level equality across different lists is not guaranteed, since
        # the factor is recomputed, so compare at fp-roundoff tolerance)
        h = HurstParam(0.3)
        a = _simulate([0.5, 1.0], 6, 20, h, COARSE)
        b = _simulate([0.5, 1.0, 1.0], 6, 20, h, COARSE)
        assert np.allclose(a[:, 0], b[:, 0], rtol=1e-10, atol=1e-12)
        assert np.array_equal(b[:, 1], b[:, 2])


class TestDiscretizedCovariance:
    def test_single_mass_exact_by_scaling(self):
        # the unit-grid normalization makes single-mass variance exact
        for theta in (0.25, 1.0, 4.0):
            for hv in (0.2, 0.35):
                got = _covariance([theta], HurstParam(hv), COARSE)[0, 0]
                assert got == pytest.approx(theta ** (2 * hv), rel=1e-10)

    def test_error_decreases_under_refinement(self):
        # two refinement steps (step halved, same window): the covariance
        # error against the closed form drops monotonically
        h = HurstParam(0.3)
        masses = [0.5, 0.75, 1.0]
        want = fbm_covariance(masses, h)
        errs = []
        for spec in (COARSE, COARSE.refine(2), COARSE.refine(4)):
            got = _covariance(masses, h, spec)
            errs.append(float(np.max(np.abs(got - want))))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("hv", [0.15, 0.2, 0.3, 0.35, 0.45])
    @pytest.mark.parametrize(
        "masses", [[0.8, 0.9, 1.0], [0.25, 1.0, 4.0], [0.1, 0.37, 1.0], [0.3, 0.31, 0.9]]
    )
    @pytest.mark.parametrize("spec", [COARSE, GridSpec(cells_per_mass=256, refine_factor=4)])
    def test_step_refinement_is_monotone(self, masses, hv, spec):
        # with the tails exact there is no truncation floor, so halving the
        # step alone reduces the error; with a window of 50 and no tails it
        # did not for three of these lists
        h = HurstParam(hv)
        want = fbm_covariance(masses, h)
        base, fine = (
            float(np.max(np.abs(_covariance(masses, h, s) - want)))
            for s in (spec, spec.refine(2))
        )
        assert fine < base

    @pytest.mark.parametrize("hv", [0.15, 0.3, 0.45])
    @pytest.mark.parametrize("masses", [[0.8, 0.9, 1.0], [0.25, 1.0, 4.0]])
    def test_window_independent(self, masses, hv):
        # the cells beyond a narrow window only approximate what the tails
        # give exactly, so a wider window at the same step moves nothing
        h = HurstParam(hv)
        narrow = _covariance(masses, h, COARSE)
        for wide in (GridSpec(truncation_factor=16.0, cells_per_mass=512),
                     GridSpec(margin=4.0, cells_per_mass=512)):
            got = _covariance(masses, h, wide)
            assert np.max(np.abs(got - narrow)) <= 1e-6 * np.max(np.abs(narrow))


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
        assert np.array_equal(_covariance(masses, h, spec), want)
        distinct, inverse = np.unique(masses, return_inverse=True)
        cov = _loop_kernel_covariance(distinct, h, spec)
        assert np.array_equal(_covariance(distinct, h, spec), cov)
        want = block_draw(5, 40, _factor(distinct, cov).T)[:, inverse]
        assert np.array_equal(draw(masses, cov, 5, 40), want)

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
    @example(masses=[0.5, 1.0], hv=0.3, spec=GridSpec(truncation_factor=50.0, cells_per_mass=1024),
             blocks="module")
    def test_matches_whole_grid_product(self, masses, hv, spec, blocks):
        h = HurstParam(hv)
        n_cells = len(_kernel_grid(masses, spec)) - 1
        block = {
            "below": n_cells + 1, "equal": n_cells, "one_above": n_cells - 1,
            "several": max(n_cells // 5, 1), "module": CELL_BLOCK,
        }[blocks]
        assert blocks != "module" or n_cells > 4 * CELL_BLOCK
        want = _whole_grid_gram(masses, h, spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intrep, "CELL_BLOCK", block)
            got = intrep._kernel_grams(np.asarray(masses, dtype=float), (h,), spec)[0]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_memory_flat_in_cell_count(self):
        # the quadrature builds its grid block by block as it sums, so its
        # peak holds a few blocks whatever the grid
        h, masses = HurstParam(0.3), np.array([0.8, 0.9, 1.0])
        peaks = []
        for cells_per_mass in (512, 2048):
            spec = GridSpec(truncation_factor=50.0, cells_per_mass=cells_per_mass)
            tracemalloc.start()
            try:
                intrep._kernel_grams(masses, (h,), spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(_kernel_grid(masses, spec)) - 1 > 2 * CELL_BLOCK
        # one block's edges is CELL_BLOCK * 8 bytes; the 2048 grid's edges
        # alone are about 13 times that
        assert peaks[1] - peaks[0] < CELL_BLOCK * 8


class TestKernelGrams:
    @settings(max_examples=40, deadline=None)
    @given(
        masses=st.lists(_LEVELS, min_size=1, max_size=6).map(sorted).filter(lambda m: m[-1] > 0),
        hvs=st.lists(st.floats(0.01, 0.5, exclude_max=True), min_size=1, max_size=3),
        spec=st.builds(
            GridSpec,
            truncation_factor=st.sampled_from([1.25, 2.0]),
            margin=st.sampled_from([0.25, 1.0]),
            cells_per_mass=st.sampled_from([8, 16, 64]),
            refine_factor=st.sampled_from([1, 2, 4]),
            refine_radius_frac=st.sampled_from([0.0, 0.01, 0.3]),
        ),
        # small blocks make every Gram a sum over several blocks
        block=st.one_of(st.integers(1, 40), st.just(CELL_BLOCK)),
    )
    # repeated H values, and zero and repeated masses
    @example(masses=[0.0, 0.5, 0.5, 1.0], hvs=[0.3, 0.3, 0.1], spec=GridSpec(cells_per_mass=16),
             block=7)
    def test_each_gram_equals_its_own_walk(self, masses, hvs, spec, block):
        masses, hs = np.asarray(masses), [HurstParam(hv) for hv in hvs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intrep, "CELL_BLOCK", block)
            got = intrep._kernel_grams(masses, hs, spec)
            want = [_per_h_gram(masses, h, spec) for h in hs]
        assert len(got) == len(hs)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestKernelLaw:
    @settings(max_examples=40, deadline=None)
    @given(
        masses=st.lists(_LEVELS, min_size=1, max_size=6).map(sorted).filter(lambda m: m[-1] > 0),
        # below H = 0.2 these grids mostly fail the constant's convergence
        hvs=st.lists(st.floats(0.2, 0.5, exclude_max=True), min_size=1, max_size=3),
        spec=st.builds(
            GridSpec,
            truncation_factor=st.sampled_from([1.25, 2.0]),
            margin=st.sampled_from([0.25, 1.0]),
            cells_per_mass=st.sampled_from([64, 128, 256]),
            refine_factor=st.sampled_from([2, 4, 8]),
            refine_radius_frac=st.sampled_from([0.0, 0.01, 0.3]),
        ),
        seed=st.integers(0, 2**32),
    )
    # repeated H values, and zero and repeated masses
    @example(masses=[0.0, 0.5, 0.5, 1.0], hvs=[0.3, 0.3, 0.45], spec=GridSpec(cells_per_mass=64),
             seed=3)
    # a constant that does not converge
    @example(masses=[0.5, 1.0], hvs=[0.3, 0.1], spec=GridSpec(cells_per_mass=8, refine_factor=1),
             seed=3)
    def test_matches_per_h_walks(self, masses, hvs, spec, seed):
        # every H's covariance is C(H)^2 times the Gram of a walk for that H
        # alone, with C(H) from the raw walks of the unit mass; a constant
        # whose refinement moves it by more than 5e-2 is refused
        m, hs = np.asarray(masses), [HurstParam(hv) for hv in hvs]
        consts = []
        for h in hs:
            unit, finer = (float(_per_h_gram(np.ones(1), h, s)[0, 0]) for s in (spec, spec.refine(2)))
            consts.append(None if abs(unit - finer) / finer > 5e-2 else (unit**-0.5) ** 2)
        law = KernelLaw(hs)
        if None in consts:
            with pytest.raises(ResolutionError, match="not converged"):
                law.covariances(masses, spec)
            return
        got = law.covariances(masses, spec)
        assert len(got) == len(hs)
        for g, c, h in zip(got, consts, hs):
            assert np.array_equal(g, c * _per_h_gram(m, h, spec))
        # the draw is block_draw through the factor of the distinct masses
        distinct, inverse = np.unique(m, return_inverse=True)
        for cov in law.covariances(distinct[distinct > 0], spec):
            want = block_draw(seed, 40, _factor(distinct, cov).T)[:, inverse]
            assert np.array_equal(draw(masses, cov, seed, 40), want)

    def test_no_positive_mass_gives_zeros(self):
        law = KernelLaw([HurstParam(0.3), HurstParam(0.2)])
        for masses in ([], [0.0, 0.0]):
            for cov in law.covariances(masses, COARSE):
                assert cov.shape == (len(masses),) * 2 and not cov.any()


def _strip_gram(masses: np.ndarray, h: HurstParam, edge: float) -> np.ndarray:
    """The integral of k k^T beyond ``edge`` by the midpoint rule on 4 * 10^5
    geometric cells from |edge| to |edge| * 1e7; what lies past that is about
    1e-7 of the whole at H near 1/2 and far less below."""
    e = np.geomspace(abs(edge), abs(edge) * 1e7, 400_001)
    k = mvn_kernel(masses[:, None], np.sign(edge) * 0.5 * (e[:-1] + e[1:]), h)
    return (k * np.diff(e)) @ k.T


class TestTails:
    @settings(max_examples=25, deadline=None)
    @given(
        masses=st.lists(_LEVELS, min_size=1, max_size=5).map(sorted).filter(lambda m: m[-1] > 0),
        # nearer 1/2 the kernel is the difference of two powers within
        # |H - 1/2| of 1, so the reference's own round-off swamps it
        hv=st.floats(0.01, 0.4999),
        # max_mass / |edge| on each side, up to the GridSpec floors' 0.8
        ratios=st.tuples(st.floats(0.05, 0.8), st.floats(0.05, 0.8)),
    )
    @example(masses=[0.0, 0.3, 0.3, 1.5], hv=0.2, ratios=(0.8, 0.8))
    @example(masses=[1.0], hv=0.4999, ratios=(0.5, 0.5))
    def test_matches_strip_reference(self, masses, hv, ratios):
        masses, h = np.asarray(masses), HurstParam(hv)
        lo, hi = -masses[-1] / ratios[0], masses[-1] / ratios[1]
        got = intrep._tails(masses, h, lo, hi)
        want = _strip_gram(masses, h, lo) + _strip_gram(masses, h, hi)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def _reference_verify(ir: IntRepConfig, seed: int) -> list[CriterionResult]:
    """The variance, covariance and refinement criteria of ``verify_intrep``
    from ``KernelLaw`` and ``draw`` composed here, with the refinement's
    covariances taken on ``ir.masses`` itself."""
    out = []
    law = KernelLaw(HurstParam(hv) for hv in ir.hursts)
    masses = np.asarray(ir.masses)
    positive = np.unique(masses[masses > 0])
    for hi, (hv, h) in enumerate(zip(ir.hursts, law.hs)):
        for ti, theta in enumerate(ir.variance_masses):
            paths = draw([theta], law.covariances([theta], ir.grid)[hi],
                         intrep._derived_seed(seed, 1, hi, ti), ir.n_samples)
            want = theta ** (2 * hv)
            rel = abs(float(np.mean(paths[:, 0] ** 2)) - want) / want
            out.append(CriterionResult(f"variance_H{hv}_theta{theta}", rel <= ir.variance_rel_tol,
                                       rel, ir.variance_rel_tol))
        paths = draw(ir.masses, law.covariances(positive, ir.grid)[hi],
                     intrep._derived_seed(seed, 2, hi), ir.n_samples)
        want = fbm_covariance(ir.masses, h)
        worst = intrep._worst_sigma(paths, want)
        out.append(CriterionResult(f"covariance_H{hv}", worst <= ir.covariance_se_mult, worst,
                                   ir.covariance_se_mult))
        base_err, fine_err = (
            float(np.max(np.abs(law.covariances(ir.masses, spec)[hi] - want)))
            for spec in (ir.grid, ir.grid.refine(2))
        )
        out.append(CriterionResult(f"refinement_H{hv}", fine_err < base_err, fine_err, base_err))
    return out


class TestVerifyIntrep:
    def test_walks_each_grid_once(self, monkeypatch):
        # the unit mass on the configured grid and on it refined by 2 and 4
        # (each of the two specs' constants needs its spec and its spec
        # refined by 2), each other variance mass and the masses on the
        # configured grid, and the masses on the refined one
        ir = load_config(INTREP_COARSE).intrep
        assert ir.masses == (0.8, 0.9, 1.0) and 1.0 in ir.variance_masses
        assert len(ir.variance_masses) == 3 and len(ir.hursts) == 2
        walks, cells = [], []
        blocks = intrep._kernel_grid_blocks

        def counted(masses, spec):
            walks.append((tuple(masses), spec))
            for e in blocks(masses, spec):
                cells.append(e.size - 1)
                yield e

        monkeypatch.setattr(intrep, "_kernel_grid_blocks", counted)
        verify_intrep(ir, seed=7)
        assert len(walks) == 7 and len(set(walks)) == 7
        assert sum(cells) == 12_826

    @pytest.mark.parametrize(
        "masses",
        [(0.5, 0.75, 1.0), (1.0,), (0.3,), (0.0, 0.5, 0.5, 1.0), (0.0, 0.0)],
    )
    def test_matches_public_functions(self, masses):
        # verify_intrep composes KernelLaw and draw as the reference does:
        # the same seeds, draws and order.  Its refinement's covariances are
        # the draw's, put on the masses, which are bit for bit the law's
        # covariances of the masses when they are distinct and positive
        ir = IntRepConfig(
            masses=masses,
            variance_masses=(0.25, 1.0),
            hursts=(0.3, 0.35),
            n_samples=300,
            grid=GridSpec(cells_per_mass=64, refine_factor=2),
        )
        got = verify_intrep(ir, seed=3).criteria[:-1]
        want = _reference_verify(ir, seed=3)
        assert [c.name for c in got] == [c.name for c in want]
        exact = len(set(masses)) == len(masses) and min(masses) > 0
        for g, w in zip(got, want):
            if g.name.startswith("refinement") and not exact:
                assert g.statistic == pytest.approx(w.statistic, rel=1e-12, abs=1e-15)
                assert g.threshold == pytest.approx(w.threshold, rel=1e-12, abs=1e-15)
            else:
                assert (g.statistic, g.threshold) == (w.statistic, w.threshold)
            if not g.name.startswith("refinement"):
                assert g.passed == w.passed

    def test_refinement_passes_at_round_off(self):
        # one mass: the variance is exact by scaling on every grid, so both
        # errors are round-off and refinement cannot reduce them
        ir = IntRepConfig(
            masses=(1.0,), variance_masses=(), hursts=(0.3,), n_samples=10,
            grid=GridSpec(cells_per_mass=256, refine_factor=4),
        )
        (refinement,) = [c for c in verify_intrep(ir, seed=7).criteria if c.name == "refinement_H0.3"]
        assert refinement.passed and refinement.threshold <= 1e-12
        # the detail names the round-off floor whenever it is what passed
        by_floor = not refinement.statistic < refinement.threshold
        assert ("round-off" in refinement.detail) == by_floor


class TestDiscretizedFactor:
    @settings(max_examples=40, deadline=None)
    @given(
        masses=st.lists(_LEVELS, min_size=1, max_size=7).map(sorted),
        # HurstParam admits H in (0, 1/2]; 1/2 itself has no kernel
        hv=st.floats(0.1, 0.5, exclude_max=True),
    )
    def test_reproduces_discretized_covariance(self, masses, hv):
        # the draw's factor, over the distinct positive masses and put on the
        # masses, reproduces the law's covariance of the masses
        h, m = HurstParam(hv), np.asarray(masses)
        sigma = _covariance(masses, h, COARSE)
        distinct, inverse = np.unique(m, return_inverse=True)
        cov = _covariance(distinct[distinct > 0], h, COARSE)
        f = _factor(distinct, cov)[inverse]
        assert f.shape == (len(masses), len(set(masses) - {0.0}))
        assert np.max(np.abs(f @ f.T - sigma)) <= 1e-10 * np.max(np.abs(sigma))
        paths = draw(masses, cov, 5, 40)
        assert np.array_equal(paths, block_draw(5, 40, _factor(distinct, cov).T)[:, inverse])
        for i in range(m.size):
            for j in range(i + 1, m.size):
                if m[i] == m[j]:
                    assert np.array_equal(paths[:, i], paths[:, j])
        assert np.all(paths[:, m == 0.0] == 0.0)


    def test_factor_keeps_every_variance_of_the_law(self, monkeypatch):
        # a mass far below the largest keeps its variance: 1e-300 beside
        # 1e300 under the min(s, t) law, and 1e-20 beside 1 and 1 + 2.2e-16
        # under the kernel law, which is singular at that step and needs the
        # ladder's first jitter, 1e-12 of each variance (an eigendecomposition
        # clipped at 1e-12 of the largest eigenvalue kept none of the first
        # and 3.4% of the second)
        kernel = [1e-20, 1.0, 1.0 + 2.2e-16]
        laws = [
            ([1e-300, 1e300], np.minimum.outer([1e-300, 1e300], [1e-300, 1e300])),
            (kernel, _covariance(kernel, HurstParam(0.3), GridSpec(cells_per_mass=256, refine_factor=4))),
        ]
        factors = []

        def recorded(seed, n_rows, right):
            factors.append(right.T)
            return block_draw(seed, n_rows, right)

        monkeypatch.setattr(intrep, "block_draw", recorded)
        for masses, cov in laws:
            draw(masses, cov, 3, 10)
            d = np.diag(cov)
            # the jitter step and round-off
            assert np.all(np.abs(np.sum(factors[-1] ** 2, axis=1) - d) <= 2e-12 * d)


def brownian(masses, seed: int, n_samples: int) -> np.ndarray:
    """H = 1/2 as ``verify_intrep`` draws it: ``draw`` with the min(s, t)
    covariance of the distinct positive masses."""
    p = np.unique([m for m in masses if m > 0])
    return draw(masses, np.minimum.outer(p, p), seed, n_samples)


class TestHalfCase:
    def test_zero_mass(self):
        paths = brownian([0.0], seed=1, n_samples=20)
        assert np.all(paths == 0.0)

    def test_unit_variance(self):
        n = 20_000
        paths = brownian([1.0], seed=2, n_samples=n)
        var = float(np.mean(paths[:, 0] ** 2))
        assert var == pytest.approx(1.0, rel=0.03)

    def test_covariance_is_min(self):
        n = 20_000
        s, t = 0.4, 1.3
        paths = brownian([s, t], seed=3, n_samples=n)
        cov = float(np.mean(paths[:, 0] * paths[:, 1]))
        se = np.sqrt((s * t + s**2) / n)
        assert abs(cov - s) <= 3 * se

    def test_deterministic(self):
        a = brownian([0.5, 1.0], seed=11, n_samples=40)
        b = brownian([0.5, 1.0], seed=11, n_samples=40)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_block_boundary(self):
        a = brownian([0.5, 1.0], seed=11, n_samples=300)
        b = brownian([0.5, 1.0], seed=11, n_samples=700)
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
        e = sample_ensemble(idx, HurstParam(h), n, seed=51)
        proj = project(e, f)
        rep = _simulate(tc.values, 52, n, HurstParam(h), COARSE)
        for j in (1, 4, 7):
            inc_a = proj[:, j] - proj[:, 0]
            inc_b = rep[:, j] - rep[:, 0]
            ratio = float(np.mean(inc_a**2) / np.mean(inc_b**2))
            assert 0.9 <= ratio <= 1.1
