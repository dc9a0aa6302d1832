"""Flow construction, time changes, and projection of sampled fields."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sifbm.flows import (
    ElementaryFlow,
    FlowMonotonicityError,
    SimpleFlow,
    TimeChange,
    flows_through,
    make_elementary_flow,
    project,
    required_flow_indices,
    time_change,
)
from sifbm.gaussian import (
    HurstParam,
    MissingIndexError,
    build_cov_matrix,
    cholesky,
    sample_ensemble,
)
from sifbm.rects import EMPTY, Rect, RectUnion, rect, rect_intersection


def diag_flow(points=9, scale=1.0):
    grid = np.linspace(0, 1, points)
    return make_elementary_flow(grid, [(scale * t, scale * t) for t in grid])


class TestMakeElementaryFlow:
    def test_diagonal_valid(self):
        f = diag_flow()
        assert f.values[-1] == rect(1, 1)

    def test_decreasing_coordinate_rejected(self):
        grid = np.linspace(0, 1, 5)
        with pytest.raises(FlowMonotonicityError):
            make_elementary_flow(grid, [(t, 1 - t) for t in grid])

    def test_axis_flow_valid(self):
        grid = np.linspace(0, 1, 5)
        f = make_elementary_flow(grid, [(t, 1.0) for t in grid])
        assert f.values[0] == rect(0, 1)

    def test_grid_not_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_elementary_flow([0, 0.5, 0.5, 1], [(t, t) for t in (0, 0.5, 0.5, 1)])

    def test_empty_prefix_allowed(self):
        grid = np.linspace(0, 1, 4)
        f = make_elementary_flow(grid, [None, (0.2, 0.2), (0.5, 0.5), (1, 1)])
        assert f.values[0] is EMPTY

    def test_empty_after_nonempty_rejected(self):
        grid = np.linspace(0, 1, 3)
        with pytest.raises(FlowMonotonicityError):
            make_elementary_flow(grid, [(0.5, 0.5), None, (1, 1)])


class TestTimeChange:
    def test_diagonal_area(self):
        tc = time_change(diag_flow(11))
        # Lebesgue area oracle: theta(t) = t^2
        assert np.allclose(tc.values, np.linspace(0, 1, 11) ** 2)

    def test_axis_flow_linear(self):
        grid = np.linspace(0, 1, 7)
        f = make_elementary_flow(grid, [(t, 1.0) for t in grid])
        assert np.allclose(time_change(f).values, grid)

    def test_empty_start_gives_zero(self):
        grid = np.linspace(0, 1, 3)
        f = make_elementary_flow(grid, [None, (1, 1), (2, 2)])
        assert time_change(f).values[0] == 0.0

    @given(st.lists(st.floats(0, 3, allow_nan=False), min_size=2, max_size=8))
    def test_nondecreasing_for_any_valid_flow(self, increments):
        corners = np.cumsum(np.abs(increments))
        grid = np.arange(len(corners), dtype=float)
        f = make_elementary_flow(grid, [(c, 2 * c) for c in corners])
        tc = time_change(f)
        assert np.all(np.diff(tc.values) >= 0)

    def test_macroscopic_decrease_rejected(self):
        with pytest.raises(ValueError, match="decreases"):
            TimeChange(np.array([0.0, 1.0]), np.array([2.0, 1.0]))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1e-13, 0.25, 1.0 / 3.0, 2.5]),
                st.sampled_from([0.0, 0.0, -1e-14, -9e-13, -1.1e-12, -3e-12, -0.5]),
            ),
            max_size=10,
        ).map(lambda pairs: np.cumsum([s for s, _ in pairs]) + [n for _, n in pairs])
    )
    # on a tie of signed zeros the loop kept the later value
    @example(np.array([0.0, -0.0, -1e-300, 0.5]))
    @example(np.array([-0.0, 0.0, -1e-300]))
    @example(np.array([1.0, 1.0 - 1e-13, 1.0 - 5e-13, 1.0 - 2e-12]))
    def test_snap_matches_loop(self, values):
        # the running-maximum snap against the loop it replaced: the same
        # bits, or the same error at the same grid point
        grid = np.arange(values.size, dtype=float)
        try:
            want = _loop_time_change(values)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                TimeChange(grid, values)
            assert str(got.value) == str(exc)
        else:
            got = TimeChange(grid, values).values
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _loop_time_change(values) -> np.ndarray:
    """The snap loop ``TimeChange`` used before its running-maximum form."""
    vals = np.asarray(values, dtype=float)
    if vals.size and vals[0] < 0:
        raise ValueError("time change must be non-negative")
    scale = float(vals.max()) if vals.size else 0.0
    out = vals.copy()
    for i in range(1, out.size):
        if out[i] < out[i - 1]:
            if out[i - 1] - out[i] > 1e-12 * max(scale, 1.0):
                raise ValueError(
                    f"time change decreases at grid point {i}: "
                    f"{out[i - 1]} -> {out[i]}"
                )
            out[i] = out[i - 1]
    return out


class TestFlowsThrough:
    def test_endpoint_identity(self):
        u = rect(1, 1)
        f = flows_through(u)
        assert f.values[-1] == u

    def test_rectangular_target_area(self):
        u = rect(2, 1)
        f = flows_through(u, points=33)
        tc = time_change(f)
        # area oracle: f(t) = [0,(2t,t)] so theta = 2 t^2
        assert np.allclose(tc.values, 2 * np.linspace(0, 1, 33) ** 2)

    def test_starts_degenerate(self):
        f = flows_through(rect(3, 0.5, 2))
        assert time_change(f).values[0] == 0.0

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            flows_through(EMPTY)


class TestSimpleFlow:
    def _two_segment(self):
        g1 = np.linspace(0, 0.5, 5)
        seg1 = make_elementary_flow(g1, [(2 * t * 2.0, 2 * t * 0.5) for t in g1])
        g2 = np.linspace(0.5, 1, 5)
        seg2 = make_elementary_flow(g2, [((t - 0.5) * 1.0, (t - 0.5) * 4.0) for t in g2])
        return SimpleFlow((seg1, seg2))

    def test_breakpoints(self):
        sf = self._two_segment()
        assert sf.breakpoints == [0.0, 0.5, 1.0]

    def test_values_accumulate(self):
        sf = self._two_segment()
        grid, values = sf.grid_and_values()
        assert grid.size == 9
        # last value is union of both segment endpoints
        assert values[-1] == RectUnion((rect(2, 0.5), rect(0.5, 2)))

    def test_grid_and_values_built_once(self, monkeypatch):
        # required_flow_indices, project and predicted_increment_moment all
        # read the merged grid; only the first call may build unions
        import sifbm.flows as flows

        sf = self._two_segment()
        grid, values = sf.grid_and_values()
        assert not grid.flags.writeable and isinstance(values, tuple)

        def no_new_union(*args):
            raise AssertionError("grid_and_values built a new RectUnion")

        monkeypatch.setattr(flows, "RectUnion", no_new_union)
        again = sf.grid_and_values()
        assert again[0] is grid and again[1] is values
        required_flow_indices(sf)
        time_change(sf)

    def test_time_change_nondecreasing(self):
        tc = time_change(self._two_segment())
        assert np.all(np.diff(tc.values) >= 0)

    def test_union_measure_at_end(self):
        tc = time_change(self._two_segment())
        # 1 + 1 - 0.25 by inclusion-exclusion
        assert tc.values[-1] == pytest.approx(1.75)

    def test_mismatched_segments_rejected(self):
        g1 = np.linspace(0, 0.4, 3)
        seg1 = make_elementary_flow(g1, [(t, t) for t in g1])
        g2 = np.linspace(0.5, 1, 3)
        seg2 = make_elementary_flow(g2, [(t, t) for t in g2])
        with pytest.raises(ValueError, match="chain"):
            SimpleFlow((seg1, seg2))


class TestProjection:
    def _exact_ensemble(self, flow, h=0.35, n=200, seed=5, extra=()):
        idx = sorted(required_flow_indices(flow) | set(extra), key=lambda r: r.corner)
        f = cholesky(build_cov_matrix(idx, HurstParam(h)))
        return sample_ensemble(f, n, seed=seed)

    def test_constant_flow_reproduces_column(self):
        u = rect(1, 1)
        f = make_elementary_flow([0, 1], [u, u])
        e = self._exact_ensemble(f)
        pe = project(e, f)
        assert np.array_equal(pe.paths[:, 0], e.column(u))
        assert np.array_equal(pe.paths[:, 1], e.column(u))

    def test_flows_through_endpoint_matches_column(self):
        u = rect(2, 1)
        f = flows_through(u, points=8)
        e = self._exact_ensemble(f)
        pe = project(e, f)
        assert np.array_equal(pe.paths[:, -1], e.column(u))

    def test_missing_index_listed(self):
        f = diag_flow(5)
        idx = [v for v in f.values if v != rect(0.5, 0.5) and not v.is_empty]
        fac = cholesky(build_cov_matrix(idx, HurstParam(0.3)))
        e = sample_ensemble(fac, 10, seed=1)
        with pytest.raises(MissingIndexError) as ei:
            project(e, f)
        assert rect(0.5, 0.5) in ei.value.missing

    def test_increment_variance_profile(self):
        # Monte Carlo check of E[(X_t - X_s)^2] = |theta_t - theta_s|^{2H}
        h = 0.3
        f = diag_flow(9)
        e = self._exact_ensemble(f, h=h, n=20_000, seed=31)
        pe = project(e, f)
        tc = time_change(f)
        n = pe.n_samples
        for i, j in [(0, 8), (2, 6), (4, 8)]:
            inc = pe.paths[:, j] - pe.paths[:, i]
            obs = float(np.mean(inc**2))
            want = abs(tc.values[j] - tc.values[i]) ** (2 * h)
            assert abs(obs - want) <= 4 * obs * np.sqrt(2 / n)

    def test_simple_flow_projection_is_additive_expansion(self):
        g1 = np.linspace(0, 0.5, 3)
        seg1 = make_elementary_flow(g1, [(4 * t, t) for t in g1])
        g2 = np.linspace(0.5, 1, 3)
        seg2 = make_elementary_flow(g2, [(2 * (t - 0.5), 4 * (t - 0.5)) for t in g2])
        sf = SimpleFlow((seg1, seg2))
        e = self._exact_ensemble(sf, n=50)
        pe = project(e, sf)
        # per-sample oracle at the final point: X_A + X_B - X_{AnB}
        a, b = rect(2, 0.5), rect(1, 2)
        want = (
            e.column(a) + e.column(b) - e.column(rect_intersection(a, b))
        )
        assert np.allclose(pe.paths[:, -1], want, rtol=0, atol=0)

    def test_breakpoint_continuity_with_last_segment(self):
        # at a shared breakpoint, projection equals the later segment's value
        # joined with the accumulated union (exact, per sample)
        g1 = np.linspace(0, 0.5, 3)
        seg1 = make_elementary_flow(g1, [(2 * t, 2 * t) for t in g1])
        g2 = np.linspace(0.5, 1, 3)
        seg2 = make_elementary_flow(g2, [(t - 0.5, 3 * (t - 0.5)) for t in g2])
        sf = SimpleFlow((seg1, seg2))
        e = self._exact_ensemble(sf, n=40)
        pe = project(e, sf)
        grid, values = sf.grid_and_values()
        k = int(np.flatnonzero(grid == 0.5)[0])
        from sifbm.gaussian import additive_extend

        assert np.array_equal(pe.paths[:, k], additive_extend(e, values[k]))

    def test_simple_flow_increment_moment_prediction(self):
        # the power law does not govern union-valued increments; the additive
        # expansion does.  Monte Carlo second moments must match the expansion
        # prediction and (where branches genuinely interact) differ from the
        # power law.
        from sifbm.flows import predicted_increment_moment

        h = 0.3
        g1 = np.linspace(0, 0.5, 4)
        seg1 = make_elementary_flow(g1, [(4 * t, t) for t in g1])
        g2 = np.linspace(0.5, 1, 4)
        seg2 = make_elementary_flow(g2, [(2 * (t - 0.5), 4 * (t - 0.5)) for t in g2])
        sf = SimpleFlow((seg1, seg2))
        e = self._exact_ensemble(sf, h=h, n=20_000, seed=77)
        pe = project(e, sf)
        pred = predicted_increment_moment(sf, e.hurst)
        tc = time_change(sf)
        n = pe.n_samples
        deviates_from_power_law = False
        for i in range(pe.paths.shape[1]):
            for j in range(i + 1, pe.paths.shape[1]):
                inc = pe.paths[:, j] - pe.paths[:, i]
                obs = float(np.mean(inc**2))
                assert abs(obs - pred[i, j]) <= 4 * obs * np.sqrt(2 / n) + 1e-12
                power = abs(tc.values[j] - tc.values[i]) ** (2 * h)
                if abs(power - pred[i, j]) > 10 * obs * np.sqrt(2 / n):
                    deviates_from_power_law = True
        assert deviates_from_power_law

    def test_elementary_prediction_is_power_law(self):
        from sifbm.flows import predicted_increment_moment
        from sifbm.gaussian import HurstParam

        f = diag_flow(7)
        th = time_change(f).values
        pred = predicted_increment_moment(f, HurstParam(0.25))
        want = np.abs(th[:, None] - th[None, :]) ** 0.5
        assert np.allclose(pred, want, rtol=1e-12)

    def test_grid_refinement_consistency(self):
        # refining the grid leaves projected values at shared points unchanged
        u = rect(1.5, 1)
        coarse = flows_through(u, points=5)
        fine = flows_through(u, points=9)
        e = self._exact_ensemble(fine)
        pc = project(e, coarse)
        pf = project(e, fine)
        assert np.array_equal(pc.paths, pf.paths[:, ::2])
