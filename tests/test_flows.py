"""Flow construction, time changes, and projection of sampled fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sifbm.flows import (
    ElementaryFlow,
    FlowMonotonicityError,
    SimpleFlow,
    TimeChange,
    flow_weights,
    flows_through,
    make_elementary_flow,
    predicted_increment_moment,
    project,
    time_change,
)
from sifbm.gaussian import (
    STREAM_BLOCK,
    HurstParam,
    MissingIndexError,
    SampleEnsemble,
    build_cov_matrix,
    cholesky,
    columns,
    sample_ensemble,
)
from sifbm.rects import EMPTY, Rect, rect, signed_terms
from sifbm.stats import flow_statistics
from sifbm.storage import read_ensemble_blocks, write_ensemble_binary


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

    def test_values_accumulate(self):
        sf = self._two_segment()
        grid, values = sf.grid_and_values()
        assert grid.size == 9
        # last value is union of both segment endpoints, its parts sorted by corner
        assert values[-1].tolist() == [[0.5, 2.0], [2.0, 0.5]]

    def test_grid_and_values_built_once(self, monkeypatch):
        # flow_weights, time_change and so project and
        # predicted_increment_moment all read the merged grid; only the first
        # call may build unions
        import sifbm.flows as flows

        sf = self._two_segment()
        grid, values = sf.grid_and_values()
        assert not grid.flags.writeable and isinstance(values, tuple)

        def no_new_union(*args):
            raise AssertionError("grid_and_values built a new union")

        monkeypatch.setattr(flows, "_union_parts", no_new_union)
        again = sf.grid_and_values()
        assert again[0] is grid and again[1] is values
        flow_weights(sf)
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
        idx = sorted(set(flow_weights(flow)[0]) | set(extra), key=lambda r: r.corner)
        f = cholesky(build_cov_matrix(idx, HurstParam(h)))
        return sample_ensemble(f, n, seed=seed)

    def test_constant_flow_reproduces_column(self):
        u = rect(1, 1)
        f = make_elementary_flow([0, 1], [u, u])
        e = self._exact_ensemble(f)
        paths = project(e, f)
        assert np.array_equal(paths[:, 0], e.column(u))
        assert np.array_equal(paths[:, 1], e.column(u))

    def test_flows_through_endpoint_matches_column(self):
        u = rect(2, 1)
        f = flows_through(u, points=8)
        e = self._exact_ensemble(f)
        paths = project(e, f)
        assert np.array_equal(paths[:, -1], e.column(u))

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
        paths = project(e, f)
        tc = time_change(f)
        n = len(paths)
        for i, j in [(0, 8), (2, 6), (4, 8)]:
            inc = paths[:, j] - paths[:, i]
            obs = float(np.mean(inc**2))
            want = abs(tc.values[j] - tc.values[i]) ** (2 * h)
            assert abs(obs - want) <= 4 * obs * np.sqrt(2 / n)

    def test_simple_flow_projection_is_additive_expansion(self):
        g1 = np.linspace(0, 0.5, 3)
        seg1 = make_elementary_flow(g1, [(4 * t, t) for t in g1])
        g2 = np.linspace(0.5, 1, 3)
        seg2 = make_elementary_flow(g2, [(2 * (t - 0.5), 4 * (t - 0.5)) for t in g2])
        sf = SimpleFlow((seg1, seg2))
        # small-integer samples: every summation order is exact
        idx = flow_weights(sf)[0]
        x = np.random.default_rng(5).integers(-8, 9, (50, len(idx))).astype(float)
        e = SampleEnsemble(idx, x, HurstParam(0.35))
        paths = project(e, sf)
        # per-sample oracle at the final point: X_A + X_B - X_{AnB}
        a, b, ab = rect(2, 0.5), rect(1, 2), rect(1, 0.5)
        want = e.column(a) + e.column(b) - e.column(ab)
        assert np.allclose(paths[:, -1], want, rtol=0, atol=0)

    def test_breakpoint_continuity_with_last_segment(self):
        # at a shared breakpoint, projection equals the later segment's value
        # joined with the accumulated union (exact, per sample)
        g1 = np.linspace(0, 0.5, 3)
        seg1 = make_elementary_flow(g1, [(2 * t, 2 * t) for t in g1])
        g2 = np.linspace(0.5, 1, 3)
        seg2 = make_elementary_flow(g2, [(t - 0.5, 3 * (t - 0.5)) for t in g2])
        sf = SimpleFlow((seg1, seg2))
        e = self._exact_ensemble(sf, n=40)
        paths = project(e, sf)
        grid, values = sf.grid_and_values()
        k = int(np.flatnonzero(grid == 0.5)[0])
        assert np.array_equal(paths[:, k], additive_extend(e, values[k]))

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
        paths = project(e, sf)
        pred = predicted_increment_moment(sf, e.hurst)
        tc = time_change(sf)
        n = len(paths)
        deviates_from_power_law = False
        for i in range(paths.shape[1]):
            for j in range(i + 1, paths.shape[1]):
                inc = paths[:, j] - paths[:, i]
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
        assert np.array_equal(pc, pf[:, ::2])


# The projection that flow_weights replaced, kept as the reference: stored
# columns copied for an elementary flow, and for a simple flow each union
# value summed from its inclusion-exclusion terms in ``signed_terms`` order.


def additive_extend(e, parts: np.ndarray) -> np.ndarray:
    """The field on the union of the boxes with corners ``parts``."""
    signs, corners = signed_terms(parts)
    out = np.zeros(e.n_samples)
    for sign, j in zip(signs, columns(e.indices, [Rect(tuple(c)) for c in corners.tolist()])):
        out += sign * e.samples[:, j]
    return out


def column_projection(e, f) -> np.ndarray:
    if isinstance(f, ElementaryFlow):
        nonempty = [j for j, v in enumerate(f.values) if not v.is_empty]
        cols = np.zeros((e.n_samples, len(f.values)))
        for j, col in zip(nonempty, columns(e.indices, [f.values[j] for j in nonempty])):
            cols[:, j] = e.samples[:, col]
        return cols
    _, values = f.grid_and_values()
    return np.column_stack([additive_extend(e, v) for v in values])


def required_boxes(f) -> set:
    """Every column the reference projection reads."""
    if isinstance(f, ElementaryFlow):
        return {v for v in f.values if not v.is_empty}
    return {Rect(tuple(c)) for v in f.grid_and_values()[1] for c in signed_terms(v)[1].tolist()}


@st.composite
def lattice_path(draw, dim: int, k: int) -> list:
    """k corners on the integer lattice, nondecreasing in every coordinate
    (zero coordinates give degenerate boxes), with an empty prefix."""
    corner = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
    path = []
    for _ in range(k):
        path.append(tuple(corner))
        steps = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
        corner = [c + s for c, s in zip(corner, steps)]
    empty = draw(st.integers(0, k - 1))
    return [None] * empty + path[empty:]


@st.composite
def lattice_flows(draw, kinds=("elementary", "simple")):
    """An elementary flow, or a simple flow of one to three chained segments
    on the grids [i, i + 1]."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(kinds))
    segments = []
    for i in range(1 if kind == "elementary" else draw(st.integers(1, 3))):
        k = draw(st.integers(2, 6))
        segments.append(make_elementary_flow(np.linspace(i, i + 1, k), draw(lattice_path(dim, k))))
    return segments[0] if kind == "elementary" else SimpleFlow(tuple(segments))


class TestFlowWeights:
    @given(lattice_flows(), st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=150)
    def test_matches_column_projection(self, f, hv, seed):
        boxes, a = flow_weights(f)
        assert set(boxes) == required_boxes(f) and len(boxes) == len(set(boxes))
        assert list(boxes) == sorted(boxes, key=lambda r: r.corner)
        assert not a.flags.writeable and flow_weights(f)[1] is a
        # the flow's columns among one it does not read, in a shuffled order
        rng = np.random.default_rng(seed)
        idx = [*boxes, Rect((9.0,) * len(boxes[0].corner))]
        idx = [idx[i] for i in rng.permutation(len(idx))]
        n = 40
        e = SampleEnsemble(tuple(idx), rng.standard_normal((n, len(idx))), HurstParam(hv))
        want = column_projection(e, f)
        got = project(e, f)
        if isinstance(f, ElementaryFlow):
            assert np.array_equal(got, want)
        else:  # the product sums a union's terms in its own order
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        (fs,) = flow_statistics(e.row_blocks(), e.indices, [f], HurstParam(hv))
        gram = (want.T @ want) / n
        x = e.samples[:, columns(e.indices, boxes)]
        m = a.T @ ((x.T @ x) / n) @ a
        assert np.max(np.abs(m - gram)) <= 1e-12 * np.max(np.abs(gram))
        assert np.max(np.abs(fs.moments - gram)) <= 1e-12 * np.max(np.abs(gram))
        mid = want.shape[1] // 2
        assert np.allclose(fs.end, want[:, -1], rtol=0, atol=1e-12 * np.max(np.abs(want)))
        assert np.allclose(
            fs.half_increment, want[:, -1] - want[:, mid],
            rtol=0, atol=1e-12 * np.max(np.abs(want)),
        )

    @given(lattice_flows(kinds=("elementary",)), st.sampled_from([0.1, 0.25, 0.4, 0.5]))
    @settings(deadline=None, max_examples=150)
    def test_elementary_second_moments_are_power_law(self, f, hv):
        # A^T C_B A gives E[(X_t - X_s)^2] = |theta_t - theta_s|^{2H} along
        # every elementary flow, with no sampling
        h = HurstParam(hv)
        boxes, a = flow_weights(f)
        second = a.T @ build_cov_matrix(boxes, h).matrix @ a
        d = np.diag(second)
        inc = d[:, None] + d[None, :] - 2.0 * second
        want = predicted_increment_moment(f, h)
        assert np.max(np.abs(inc - want)) <= 1e-12 * d.max()


# The whole-ensemble statistics that the block stream replaced, kept as the
# reference: every path at once, then its moment matrix and the two series.


def whole_ensemble_statistics(e, f):
    paths = project(e, f)
    mid = paths.shape[1] // 2
    return (paths.T @ paths) / e.n_samples, paths[:, -1], paths[:, -1] - paths[:, mid]


class TestStreamedFlowStatistics:
    @given(
        flows=st.lists(lattice_flows(), min_size=1, max_size=3),
        n=st.sampled_from([1, 255, 256, 257, 3 * STREAM_BLOCK + 5]),
        hv=st.sampled_from([0.1, 0.3, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_block_sums_match_whole_ensemble(self, tmp_path_factory, flows, n, hv, seed):
        rng = np.random.default_rng(seed)
        idx = sorted({b for f in flows for b in flow_weights(f)[0]}, key=lambda r: (len(r.corner), r.corner))
        idx = [*idx, Rect((99.0,))]  # a column no flow reads
        idx = [idx[i] for i in rng.permutation(len(idx))]
        e = SampleEnsemble(tuple(idx), rng.standard_normal((n, len(idx))), HurstParam(hv))
        streamed = flow_statistics(e.row_blocks(), e.indices, flows, e.hurst)
        assert len(streamed) == len(flows)
        for f, fs in zip(flows, streamed):
            gram, end, half = whole_ensemble_statistics(e, f)
            assert np.max(np.abs(fs.moments - gram)) <= 1e-12 * np.max(np.abs(gram))
            assert fs.end.tobytes() == end.tobytes()
            assert fs.half_increment.tobytes() == half.tobytes()
        # the same blocks read from a stored ensemble give the same bits
        p = tmp_path_factory.getbasetemp() / "flows.sifb"
        write_ensemble_binary(e.row_blocks(), p, e.samples.shape)
        stored = flow_statistics(read_ensemble_blocks(p, (n, len(idx))), e.indices, flows, e.hurst)
        for a, b in zip(streamed, stored):
            assert a.moments.tobytes() == b.moments.tobytes()
            assert a.profile.predicted.tobytes() == b.profile.predicted.tobytes()
            assert a.profile.observed.tobytes() == b.profile.observed.tobytes()
            assert a.end.tobytes() == b.end.tobytes()
            assert a.half_increment.tobytes() == b.half_increment.tobytes()

    @pytest.mark.parametrize("n", [257, 3 * STREAM_BLOCK + 5, 3000])
    def test_project_multiplies_in_stream_blocks(self, n):
        # a three-branch flow sums up to seven signed terms per point, so the
        # bits of X_B A depend on the kernel the BLAS picks for the product's
        # shape; project must pick the one a row block gets
        grids = [np.linspace(i / 3, (i + 1) / 3, 24) for i in range(3)]
        ends = [(8.0, 1.0), (1.0, 8.0), (5.0, 5.0)]
        sf = SimpleFlow(tuple(
            make_elementary_flow(g, [tuple(t * c for c in end) for t in np.linspace(0, 1, len(g))])
            for g, end in zip(grids, ends)
        ))
        boxes = flow_weights(sf)[0]
        e = SampleEnsemble(boxes, np.random.default_rng(n).standard_normal((n, len(boxes))), HurstParam(0.3))
        blocks = [project(SampleEnsemble(boxes, b, e.hurst), sf) for b in e.row_blocks()]
        assert project(e, sf).tobytes() == np.concatenate(blocks).tobytes()

    def test_no_rows_rejected(self):
        f = diag_flow(4)
        with pytest.raises(ValueError, match="no samples"):
            flow_statistics(iter(()), flow_weights(f)[0], [f], HurstParam(0.3))
