"""Flow construction, time changes, and projection of sampled fields."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sifbm.flows import (
    FlowMonotonicityError,
    TimeChange,
    canonical_unions,
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
    columns,
    sample_ensemble,
)
from sifbm.recovery import read_ensemble
from sifbm.rects import measure, rect, signed_terms
from sifbm.storage import StoredEnsemble, write_ensemble_binary
from test_rects import EMPTY, chain, segment_values
from test_stats import two_pass_moments


def diag_flow(points=9, scale=1.0):
    grid = np.linspace(0, 1, points)
    return make_elementary_flow(grid, [(scale * t, scale * t) for t in grid])


class TestMakeElementaryFlow:
    def test_diagonal_valid(self):
        f = diag_flow()
        assert segment_values(f.segments[0])[-1] == rect(1, 1)

    def test_decreasing_coordinate_rejected(self):
        grid = np.linspace(0, 1, 5)
        with pytest.raises(FlowMonotonicityError):
            make_elementary_flow(grid, [(t, 1 - t) for t in grid])

    def test_axis_flow_valid(self):
        grid = np.linspace(0, 1, 5)
        f = make_elementary_flow(grid, [(t, 1.0) for t in grid])
        assert segment_values(f.segments[0])[0] == rect(0, 1)

    def test_grid_not_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_elementary_flow([0, 0.5, 0.5, 1], [(t, t) for t in (0, 0.5, 0.5, 1)])

    def test_empty_prefix_allowed(self):
        grid = np.linspace(0, 1, 4)
        f = make_elementary_flow(grid, [None, (0.2, 0.2), (0.5, 0.5), (1, 1)])
        assert segment_values(f.segments[0])[0] is EMPTY

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
        assert segment_values(f.segments[0])[-1] == u

    def test_rectangular_target_area(self):
        u = rect(2, 1)
        f = flows_through(u, points=33)
        tc = time_change(f)
        # area oracle: f(t) = [0,(2t,t)] so theta = 2 t^2
        assert np.allclose(tc.values, 2 * np.linspace(0, 1, 33) ** 2)

    def test_starts_degenerate(self):
        f = flows_through(rect(3, 0.5, 2))
        assert time_change(f).values[0] == 0.0


class TestSimpleFlow:
    def _two_segment(self):
        g1 = np.linspace(0, 0.5, 5)
        seg1 = make_elementary_flow(g1, [(2 * t * 2.0, 2 * t * 0.5) for t in g1])
        g2 = np.linspace(0.5, 1, 5)
        seg2 = make_elementary_flow(g2, [((t - 0.5) * 1.0, (t - 0.5) * 4.0) for t in g2])
        return chain(seg1, seg2)

    def test_values_accumulate(self):
        sf = self._two_segment()
        assert time_change(sf).grid.size == 9
        # last value is union of both segment endpoints: the two boxes and
        # minus their intersection
        boxes, a = flow_weights(sf)
        last = {u: w for u, w in zip(map(tuple, boxes.tolist()), a[:, -1].tolist()) if w}
        assert last == {rect(0.5, 2.0): 1.0, rect(2.0, 0.5): 1.0, rect(0.5, 0.5): -1.0}

    def test_expanded_once(self, monkeypatch):
        # flow_weights, time_change and so project and
        # predicted_increment_moment all read one expansion; only the first
        # call may build unions
        import sifbm.flows as flows

        sf = self._two_segment()
        boxes, a = flow_weights(sf)
        tc = time_change(sf)
        assert not tc.grid.flags.writeable and not a.flags.writeable

        def no_new_union(*args):
            raise AssertionError("the flow was expanded again")

        monkeypatch.setattr(flows, "canonical_unions", no_new_union)
        assert flow_weights(sf)[1] is a and time_change(sf) is tc

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
            chain(seg1, seg2)


class TestProjection:
    def _exact_ensemble(self, flow, h=0.35, n=200, seed=5, extra=()):
        idx = sorted({*map(tuple, flow_weights(flow)[0].tolist()), *extra})
        return sample_ensemble(idx, HurstParam(h), n, seed=seed)

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
        idx = [v for v in segment_values(f.segments[0]) if v not in (rect(0.5, 0.5), EMPTY)]
        e = sample_ensemble(idx, HurstParam(0.3), 10, seed=1)
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
        sf = chain(seg1, seg2)
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
        sf = chain(seg1, seg2)
        e = self._exact_ensemble(sf, n=40)
        paths = project(e, sf)
        grid, values = reference_unions(sf)
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
        sf = chain(seg1, seg2)
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


# The per-point expansion that the batched one replaced, kept as the
# reference: the merged grid, each point's union put in canonical form on its
# own, one ``signed_terms`` call per point, and the terms added up point by
# point in grid order.


def reference_union_parts(boxes, dim: int) -> np.ndarray:
    """A union of boxes in canonical form, the (k, N) corner array of its
    parts: empty boxes and boxes inside another dropped, each box once,
    sorted by corner."""
    c = np.array(sorted({b for b in boxes if b is not EMPTY})).reshape(-1, dim)
    return c[np.all(c[:, None] <= c[None], axis=2).sum(axis=1) == 1]


def candidates(f) -> tuple[np.ndarray, list]:
    """The merged grid and the boxes whose union is the value at each point:
    its segment's box and the earlier segments' ends; a shared breakpoint is
    valued by the later segment."""
    grid, boxes = [], []
    for i, seg in enumerate(f.segments):
        if grid:  # the previous segment's end point is this one's start
            del grid[-1], boxes[-1]
        ends = [segment_values(s)[-1] for s in f.segments[:i]]
        grid += seg.grid.tolist()
        boxes += [[v, *ends] for v in segment_values(seg)]
    return np.asarray(grid), boxes


def reference_unions(f) -> tuple[np.ndarray, list]:
    """The merged grid and the union at each point, its parts' corner array."""
    grid, boxes = candidates(f)
    return grid, [reference_union_parts(b, f.segments[0].corners.shape[1]) for b in boxes]


def reference_expansion(f) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Boxes, weights and time-change values from the per-point terms."""
    grid, values = reference_unions(f)
    terms = [signed_terms(parts) for parts in values]
    point = np.repeat(np.arange(len(values)), [len(signs) for signs, _ in terms])
    signs, corners = (np.concatenate(x) for x in zip(*terms))
    distinct, row = np.unique(corners, axis=0, return_inverse=True)
    weights = np.zeros((len(distinct), grid.size))
    np.add.at(weights, (row.ravel(), point), signs)
    total = np.bincount(point, weights=signs * measure(corners), minlength=grid.size)
    return distinct, weights, TimeChange(grid, np.maximum(total, 0.0)).values


@st.composite
def segment_chains(draw):
    """Flows of 1..4 segments in 1..3 dimensions: empty prefixes, segments
    valued the empty set throughout, and segment ends drawn from a small
    pool with nested copies, so that ends repeat and nest."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0, 3, allow_nan=False)
    pool = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=3))
    pool += [tuple(0.5 * x for x in c) for c in pool]
    segments = []
    for i in range(draw(st.integers(1, 4))):
        k = draw(st.integers(2, 5))
        if draw(st.integers(0, 3)) == 0:
            path = [None] * k
        else:
            end = draw(st.sampled_from(pool))
            scale = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=k, max_size=k)))
            empty = draw(st.integers(0, k - 1))
            path = [None] * empty + [tuple(t * x for x in end) for t in scale[empty:]]
        segments.append(make_elementary_flow(np.linspace(i, i + 1, k), path))
    return chain(*segments)


class TestBatchedExpansion:
    @given(segment_chains())
    @example(chain(
        make_elementary_flow([0, 1], [None, None]),
        make_elementary_flow([1, 2], [(1.0, 2.0), (2.0, 2.0)]),
    ))
    @example(make_elementary_flow([0, 1], [None, None]))
    @example(chain(
        make_elementary_flow([0, 1, 2], [None, (1.0, 1.0), (2.0, 1.0)]),
        make_elementary_flow([2, 3], [(1.0, 1.0), (1.0, 2.0)]),
        make_elementary_flow([3, 4], [None, (2.0, 1.0)]),
    ))
    @settings(deadline=None, max_examples=200)
    def test_matches_per_point_reference(self, f):
        # each point's union in canonical form, its parts in the same order
        dim, m = f.segments[0].corners.shape[1], len(f.segments)
        rows = [b + [EMPTY] * (m - len(b)) for b in candidates(f)[1]]
        unions = np.array([[b or (0.0,) * dim for b in row] for row in rows]).reshape(len(rows), m, dim)
        present = np.array([[b is not EMPTY for b in row] for row in rows])
        got = [np.zeros((0, dim))] * len(rows)
        for points, parts in canonical_unions(unions, present):
            for p, union in zip(points, parts):
                got[p] = union
        for union, want in zip(got, reference_unions(f)[1]):
            assert union.shape == want.shape and union.tobytes() == want.tobytes()
        boxes, weights = flow_weights(f)
        want_boxes, want_weights, want_theta = reference_expansion(f)
        assert boxes.shape == want_boxes.shape and boxes.tobytes() == want_boxes.tobytes()
        assert weights.tobytes() == want_weights.tobytes()
        assert time_change(f).values.tobytes() == want_theta.tobytes()
        assert weights.shape[1] == len(time_change(f).grid) == len(reference_unions(f)[0])

    def test_empty_segment_takes_the_flows_dimension(self):
        f = chain(
            make_elementary_flow([0, 1], [None, None]),
            make_elementary_flow([1, 2, 3], [(0.5, 0.5), (1, 0.5), (1, 1)]),
        )
        assert [s.corners.shape for s in f.segments] == [(2, 2), (3, 2)]
        assert time_change(f).values.tolist() == [0.0, 0.25, 0.5, 1.0]


# The projection that flow_weights replaced, kept as the reference: stored
# columns copied for an elementary flow, and for a flow of several segments
# each union value summed from its inclusion-exclusion terms in
# ``signed_terms`` order.


def additive_extend(e, parts: np.ndarray) -> np.ndarray:
    """The field on the union of the boxes with corners ``parts``."""
    signs, corners = signed_terms(parts)
    out = np.zeros(e.n_samples)
    for sign, j in zip(signs, columns(e.indices, corners)):
        out += sign * e.samples[:, j]
    return out


def column_projection(e, f) -> np.ndarray:
    if len(f.segments) == 1:
        values = segment_values(f.segments[0])
        nonempty = [j for j, v in enumerate(values) if v is not EMPTY]
        cols = np.zeros((e.n_samples, len(values)))
        for j, col in zip(nonempty, columns(e.indices, [values[j] for j in nonempty])):
            cols[:, j] = e.samples[:, col]
        return cols
    _, values = reference_unions(f)
    return np.column_stack([additive_extend(e, v) for v in values])


def required_boxes(f) -> set:
    """Every column the reference projection reads."""
    if len(f.segments) == 1:
        return {v for v in segment_values(f.segments[0]) if v is not EMPTY}
    return {tuple(c) for v in reference_unions(f)[1] for c in signed_terms(v)[1].tolist()}


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
def lattice_flows(draw, kinds=("elementary", "simple"), dim=None):
    """An elementary flow, or a chain of one to three segments on the grids
    [i, i + 1], in ``dim`` dimensions or in 1..3."""
    dim = dim or draw(st.integers(1, 3))
    kind = draw(st.sampled_from(kinds))
    segments = []
    for i in range(1 if kind == "elementary" else draw(st.integers(1, 3))):
        k = draw(st.integers(2, 6))
        segments.append(make_elementary_flow(np.linspace(i, i + 1, k), draw(lattice_path(dim, k))))
    return chain(*segments)


class TestFlowWeights:
    @given(lattice_flows(), st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=150)
    def test_matches_column_projection(self, f, hv, seed):
        boxes, a = flow_weights(f)
        rows = list(map(tuple, boxes.tolist()))
        assert set(rows) == required_boxes(f) and len(rows) == len(set(rows))
        assert rows == sorted(rows)
        assert not a.flags.writeable and not boxes.flags.writeable and flow_weights(f)[1] is a
        # the flow's columns among one it does not read, in a shuffled order
        rng = np.random.default_rng(seed)
        idx = [*rows, (9.0,) * boxes.shape[1]]
        idx = [idx[i] for i in rng.permutation(len(idx))]
        n = 40
        e = SampleEnsemble(tuple(idx), rng.standard_normal((n, len(idx))), HurstParam(hv))
        want = column_projection(e, f)
        got = project(e, f)
        if len(f.segments) == 1:
            assert np.array_equal(got, want)
        else:  # the product sums a union's terms in its own order
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        (fs,) = read_ensemble(e, flows=[f], h=HurstParam(hv))[1]
        gram = (want.T @ want) / n
        x = e.samples[:, columns(e.indices, boxes)]
        m = a.T @ ((x.T @ x) / n) @ a
        assert np.max(np.abs(m - gram)) <= 1e-12 * np.max(np.abs(gram))
        assert np.max(np.abs(fs.moments - gram)) <= 1e-12 * np.max(np.abs(gram))

    @given(lattice_flows(kinds=("elementary",)), st.sampled_from([0.1, 0.25, 0.4, 0.5]))
    @settings(deadline=None, max_examples=150)
    def test_elementary_second_moments_are_power_law(self, f, hv):
        # A^T C_B A gives E[(X_t - X_s)^2] = |theta_t - theta_s|^{2H} along
        # every elementary flow, with no sampling
        h = HurstParam(hv)
        boxes, a = flow_weights(f)
        second = a.T @ build_cov_matrix(boxes, h) @ a
        d = np.diag(second)
        inc = d[:, None] + d[None, :] - 2.0 * second
        want = predicted_increment_moment(f, h)
        assert np.max(np.abs(inc - want)) <= 1e-12 * d.max()


# The whole-ensemble statistics that the block stream replaced, kept as the
# reference: every path at once and its moment matrix, and the two
# Gaussianity series as the whole ensemble times the flow's last weight
# column and its last minus its middle one, over the boxes they weight,
# whose moments the two-pass reference gives.


def whole_ensemble_statistics(e, f):
    boxes, a = flow_weights(f)
    paths = project(e, f)
    w = np.column_stack([a[:, -1], a[:, -1] - a[:, a.shape[1] // 2]])
    terms = np.flatnonzero(w.any(axis=1))
    x = e.samples[:, columns(e.indices, boxes[terms])]
    return (paths.T @ paths) / e.n_samples, np.einsum("nk,kc->cn", x, w[terms])


def shape_ratios(m2, m3, m4):
    """Skewness and kurtosis, the scale-free ratios of the central moments."""
    return m3 / m2**1.5, m4 / m2**2


# The per-block path product that the box Grams replaced, kept as the
# reference: each block's paths P_b = X_b[:, B] A and P_b^T P_b added up and
# divided by n once.


def per_block_moments(blocks, indices, f):
    boxes, a = flow_weights(f)
    cols = columns(indices, boxes)
    m, n = np.zeros((a.shape[1],) * 2), 0
    for block in blocks:
        p = block[:, cols] @ a
        m += p.T @ p
        n += block.shape[0]
    return m / n


def random_ensemble(flows, n: int, hv: float, seed: int) -> SampleEnsemble:
    """Normal samples over the boxes the flows read and one box none reads,
    in a shuffled column order; the flows share one dimension."""
    rng = np.random.default_rng(seed)
    idx = sorted({tuple(b) for f in flows for b in flow_weights(f)[0].tolist()})
    idx = [*idx, (99.0,) * len(idx[0])]
    idx = [idx[i] for i in rng.permutation(len(idx))]
    return SampleEnsemble(tuple(idx), rng.standard_normal((n, len(idx))), HurstParam(hv))


# an empty prefix, a box repeated along one flow, and a simple flow whose
# segments share boxes
REPEATS = [
    make_elementary_flow(np.linspace(0, 1, 6), [None, None, (1, 1), (1, 1), (2, 1), (2, 1)]),
    chain(
        make_elementary_flow([0.0, 0.5, 1.0], [None, (2, 1), (2, 1)]),
        make_elementary_flow([1.0, 1.5, 2.0], [(1, 1), (1, 2), (1, 2)]),
    ),
]


class TestStreamedFlowStatistics:
    @given(
        flows=st.integers(1, 3).flatmap(lambda dim: st.lists(lattice_flows(dim=dim), min_size=1, max_size=3)),
        n=st.sampled_from([1, 255, 256, 257, 3 * STREAM_BLOCK + 5]),
        stored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(flows=REPEATS, n=257, stored=False, seed=0)
    @example(flows=REPEATS, n=3 * STREAM_BLOCK + 5, stored=True, seed=1)
    @settings(deadline=None, max_examples=60)
    def test_matches_per_block_path_products(self, tmp_path_factory, flows, n, stored, seed):
        e = random_ensemble(flows, n, 0.3, seed)
        p = tmp_path_factory.getbasetemp() / "reference.sifb"
        if stored:
            write_ensemble_binary(e.row_blocks(), p, e.samples.shape)
        source = StoredEnsemble(p, e.indices, e.hurst, n) if stored else e
        for f, fs in zip(flows, read_ensemble(source, flows=flows)[1]):
            m = per_block_moments(source.row_blocks(), e.indices, f)
            if len(f.segments) == 1:
                # the paths select columns, so each moment is the same dot
                # product of two columns; the BLAS sums a dot product in an
                # order it picks per product shape
                tol = STREAM_BLOCK * np.finfo(float).eps * np.max(np.abs(m))
            else:
                tol = 1e-12 * np.max(np.abs(m))
            assert np.max(np.abs(fs.moments - m)) <= tol

    @given(
        flows=st.integers(1, 3).flatmap(lambda dim: st.lists(lattice_flows(dim=dim), min_size=1, max_size=3)),
        n=st.sampled_from([1, 255, 256, 257, 3 * STREAM_BLOCK + 5]),
        hv=st.sampled_from([0.1, 0.3, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_block_sums_match_whole_ensemble(self, tmp_path_factory, flows, n, hv, seed):
        e = random_ensemble(flows, n, hv, seed)
        idx = e.indices
        streamed = read_ensemble(e, flows=flows)[1]
        assert len(streamed) == len(flows)
        for f, fs in zip(flows, streamed):
            gram, series = whole_ensemble_statistics(e, f)
            assert np.max(np.abs(fs.moments - gram)) <= 1e-12 * np.max(np.abs(gram))
            for x, (m2, m3, m4) in zip(series, fs.series_moments):
                # a constant series reads m2 exactly 0, and any other the
                # reference's skewness and kurtosis
                assert (m2 == 0.0) == (np.ptp(x) == 0.0)
                if m2 != 0.0:
                    got, want = shape_ratios(m2, m3, m4), shape_ratios(*two_pass_moments(x))
                    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
        # the same blocks read from a stored ensemble give the same bits
        p = tmp_path_factory.getbasetemp() / "flows.sifb"
        write_ensemble_binary(e.row_blocks(), p, e.samples.shape)
        stored = read_ensemble(StoredEnsemble(p, idx, e.hurst, n), flows=flows)[1]
        for a, b in zip(streamed, stored):
            assert a.moments.tobytes() == b.moments.tobytes()
            assert a.profile.predicted.tobytes() == b.profile.predicted.tobytes()
            assert a.profile.observed.tobytes() == b.profile.observed.tobytes()
            assert a.series_moments.tobytes() == b.series_moments.tobytes()

    def test_memory_flat_in_n_samples(self, tmp_path):
        # the series are added up as power sums, so streamed blocks leave a
        # peak of a few blocks and the box Grams, whatever n is
        flows = [diag_flow(16), *REPEATS]
        peaks = []
        for n in (3_000, 20_000):
            e = random_ensemble(flows, n, 0.3, seed=n)
            p = tmp_path / f"{n}.sifb"
            write_ensemble_binary(e.row_blocks(), p, e.samples.shape)
            shape, indices = e.samples.shape, e.indices
            del e
            tracemalloc.start()
            try:
                read_ensemble(StoredEnsemble(p, indices, HurstParam(0.3), shape[0]), flows=flows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block = STREAM_BLOCK * len(indices) * 8
        assert abs(peaks[1] - peaks[0]) < block

    def test_no_rows_rejected(self):
        f = diag_flow(4)
        boxes = flow_weights(f)[0]
        with pytest.raises(ValueError, match="no samples"):
            read_ensemble(SampleEnsemble(boxes, np.zeros((0, len(boxes))), HurstParam(0.3)), flows=[f])
