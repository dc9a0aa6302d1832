"""Acceptance suite: the ten end-to-end criteria, one test per criterion,
each printing a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here, not configurable: 1e-12 for algebraic identities,
CLT/chi-square bands for Monte Carlo checks at the stated sample sizes.
"""

import itertools
import json
from contextlib import contextmanager

import numpy as np
import pytest

from sifbm.cli import main
from sifbm.flows import (
    SimpleFlow,
    flow_weights,
    flows_through,
    make_elementary_flow,
)
from sifbm.gaussian import (
    HurstParam,
    SampleEnsemble,
    build_cov_matrix,
    cholesky,
    sample_ensemble,
)
from sifbm.intrep import GridSpec, KernelLaw, draw, fbm_covariance, half_case_simulate
from sifbm.recovery import PreMeasureTable, Thresholds, _cell_criterion, characterize, psi_on_cells
from sifbm.rects import Rect, rect, rect_intersection, rect_measure
from sifbm.stats import flow_statistics, gaussianity_check
from test_recovery import (
    cell_measure,
    entry,
    lebesgue_table,
    measurability_check,
    outer_continuity_check,
)
from test_rects import LeftNeighborhood, left_nbhd_measure


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL: {label}")
        raise
    print(f"[criterion {num:2d}] PASS: {label}")


def exact_ensemble(indices, h, n, seed):
    idx = sorted(set(indices), key=lambda r: r.corner)
    return sample_ensemble(cholesky(build_cov_matrix(idx, HurstParam(h))), n, seed=seed)


def flow_battery(points=64):
    """Three elementary flows (diagonal, axis-weighted, curved) plus one
    two-branch simple flow."""
    grid = np.linspace(0, 1, points)
    diagonal = flows_through(rect(2, 2), points=points)
    axis = make_elementary_flow(grid, [(3 * t, 1.0) for t in grid])
    curved = make_elementary_flow(grid, [(2 * t**2, 2 * t) for t in grid])
    half = points // 2
    g1 = np.linspace(0, 0.5, half)
    g2 = np.linspace(0.5, 1, half)
    simple = SimpleFlow(
        (
            make_elementary_flow(g1, [(2 * t * 3, 2 * t * 1) for t in g1]),
            make_elementary_flow(g2, [(2 * (t - 0.5) * 1, 2 * (t - 0.5) * 3) for t in g2]),
        )
    )
    return [diagonal, axis, curved, simple]


def test_criterion_01_half_case_covariance_identity():
    with criterion(1, "H=1/2 covariance equals pairwise intersection measure (<=1e-12)"):
        pts = [rect(i, j) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]
        cm = build_cov_matrix(pts, HurstParam(0.5))
        want = np.array(
            [[rect_measure(rect_intersection(u, v)) for v in pts] for u in pts]
        )
        dev = float(np.max(np.abs(cm.matrix - want)))
        assert dev <= 1e-12, f"max deviation {dev}"


def test_criterion_02_psd_random_index_sets():
    with criterion(2, "covariance PSD over 50 random index sets, 4 Hurst values"):
        rng = np.random.default_rng(20240501)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            k = int(rng.integers(2, 13))
            idx = [Rect(tuple(rng.uniform(0, 3, dim))) for _ in range(k)]
            for hv in (0.1, 0.2, 0.35, 0.5):
                cm = build_cov_matrix(idx, HurstParam(hv))
                mineig = float(np.linalg.eigvalsh(cm.matrix).min())
                bound = -1e-10 * float(cm.matrix.diagonal().max())
                assert mineig >= bound, f"min eig {mineig} < {bound} at H={hv}"


def test_criterion_03_flow_projection_law():
    label = "flow projection law: >=95% of pairs in 4-sigma bands, Gaussianity"
    with criterion(3, label):
        n = 20_000
        battery = flow_battery(points=64)
        for hv, seed in ((0.2, 301), (0.35, 302), (0.5, 303)):
            idx = set()
            for f in battery:
                idx.update(flow_weights(f)[0])
            e = exact_ensemble(idx, hv, n, seed)
            h = HurstParam(hv)
            for fi, fs in enumerate(flow_statistics(e.row_blocks(), e.indices, battery, h)):
                frac = fs.profile.fraction_within(4.0)
                assert frac >= 0.95, f"H={hv} flow {fi}: only {frac:.3f} within band"
                for series in (fs.end, fs.half_increment):
                    if np.std(series) == 0:
                        continue
                    rep = gaussianity_check(series)
                    assert rep.passed, (
                        f"H={hv} flow {fi}: z=({rep.skewness_z:.2f}, "
                        f"{rep.excess_kurtosis_z:.2f})"
                    )


def test_criterion_04_psi_recovery():
    with criterion(4, "pre-measure recovery within 5% and monotone within 3 SE"):
        hv, n = 0.35, 20_000
        lattice = [rect(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        e = exact_ensemble(lattice, hv, n, seed=401)
        table = PreMeasureTable.from_ensemble(e)
        for u in lattice:
            m = rect_measure(u)
            if m < 0.1:
                continue
            got, _ = entry(table, u)
            assert abs(got - m) / m <= 0.05, f"{u!r}: {got} vs {m}"
        for u, v in itertools.combinations(lattice, 2):
            (pu, su), (pv, sv) = entry(table, u), entry(table, v)
            if all(a <= b for a, b in zip(u.corner, v.corner)):
                slack = 3 * float(np.hypot(su, sv))
                assert pu <= pv + slack, f"monotonicity broke at {u!r} <= {v!r}"


def grid_tiles(corner, divisions) -> list[LeftNeighborhood]:
    """The grid cells of [0, corner] cut into divisions^N equal tiles, each
    its upper box minus the boxes just below it (off the axes)."""
    edges = [np.linspace(0.0, c, divisions + 1) for c in corner]
    tiles = []
    for cell in itertools.product(range(divisions), repeat=len(corner)):
        hi = tuple(e[k + 1] for e, k in zip(edges, cell))
        below = [hi[:i] + (e[k],) + hi[i + 1:] for i, (e, k) in enumerate(zip(edges, cell)) if k]
        tiles.append(LeftNeighborhood(Rect(hi), tuple(map(Rect, below))))
    return tiles


def test_criterion_05_inclusion_exclusion_and_additivity():
    with criterion(5, "inclusion-exclusion matches Lebesgue (1e-12)"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            upper = rng.uniform(0.5, 3, 2)
            lower = upper * rng.uniform(0, 1, 2) * rng.integers(0, 2, 2)
            corners = [np.where(pick, lower, upper) for pick in itertools.product((0, 1), repeat=2)]
            table = lebesgue_table([Rect(tuple(c)) for c in corners])
            (got,), _, (tested,) = psi_on_cells(table, lower[None], upper[None])
            subs = tuple(Rect(tuple(c)) for c in corners[1:3])
            want = left_nbhd_measure(LeftNeighborhood(Rect(tuple(upper)), subs))
            assert tested and abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_06_outer_measure_extension_and_measurability():
    label = "cell measure extends psi (1e-12 analytic, 3 SE empirical); measurable splits"
    with criterion(6, label):
        h = HurstParam(0.3)
        u = rect(2, 2)
        for divs in (2, 4):
            analytic = lebesgue_table(t.base for t in grid_tiles((2.0, 2.0), divs))
            resid = abs(cell_measure(analytic, u)[0] - rect_measure(u))
            assert resid <= 1e-12, f"analytic grid {divs}: residual {resid}"
        # empirical table over the coarse grid: each cell within 3 SE of a
        # measure, and the cells below u add up to psi(u)
        lattice = [rect(i, j) for i in (1, 2) for j in (1, 2)]
        e = exact_ensemble(lattice, h.value, 20_000, seed=601)
        table = PreMeasureTable.from_ensemble(e)
        ext = _cell_criterion(table, Thresholds(extension_se_mult=3.0))
        assert ext.passed, f"empirical cell test: {ext.detail}"
        total, se = cell_measure(table, u)
        resid = abs(total - entry(table, u)[0])
        assert resid <= 3 * se, f"empirical extension: {resid} > 3*{se}"
        # 25 disjoint inside/outside pairs across the boundary of [0,(2,2)]
        tiles = grid_tiles((4.0, 4.0), 4)
        analytic = lebesgue_table(t.base for t in tiles)
        inside = [t for t in tiles if max(t.base.corner) <= 2]
        outside = [t for t in tiles if max(t.base.corner) > 2]
        pairs = list(itertools.product(inside, outside))[:25]
        assert len(pairs) == 25
        for a, b in pairs:
            resid = measurability_check(analytic, u, a, b)
            assert resid <= 1e-12, f"measurability residual {resid}"


def test_criterion_07_outer_continuity():
    with criterion(7, "analytic outer continuity: monotone to < 1e-6"):
        for hv in (0.2, 0.5):
            h = HurstParam(hv)
            # shrink to a unit square, to the origin, and to a segment
            seqs = [
                ([(1 + d, 1 + d) for d in np.geomspace(1.0, 1e-16, 40)], rect(1, 1)),
                ([(d, d) for d in np.geomspace(1.0, 1e-9, 40)], rect(0, 0)),
                ([(1.0, d) for d in np.geomspace(1.0, 1e-18, 40)], rect(1, 0)),
            ]
            for corners, limit in seqs:
                vals = outer_continuity_check(h, corners, limit)
                assert np.all(np.diff(vals) <= 0), "sequence not monotone"
                assert vals[-1] < 1e-6, f"H={hv}: final value {vals[-1]}"


def test_criterion_08_integral_representation():
    label = "moving-average representation: variance 3%, covariance 3-sigma, refinement, H=1/2"
    with criterion(8, label):
        n = 20_000
        spec = GridSpec()  # default grid
        hursts = (0.2, 0.35)
        law = KernelLaw(HurstParam(hv) for hv in hursts)
        for hi, (hv, h) in enumerate(zip(hursts, law.hs)):
            for ti, theta in enumerate((0.25, 1.0, 4.0)):
                paths = draw([theta], law.covariances([theta], spec)[hi], 801 + 10 * hi + ti, n)
                var = float(np.mean(paths[:, 0] ** 2))
                want = theta ** (2 * hv)
                rel = abs(var - want) / want
                assert rel <= 0.03, f"H={hv} theta={theta}: variance off by {rel:.4f}"
            masses = [0.8, 0.9, 1.0]
            base_cov, fine_cov = (law.covariances(masses, s)[hi] for s in (spec, spec.refine(2)))
            paths = draw(masses, base_cov, 851 + hi, n)
            emp = (paths.T @ paths) / n
            want = fbm_covariance(masses, h)
            se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
            worst = float(np.max(np.abs(emp - want) / se))
            assert worst <= 3.0, f"H={hv}: covariance worst {worst:.2f} sigma"
            base_err = float(np.max(np.abs(base_cov - want)))
            fine_err = float(np.max(np.abs(fine_cov - want)))
            assert fine_err < base_err, (
                f"H={hv}: refinement did not reduce error ({base_err} -> {fine_err})"
            )
        masses = [0.25, 0.7, 1.6]
        paths = half_case_simulate(masses, seed=871, n_samples=n)
        emp = (paths.T @ paths) / n
        m = np.asarray(masses)
        want = np.minimum(m[:, None], m[None, :])
        se = np.sqrt((np.outer(m, m) + want**2) / n)
        assert np.all(np.abs(emp - want) <= 3 * se), "half-case covariance off"


def _corrupt(e: SampleEnsemble, mode: str, rng) -> SampleEnsemble:
    if mode == "independent":
        return SampleEnsemble(e.indices, rng.standard_normal(e.samples.shape), e.hurst)
    if mode == "mean_shift":
        shifted = e.samples.copy()
        shifted[:, e.indices.index(rect(2, 2))] += 0.5
        return SampleEnsemble(e.indices, shifted, e.hurst)
    raise ValueError(mode)


def test_criterion_09_characterization_discrimination():
    label = "characterize: exact passes, three corruptions fail with named criterion"
    with criterion(9, label):
        hv = 0.3
        h = HurstParam(hv)
        n = 20_000
        battery = flow_battery(points=24)
        lattice = [rect(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        idx = set(lattice)
        for f in battery:
            idx.update(flow_weights(f)[0])
        idx = sorted(idx, key=lambda r: r.corner)
        base_factor = cholesky(build_cov_matrix(idx, h))
        wrong_factor = cholesky(build_cov_matrix(idx, HurstParam(hv + 0.15)))
        for seed in (901, 902, 903, 904, 905):
            rng = np.random.default_rng(seed)
            exact = sample_ensemble(base_factor, n, seed=seed)
            rep = characterize(exact, battery, h, table_indices=lattice)
            assert rep.verdict, f"seed {seed}: exact input failed {rep.failed}"
            wrong_h = sample_ensemble(wrong_factor, n, seed=seed)
            wrong_h = SampleEnsemble(wrong_h.indices, wrong_h.samples, h)
            rep = characterize(wrong_h, battery, h, table_indices=lattice)
            assert not rep.verdict and "variance_profile" in rep.failed, (
                f"seed {seed}: H-shift not caught ({rep.failed})"
            )
            rep = characterize(
                _corrupt(exact, "independent", rng), battery, h,
                table_indices=lattice,
            )
            assert not rep.verdict and "variance_profile" in rep.failed, (
                f"seed {seed}: independent columns not caught ({rep.failed})"
            )
            rep = characterize(
                _corrupt(exact, "mean_shift", rng), battery, h,
                table_indices=lattice,
            )
            assert not rep.verdict and "psi_recovery" in rep.failed, (
                f"seed {seed}: mean shift not caught ({rep.failed})"
            )


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI artifacts byte-identical across reruns and --jobs 1/8"):
        config = {
            "dimension": 2,
            "hurst": 0.3,
            "seed": 7,
            "n_samples": 1000,
            "output_dir": str(tmp_path / "out"),
            "indices": {"lattice": {"shape": [3, 3], "spacing": [1.0, 1.0]}},
            "flows": [
                {"name": "diag", "kind": "linear", "to": [3.0, 3.0], "points": 16}
            ],
            "covers": {"tiling": {"corner": [3.0, 3.0], "divisions": [3, 3]}},
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "out"

        def artifact_bytes():
            return {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name.startswith("ensemble")
            }

        assert main(["simulate", "--config", str(cpath), "--jobs", "1"]) == 0
        first = artifact_bytes()
        manifest1 = json.loads((out / "manifest_simulate.json").read_text())
        assert main(["simulate", "--config", str(cpath), "--jobs", "1"]) == 0
        assert artifact_bytes() == first, "rerun changed artifacts"
        assert main(["simulate", "--config", str(cpath), "--jobs", "8"]) == 0
        assert artifact_bytes() == first, "--jobs changed artifacts"
        manifest8 = json.loads((out / "manifest_simulate.json").read_text())
        for volatile in ("wall_time_s",):
            manifest1.pop(volatile), manifest8.pop(volatile)
        assert manifest1 == manifest8, "manifests differ beyond wall time"


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
