"""Recovering the underlying measure from the sampled field.

The pipeline mirrors, at desk scale, the constructive argument behind the
flow characterization of the field:

  1. psi(U) = (E[X_U^2])^{1/(2H)} recovers a set function on boxes from
     ensemble variances.
  2. psi extends to left-neighborhoods C = U \\ (U_1 u ... u U_n) by
     inclusion-exclusion.  On a nested split V = (V \\ U) u U that extension
     is additive for any table, measure or not, so nothing tests it there.
  3. The grid cells of the table's corners are the left-neighborhoods that
     decide the rest: psi extends to a measure on the boxes if and only if
     its increment over every cell, the signed sum of psi over the cell's
     2^N corner boxes, is non-negative (the distribution-function criterion).
     The ``extension`` criterion tests each cell whose corner boxes are all in
     the table or on an axis, one-sided against its propagated error.
  4. That the analytic variance of set differences is outer-continuous along
     shrinking sequences holds for the Lebesgue table alone, so the test
     suite checks it, not this module.
  5. ``recover_measure`` bundles the recovery, monotonicity and extension
     checks into a pass/fail report; ``characterize`` adds flow variance
     profiles, Gaussianity diagnostics and the covariance comparison.

An ensemble ``e`` is read only through its ``row_blocks()``, so a
``gaussian.SampleEnsemble`` and a ``storage.StoredEnsemble`` give the same bits.

Empirical psi entries carry delta-method standard errors:
d psi / d s = (1/(2H)) s^{1/(2H)-1} applied to the standard error of the
mean square.  Propagated errors for alternating sums add in quadrature
(cross-term correlations are ignored; a desk-scale approximation).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .flows import Flow
from .gaussian import HurstParam, ResolutionError, columns, covariance_from_measures
from .rects import Rect, cell_corners, corner_array, grid_lower, measure
from .stats import flow_statistics, gaussianity_check

_AT_LEAST_0, _FRACTION = {"least": 0.0}, {"least": 0.0, "most": 1.0}


@dataclass(frozen=True)
class PreMeasureTable:
    """Recovered pre-measure over a box list: ``value[i]`` is psi of
    ``boxes[i]`` and ``stderr[i]`` its delta-method standard error; an
    table drawn from an ensemble keeps ``gram``, the second moments
    G = X^T X / n of its boxes' columns over ``n_samples`` samples."""

    boxes: tuple[Rect, ...]
    value: np.ndarray
    stderr: np.ndarray
    gram: np.ndarray | None = None
    n_samples: int = 0

    @classmethod
    def from_ensemble(cls, e, boxes=None) -> "PreMeasureTable":
        """Plug-in recovery of each box, diag(G)^{1/(2H)}, from the columns of
        ``e`` (all of them by default), repeated boxes once, in one pass over
        its row blocks that adds up X^T X and the column sums S4 of X^4.  The
        standard error of the mean square s is the sample SD of X^2 over
        sqrt(n), sqrt(max(S4 - n s^2, 0) / ((n - 1) n)): 0, not NaN, on a
        constant column."""
        n = e.n_samples
        if n < 100:
            raise ResolutionError(f"need at least 100 samples to estimate the pre-measure, got {n}")
        boxes = tuple(dict.fromkeys(e.indices if boxes is None else boxes))
        cols = columns(e.indices, boxes)
        gram, s4 = np.zeros((len(boxes), len(boxes))), np.zeros(len(boxes))
        for block in e.row_blocks():
            x = block[:, cols]
            gram += x.T @ x
            s4 += np.sum((x * x) ** 2, axis=0)
        gram /= n
        s = np.diag(gram)
        flat = [u for u, z in zip(boxes, (s == 0.0) & (measure(corner_array(boxes)) > 0)) if z]
        if flat:
            warnings.warn(f"zero empirical variance for non-degenerate indices {flat}", stacklevel=2)
        inv = 1.0 / e.hurst.two_h
        # Python's float pow: numpy's array power differs from it in the last
        # bit for about one value in twenty
        try:
            value = np.array([x**inv for x in s.tolist()])
            slope = np.array([x ** (inv - 1.0) for x in s.tolist()])
        except OverflowError:
            raise ResolutionError(
                f"psi = variance^(1/(2H)) overflows a float at hurst {e.hurst.value}"
            ) from None
        with np.errstate(over="ignore", invalid="ignore"):
            spread = s4 - n * s**2
        if not np.all(np.isfinite(spread)):
            raise ResolutionError(f"the X^4 sums of {boxes[np.argmin(np.isfinite(spread))]} overflow a float")
        se_s = np.sqrt(np.maximum(spread, 0.0) / ((n - 1) * n))
        return cls(boxes, value, inv * slope * se_s, gram, n)


def _table_rows(table, corners) -> np.ndarray:
    """Row of the table's boxes at each of ``corners``, an (n, N) array, and
    -1 where the table lacks the box."""
    own = corner_array(table.boxes)
    t = len(own)
    distinct, ids = np.unique(np.concatenate([own, corners]), axis=0, return_inverse=True)
    ids = ids.ravel()
    row = np.full(len(distinct), -1)
    row[ids[:t]] = np.arange(t)
    return row[ids[t:]]


def psi_on_cells(table, lower, upper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, standard error, tested) of each grid cell (lower[k], upper[k]]:
    the signed sum of psi over its 2^N corner boxes (``rects.cell_corners``),
    with their standard errors added in quadrature.  A corner box on an axis
    has psi 0; a cell with a corner box neither on an axis nor in the table
    is not tested, and reads 0 with error 0."""
    signs, lowered = cell_corners(upper.shape[1])
    corners = np.where(lowered[:, None], lower, upper)
    on_axis = np.any(corners == 0.0, axis=2)
    rows = _table_rows(table, corners.reshape(-1, upper.shape[1])).reshape(on_axis.shape)
    tested = np.all(on_axis | (rows >= 0), axis=0)
    # the absent and on-axis boxes read the 0 appended after the last box
    rows[on_axis | ~tested] = -1
    value = np.append(table.value, 0.0)[rows]
    var = np.append(table.stderr, 0.0)[rows] ** 2
    return (signs[:, None] * value).sum(axis=0), np.sqrt(var.sum(axis=0)), tested


# ---------------------------------------------------------------------------
# End-to-end characterization verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Pass/fail knobs for the characterization verdict.

    Defaults follow the standard desk-scale bands: 4-sigma profile bands with
    a 95% pass fraction, 4-sigma moment z-tests, 3-sigma monotonicity and
    extension bands, and a recovery tolerance of max(5% relative,
    4 propagated standard errors) on indices with measure >= psi_floor.
    Nested splits are additive for any table, so no band tests them; the
    extension band is the one that tests that psi is a measure: every tested
    grid cell's psi must be at least -extension_se_mult times its propagated
    standard error (one-sided).  The config
    holds each field to its metadata range: pass fractions in [0, 1], the rest >= 0.
    """

    profile_se_mult: float = field(default=4.0, metadata=_AT_LEAST_0)
    profile_pass_fraction: float = field(default=0.95, metadata=_FRACTION)
    gaussianity_z: float = field(default=4.0, metadata=_AT_LEAST_0)
    psi_recovery_rel: float = field(default=0.05, metadata=_AT_LEAST_0)
    psi_recovery_se_mult: float = field(default=4.0, metadata=_AT_LEAST_0)
    psi_floor: float = field(default=0.1, metadata=_AT_LEAST_0)
    monotonicity_se_mult: float = field(default=3.0, metadata=_AT_LEAST_0)
    extension_se_mult: float = field(default=3.0, metadata=_AT_LEAST_0)
    covariance_se_mult: float = field(default=3.0, metadata=_AT_LEAST_0)
    covariance_pass_fraction: float = field(default=0.99, metadata=_FRACTION)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class CharacterizationReport:
    criteria: tuple[CriterionResult, ...]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.criteria)

    @property
    def failed(self) -> list[str]:
        return [c.name for c in self.criteria if not c.passed]

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "criteria": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "statistic": c.statistic,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in self.criteria
            ],
        }


def _flow_criteria(e, flows, h, thr) -> list[CriterionResult]:
    out = []
    worst_frac, worst_detail = 1.0, "every pair of every flow within band"
    gauss_worst, gauss_detail = 0.0, "no series varies, so none was tested"
    for fi, fs in enumerate(flow_statistics(e.row_blocks(), e.indices, flows, h)):
        frac = fs.profile.fraction_within(thr.profile_se_mult)
        if frac < worst_frac:
            worst_frac, worst_detail = frac, f"worst within-band fraction at flow {fi}"
        for label, series in (("end value", fs.end), ("half increment", fs.half_increment)):
            if np.std(series) == 0:
                continue
            rep = gaussianity_check(series, z_limit=thr.gaussianity_z)
            z = max(abs(rep.skewness_z), abs(rep.excess_kurtosis_z))
            if z >= gauss_worst:
                gauss_worst, gauss_detail = z, f"worst moment z at flow {fi} {label}"
    out.append(
        CriterionResult(
            "variance_profile",
            worst_frac >= thr.profile_pass_fraction,
            worst_frac,
            thr.profile_pass_fraction,
            worst_detail,
        )
    )
    out.append(
        CriterionResult(
            "gaussianity",
            gauss_worst < thr.gaussianity_z,
            gauss_worst,
            thr.gaussianity_z,
            gauss_detail,
        )
    )
    return out


def _containment(indices) -> np.ndarray:
    """inside[a, b]: box a lies in box b."""
    c = corner_array(indices)
    return np.all(c[:, None] <= c[None], axis=2)


def _psi_criteria(table, thr) -> list[CriterionResult]:
    value, se = table.value, table.stderr
    # recovery, on the boxes of measure at least psi_floor
    m = measure(corner_array(table.boxes))
    tested = m >= thr.psi_floor
    err = np.abs(value - m)
    tol = np.maximum(thr.psi_recovery_rel * m, thr.psi_recovery_se_mult * se)
    recovery_pass = not np.any(tested & (err > tol))
    rel = np.divide(err, m, out=np.zeros_like(m), where=tested)
    worst_rel = float(np.max(rel, initial=0.0))
    worst_detail = f"at {table.boxes[np.argmax(rel)]!r}" if worst_rel > 0 else "is 0"
    # every comparable pair once, the smaller box first
    inside = _containment(table.boxes)
    a, b = np.nonzero(np.triu(inside | inside.T, 1))
    small, big = np.where(inside[a, b], a, b), np.where(inside[a, b], b, a)
    slack = thr.monotonicity_se_mult * np.hypot(se[small], se[big])
    viol = value[small] - value[big] - slack
    mono_pass = not np.any(viol > 0)
    worst_viol = float(np.max(viol, initial=0.0))
    return [
        CriterionResult(
            "psi_recovery",
            recovery_pass,
            worst_rel,
            thr.psi_recovery_rel,
            f"worst relative recovery error {worst_detail}",
        ),
        CriterionResult(
            "psi_monotonicity",
            mono_pass,
            worst_viol,
            0.0,
            "violation beyond the propagated-error band",
        ),
    ]


def _cell_criterion(table, thr) -> CriterionResult:
    # the cell below each table box off the axes, on the grid of the table's corners
    corners = corner_array(table.boxes)
    off_axes = np.all(corners > 0.0, axis=1)
    lower, upper = grid_lower(corners)[off_axes], corners[off_axes]
    value, se, tested = psi_on_cells(table, lower, upper)
    lower, upper, value, se = (x[tested] for x in (lower, upper, value, se))
    if not len(value):
        return CriterionResult(
            "extension", True, 0.0, 0.0,
            "no cell has every corner box in the table, so none was tested",
        )
    viol = -value - thr.extension_se_mult * se
    with np.errstate(divide="ignore", invalid="ignore"):
        z = value / se
    worst = int(np.argmin(np.where(np.isnan(z), np.inf, z)))
    return CriterionResult(
        "extension",
        not np.any(viol > 0),
        float(np.max(viol, initial=0.0)),
        0.0,
        f"cells tested: {len(value)}; smallest z {z[worst]:.2f} in "
        f"({lower[worst].tolist()}, {upper[worst].tolist()}]",
    )


def _covariance_criterion(table, h, thr) -> CriterionResult:
    # usable pairs: both boxes and their intersection have recovered entries
    emp, n = table.gram, table.n_samples
    corners = corner_array(table.boxes)
    t, dim = corners.shape
    inter = np.minimum(corners[:, None], corners[None, :]).reshape(t * t, dim)
    k = _table_rows(table, inter).reshape(t, t)
    i, j = np.nonzero(np.triu(k >= 0))
    mu, mv, mi = table.value[i], table.value[j], table.value[k[i, j]]
    pred = covariance_from_measures(mu, mv, mu + mv - 2 * mi, h)
    se = np.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / n)
    dev = np.abs(emp[i, j] - pred)
    banded = se > 0
    total = len(i)
    ok = int(np.count_nonzero(dev[banded] <= thr.covariance_se_mult * se[banded]))
    ok += int(np.count_nonzero(dev[~banded] == 0))
    worst = float(np.max(dev[banded] / se[banded], initial=0.0))
    if total == 0:
        return CriterionResult(
            "covariance_comparison", False, 0.0, thr.covariance_pass_fraction,
            "no intersection-closed pairs available",
        )
    frac = ok / total
    return CriterionResult(
        "covariance_comparison",
        frac >= thr.covariance_pass_fraction,
        frac,
        thr.covariance_pass_fraction,
        f"fraction of {total} entries within {thr.covariance_se_mult}-sigma bands "
        f"(worst {worst:.1f} sigma)",
    )


def recover_measure(
    e,
    thresholds: Thresholds | None = None,
    table_indices=None,
) -> tuple[CharacterizationReport, PreMeasureTable]:
    """Measure-recovery verdict: psi recovery, monotonicity and the
    cell-increment extension test, together with the recovered table they were
    computed from."""
    thr = thresholds or Thresholds()
    table = PreMeasureTable.from_ensemble(e, table_indices)
    criteria = _psi_criteria(table, thr)
    criteria.append(_cell_criterion(table, thr))
    return CharacterizationReport(tuple(criteria)), table


def characterize(
    e,
    flows: list[Flow],
    h: HurstParam,
    thresholds: Thresholds | None = None,
    table_indices=None,
) -> CharacterizationReport:
    """Full verdict: does the ensemble behave like the exact field with
    parameter h over this index family?

    Runs flow variance profiles and Gaussianity z-tests, the
    ``recover_measure`` criteria, and the final covariance comparison against
    the covariance rebuilt from the recovered measure.
    """
    if e.n_samples < 1000:
        raise ResolutionError(f"characterize needs at least 1000 samples, got {e.n_samples}")
    thr = thresholds or Thresholds()
    recovered, table = recover_measure(e, thr, table_indices)
    criteria = _flow_criteria(e, flows, h, thr)
    criteria += recovered.criteria
    criteria.append(_covariance_criterion(table, h, thr))
    return CharacterizationReport(tuple(criteria))
