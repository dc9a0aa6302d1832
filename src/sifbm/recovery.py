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
``gaussian.SampleEnsemble`` and a ``storage.StoredEnsemble`` give the same bits,
and only by ``read_ensemble``, which walks them once (``stats.ensemble_sums``)
for the table and every flow a command reads: ``characterize`` reads both
from the same pass.  A table holds its boxes as a sorted corner array, and
the cell and covariance criteria find the boxes they need in it with
``rects.find_rows``.

Empirical psi entries carry delta-method standard errors: d psi / d s =
(1/(2H)) s^{1/(2H)-1} applied to the Isserlis (1918) standard error
sqrt(2/n) s of the mean square s, so psi's error is (1/(2H)) psi sqrt(2/n),
read from the table's Gram alone like the profile and covariance bands.
Propagated errors for alternating sums add in quadrature (cross-term
correlations are ignored; a desk-scale approximation).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .flows import Flow, flow_weights, predicted_increment_moment, time_change
from .gaussian import HurstParam, ResolutionError, columns, covariance_from_measures, increments
from .rects import cell_corners, distinct_rows, find_rows, grid_lower, measure
from .stats import (GAUSSIANITY_Z, PROFILE_SE_MULT, FlowStatistics, ensemble_sums, gaussianity_check,
                    isserlis_z, variance_profile)


def _named(corner: np.ndarray) -> str:
    """A box as reports and errors name it: Rect and its corner list."""
    return f"Rect({corner.tolist()})"


@dataclass(frozen=True, eq=False)
class PreMeasureTable:
    """Recovered pre-measure over the boxes of an (n, N) corner array:
    ``value[i]`` is psi of box ``boxes[i]`` and ``stderr[i]`` its
    delta-method standard error; a table read from an ensemble
    (``read_ensemble``) keeps ``gram``, the second moments G = X^T X / n of
    its boxes' columns over ``n_samples`` samples."""

    boxes: np.ndarray
    value: np.ndarray
    stderr: np.ndarray
    gram: np.ndarray | None = None
    n_samples: int = 0

    @classmethod
    def from_moments(cls, boxes, gram, n: int, h: HurstParam) -> "PreMeasureTable":
        """Plug-in recovery of each box, psi = G_ii^{1/(2H)}, from the second
        moments G of ``n`` samples of the boxes' columns; G = C gives the
        exact field's table.  The standard error is the delta method applied
        to the Isserlis (1918) band sqrt(2/n) G_ii of a Gaussian mean square,
        the band every other second moment carries: (1/(2H)) psi sqrt(2/n).
        A psi beyond the float range, or 0 from a positive variance, is a
        ResolutionError."""
        s = np.diag(gram)
        flat = (s == 0.0) & (measure(boxes) > 0)
        if flat.any():
            warnings.warn(f"zero empirical variance for non-degenerate indices {boxes[flat].tolist()}",
                          stacklevel=3)
        inv = 1.0 / h.two_h
        # Python's float pow: numpy's array power differs from it in the last
        # bit for about one value in twenty
        try:
            value = np.array([x**inv for x in s.tolist()])
        except OverflowError:
            raise ResolutionError(f"psi = variance^(1/(2H)) overflows a float at hurst {h.value}") from None
        if np.any((value == 0) & (s > 0)):
            lost = _named(boxes[np.argmax((value == 0) & (s > 0))])
            raise ResolutionError(f"psi = variance^(1/(2H)) of {lost} underflows to 0 at hurst {h.value}")
        return cls(boxes, value, inv * value * np.sqrt(2.0 / n), gram, n)


def read_ensemble(e, boxes=None, flows=(), h: HurstParam | None = None
                  ) -> tuple[PreMeasureTable | None, list[FlowStatistics]]:
    """What the verdicts read of an ensemble ``e``, from one pass over its
    row blocks that adds up the Grams of the table's columns and of each
    flow's boxes and the flows' series' power sums
    (``stats.ensemble_sums``); beyond a few blocks and the Grams, no array
    grows with n.  Returns the table of the corner array ``boxes``, each box
    once, sorted by corner (``from_moments``; None when ``boxes`` is None),
    and one ``FlowStatistics`` per flow: its moment matrix A_f^T (G_B / n)
    A_f, read once from the Gram G_B of its boxes (``flow_weights``), its
    profile against the law with parameter ``h`` (the ensemble's by
    default), and its two series, A_f's last column and its last minus its
    middle one.  A box whose second moment is not finite (a NaN or infinite
    sample, or squares whose sum overflows) is a ResolutionError."""
    sets = []
    if boxes is not None:
        if e.n_samples < 100:
            raise ResolutionError(f"need at least 100 samples to estimate the pre-measure, got {e.n_samples}")
        boxes = np.asarray(boxes, dtype=float)
        boxes = boxes[distinct_rows(boxes)[0]]
        sets.append((columns(e.indices, boxes), np.zeros((len(boxes), 0))))
    for fb, a in map(flow_weights, flows):
        end = a[:, -1]
        sets.append((columns(e.indices, fb), np.column_stack([end, end - a[:, a.shape[1] // 2]])))
    n, grams, central = ensemble_sums(e.row_blocks(), sets)
    for (c, _), g in zip(sets, grams):
        lost = ~np.isfinite(np.diag(g))
        if lost.any():
            raise ResolutionError(f"the second moment of {_named(e.indices[c[np.argmax(lost)]])} is not finite")
    table = None if boxes is None else PreMeasureTable.from_moments(boxes, grams.pop(0) / n, n, e.hurst)
    stats = []
    for i, (f, g) in enumerate(zip(flows, grams)):
        a = flow_weights(f)[1]
        m = a.T @ (g / n) @ a
        profile = variance_profile(m, n, time_change(f), predicted_increment_moment(f, h or e.hurst))
        stats.append(FlowStatistics(m, profile, central[:, 2 * i:2 * i + 2].T.copy()))
    return table, stats


def psi_on_cells(table, lower, upper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, standard error, tested) of each grid cell (lower[k], upper[k]]:
    the signed sum of psi over its 2^N corner boxes (``rects.cell_corners``),
    with their standard errors added in quadrature.  A corner box on an axis
    has psi 0; a cell with a corner box neither on an axis nor in the table
    is not tested, and reads 0 with error 0."""
    signs, lowered = cell_corners(upper.shape[1])
    corners = np.where(lowered[:, None], lower, upper)
    on_axis = np.any(corners == 0.0, axis=2)
    rows = find_rows(table.boxes, corners.reshape(-1, upper.shape[1])).reshape(on_axis.shape)
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


# The verdict bands are constants, so no setting can switch a verdict off.
# The profile passes when this fraction of each flow's pairs is within band.
PROFILE_PASS_FRACTION = 0.95


def _flow_criteria(stats) -> list[CriterionResult]:
    out = []
    worst_frac, worst_detail = 1.0, "every pair of every flow within band"
    gauss_worst, gauss_detail = 0.0, "no series varies, so none was tested"
    for fi, fs in enumerate(stats):
        frac = fs.profile.fraction_within(PROFILE_SE_MULT)
        if frac < worst_frac:
            worst_frac, worst_detail = frac, f"worst within-band fraction at flow {fi}"
        for label, (m2, m3, m4) in zip(("end value", "half increment"), fs.series_moments):
            if not m2 > 0:
                continue
            rep = gaussianity_check(fs.profile.n, m2, m3, m4)
            z = max(abs(rep.skewness_z), abs(rep.excess_kurtosis_z))
            if z >= gauss_worst:
                gauss_worst, gauss_detail = z, f"worst moment z at flow {fi} {label}"
    out.append(
        CriterionResult(
            "variance_profile",
            worst_frac >= PROFILE_PASS_FRACTION,
            worst_frac,
            PROFILE_PASS_FRACTION,
            worst_detail,
        )
    )
    out.append(
        CriterionResult(
            "gaussianity",
            gauss_worst < GAUSSIANITY_Z,
            gauss_worst,
            GAUSSIANITY_Z,
            gauss_detail,
        )
    )
    return out


# psi recovers the measure of each box of measure at least PSI_FLOOR to
# within max(PSI_RECOVERY_REL relative, PSI_RECOVERY_SE_MULT standard errors),
# and a box's psi exceeds psi of a box holding it by at most
# MONOTONICITY_SE_MULT propagated errors.
PSI_RECOVERY_REL = 0.05
PSI_RECOVERY_SE_MULT = 4.0
PSI_FLOOR = 0.1
MONOTONICITY_SE_MULT = 3.0


def _psi_criteria(table) -> list[CriterionResult]:
    value, se = table.value, table.stderr
    # recovery, on the boxes of measure at least PSI_FLOOR
    m = measure(table.boxes)
    tested = m >= PSI_FLOOR
    err = np.abs(value - m)
    tol = np.maximum(PSI_RECOVERY_REL * m, PSI_RECOVERY_SE_MULT * se)
    recovery_pass = not np.any(tested & (err > tol))
    rel = np.divide(err, m, out=np.zeros_like(m), where=tested)
    worst_rel = float(np.max(rel, initial=0.0))
    worst_detail = f"at {_named(table.boxes[np.argmax(rel)])}" if worst_rel > 0 else "is 0"
    # every comparable pair once, the smaller box first
    inside = np.all(table.boxes[:, None] <= table.boxes[None], axis=2)  # box a lies in box b
    a, b = np.nonzero(np.triu(inside | inside.T, 1))
    small, big = np.where(inside[a, b], a, b), np.where(inside[a, b], b, a)
    slack = MONOTONICITY_SE_MULT * np.hypot(se[small], se[big])
    viol = value[small] - value[big] - slack
    mono_pass = not np.any(viol > 0)
    worst_viol = float(np.max(viol, initial=0.0))
    return [
        CriterionResult(
            "psi_recovery",
            recovery_pass,
            worst_rel,
            PSI_RECOVERY_REL,
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


# Nested splits are additive for any table, so no band tests them; this one
# tests that psi is a measure: each tested grid cell's psi is at least
# -EXTENSION_SE_MULT times its propagated standard error (one-sided).
EXTENSION_SE_MULT = 3.0


def _cell_criterion(table) -> CriterionResult:
    # the cell below each table box off the axes, on the grid of the table's corners
    corners = table.boxes
    off_axes = np.all(corners > 0.0, axis=1)
    lower, upper = grid_lower(corners)[off_axes], corners[off_axes]
    value, se, tested = psi_on_cells(table, lower, upper)
    lower, upper, value, se = (x[tested] for x in (lower, upper, value, se))
    if not len(value):
        return CriterionResult(
            "extension", True, 0.0, 0.0,
            "no cell has every corner box in the table, so none was tested",
        )
    viol = -value - EXTENSION_SE_MULT * se
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


def covariance_deviations(table, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, G_ij - covariance rebuilt from psi) over the pairs i <= j of
    table boxes whose intersection the table holds too."""
    corners = table.boxes
    t, dim = corners.shape
    inter = np.minimum(corners[:, None], corners[None, :]).reshape(t * t, dim)
    k = find_rows(corners, inter).reshape(t, t)
    i, j = np.nonzero(np.triu(k >= 0))
    # psi of each intersection, 0 where the table lacks it; its diagonal is psi
    psi = np.append(table.value, 0.0)[k]
    return i, j, table.gram[i, j] - covariance_from_measures(psi[i, i], psi[j, j], increments(psi)[i, j], h)


# At least this fraction of the Gram entries lies within this many Isserlis
# standard errors of the covariance rebuilt from psi.
COVARIANCE_PASS_FRACTION = 0.99
COVARIANCE_SE_MULT = 3.0


def _covariance_criterion(table, h) -> CriterionResult:
    i, j, dev = covariance_deviations(table, h)
    g = table.gram
    z = isserlis_z(dev, g[i, i], g[j, j], g[i, j], table.n_samples)
    total = len(i)
    ok = int(np.count_nonzero(z <= COVARIANCE_SE_MULT))
    worst = float(np.max(z, initial=0.0))
    if total == 0:
        return CriterionResult(
            "covariance_comparison", False, 0.0, COVARIANCE_PASS_FRACTION,
            "no intersection-closed pairs available",
        )
    frac = ok / total
    return CriterionResult(
        "covariance_comparison",
        frac >= COVARIANCE_PASS_FRACTION,
        frac,
        COVARIANCE_PASS_FRACTION,
        f"fraction of {total} entries within {COVARIANCE_SE_MULT}-sigma bands "
        f"(worst {worst:.1f} sigma)",
    )


def recover_measure(e, table_indices=None) -> tuple[CharacterizationReport, PreMeasureTable]:
    """Measure-recovery verdict: psi recovery, monotonicity and the
    cell-increment extension test, together with the recovered table they were
    computed from."""
    table, _ = read_ensemble(e, e.indices if table_indices is None else table_indices)
    criteria = _psi_criteria(table)
    criteria.append(_cell_criterion(table))
    return CharacterizationReport(tuple(criteria)), table


def characterize(e, flows: list[Flow], h: HurstParam, table_indices=None) -> CharacterizationReport:
    """Full verdict: does the ensemble behave like the exact field with
    parameter h over this index family?

    Runs flow variance profiles and Gaussianity z-tests, the
    ``recover_measure`` criteria, and the final covariance comparison against
    the covariance rebuilt from the recovered measure, all read in one pass
    over the row blocks (``read_ensemble``).
    """
    if e.n_samples < 1000:
        raise ResolutionError(f"characterize needs at least 1000 samples, got {e.n_samples}")
    table, stats = read_ensemble(e, e.indices if table_indices is None else table_indices, flows, h)
    criteria = _flow_criteria(stats) + _psi_criteria(table)
    criteria += [_cell_criterion(table), _covariance_criterion(table, h)]
    return CharacterizationReport(tuple(criteria))
