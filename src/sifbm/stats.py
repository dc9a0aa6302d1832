"""Statistical verification primitives for projected paths.

Everything here treats the field as centered, so "variance" means the raw
second moment throughout; mean-subtraction would only add estimator noise and
would hide mean-corruption defects.  The profile and the Hurst regression
read a flow's second-moment matrix M (M_st = mean of X_s X_t over samples),
which ``recovery.read_ensemble`` reads as A_f^T G_B A_f from the Gram G_B
of the flow's boxes.  ``ensemble_sums`` is the one pass over an ensemble's
row blocks: it adds up the Gram of each box set, the table's and each
flow's, and the power sums the Gaussianity check reads, so no length-n
series is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import TimeChange
from .gaussian import increments


# Verdict bands: a profile pair within PROFILE_SE_MULT standard errors of
# the law is within band, and a moment z-test passes below GAUSSIANITY_Z.
PROFILE_SE_MULT = 4.0
GAUSSIANITY_Z = 4.0


class DegenerateDataError(ValueError):
    """Input carries no usable variation (constant paths, constant theta)."""


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Increment second moments against their predicted law, one per grid
    pair (s, t) of ``time_change`` with s before t, in row-major pair order:
    ``predicted`` and ``observed`` are read-only vectors over those pairs,
    ``observed`` read from ``n`` samples.  A pair's chi-square plug-in
    standard error is observed*sqrt(2/n)."""

    time_change: TimeChange
    n: int
    predicted: np.ndarray
    observed: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """The (pairs, 2) grid indices (i, j), i < j, of each pair in order."""
        return np.column_stack(np.triu_indices(len(self.time_change.grid), 1))

    def fraction_within(self, k: float = PROFILE_SE_MULT) -> float:
        """Fraction of pairs with |observed - predicted| <= k * stderr."""
        stderr = self.observed * np.sqrt(2.0 / self.n)
        ok = np.count_nonzero(np.abs(self.observed - self.predicted) <= k * stderr)
        return float(ok / self.observed.size) if self.observed.size else 1.0


def variance_profile(m: np.ndarray, n: int, tc: TimeChange, predicted: np.ndarray) -> VarianceProfile:
    """All grid pairs with predicted vs observed increment second moments,
    from the second-moment matrix ``m`` of ``n`` samples along the grid and
    the full pairwise matrix ``predicted`` of the law under test
    (``flows.predicted_increment_moment`` for the exact field).
    """
    k = m.shape[0]
    if k < 2:
        raise ValueError("need a grid of length >= 2")
    i, j = np.triu_indices(k, 1)
    observed, predicted = increments(m)[i, j], predicted[i, j]
    observed.flags.writeable = predicted.flags.writeable = False
    return VarianceProfile(tc, n, predicted, observed)


def hurst_estimate(m: np.ndarray, n: int, tc: TimeChange) -> float:
    """Slope/2 of log increment second moment against log theta increment,
    over consecutive grid pairs, from the second-moment matrix ``m`` of
    ``n`` samples along the grid.

    Regresses on the time change, not the raw grid, so the estimate is
    invariant under reparameterizing the flow.
    """
    if n < 1000:
        raise ValueError("need at least 1000 samples for a stable estimate")
    theta = np.asarray(tc.values)
    if len(set(theta.tolist())) < 8:
        raise DegenerateDataError("need at least 8 distinct time-change values")
    dtheta = np.diff(theta)
    keep = dtheta > 0
    v = np.diagonal(increments(m), 1)[keep]
    if np.any(v <= 0):
        raise DegenerateDataError("zero variance increment")
    if v.size < 2:
        raise DegenerateDataError("no usable increments (constant time change)")
    slope = np.polyfit(np.log(dtheta[keep]), np.log(v), 1)[0]
    return float(slope / 2.0)


@dataclass(frozen=True, eq=False)
class FlowStatistics:
    """An ensemble along one flow: its second-moment matrix, the variance
    profile read from it, and the central moments the Gaussianity check
    reads of two series, the field at the last grid point and the last value
    minus the middle one."""

    moments: np.ndarray         # M = A_f^T (X_B^T X_B / n) A_f
    profile: VarianceProfile
    series_moments: np.ndarray  # (m2, m3, m4) of the end value, then of the half increment


# A series is scaled by 2^-scale with scale at least _MIN_SCALE, so that
# 2^-scale is a float; _FLOOR is the deviation of that frexp exponent.
_MIN_SCALE = -1022
_FLOOR = np.ldexp(0.5, _MIN_SCALE)


def ensemble_sums(blocks, sets) -> tuple[int, list, np.ndarray]:
    """(n, grams, central) from one pass over ``blocks``, an ensemble's row
    blocks: for each (columns, weights) pair of ``sets`` it adds the Gram
    X^T X of the columns and the power sums S1..S4 of the series
    X @ weights, whose central moments m2, m3 and m4 ``central`` holds, one
    column per series in order; weights with no columns, as the recovered
    table's, add the Gram alone.  Each series is shifted by its first value
    and scaled by the power of 2 that keeps its largest deviation so far in
    [1/2, 1), or by 2^1022, rescaling its sums when a block raises it: a
    constant series has m2 exactly 0, no power overflows or all underflow,
    and a series rescaled by a power of 2 keeps its bits.  Cancellation
    costs about 4 log10(r) digits when the first value lies r standard
    deviations from the mean."""
    reads = [(c, np.ascontiguousarray(w.T)) for c, w in sets]
    grams = [np.zeros((len(c), len(c))) for c, _ in reads]
    k = sum(len(wt) for _, wt in reads)
    power, shift, scale = np.zeros((4, k)), None, np.full(k, _MIN_SCALE)
    factor = np.ldexp(1.0, -scale)[:, None]
    n = 0
    # a sum that overflows is inf, and an inf sample makes NaNs: read_ensemble
    # refuses a box whose second moment is either
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            n += len(block)
            rows = []
            for (c, wt), g in zip(reads, grams):
                x = block[:, c]
                g += x.T @ x
                rows.append(wt @ x.T)  # one row per series
            if not k:
                continue
            d = np.concatenate(rows)
            shift = d[:, :1].copy() if shift is None else shift
            d -= shift
            top = np.frexp(np.maximum(np.abs(d).max(axis=1), _FLOOR))[1]
            grow = np.maximum(top - scale, 0)
            if grow.any():
                power = np.ldexp(power, -grow * np.arange(1, 5)[:, None])
                scale += grow
                factor = np.ldexp(1.0, -scale)[:, None]
            d *= factor
            d2 = d * d
            power += [d.sum(axis=1), d2.sum(axis=1), (d2 * d).sum(axis=1), (d2 * d2).sum(axis=1)]
    if n == 0:
        raise ValueError("no samples in the ensemble")
    mu, a2, a3, a4 = power / n
    return n, grams, np.array([
        a2 - mu * mu,
        a3 - mu * (3.0 * a2 - 2.0 * mu * mu),
        a4 - mu * (4.0 * a3 - mu * (6.0 * a2 - 3.0 * mu * mu)),
    ])


def isserlis_z(dev, g_ii, g_jj, g_ij, n: int) -> np.ndarray:
    """|dev| in Isserlis (1918) standard errors of the sample second moment
    of n centered Gaussian samples with second moments g, which tiny g do not
    underflow; z is 0 where dev is 0, and inf where only the band is 0."""
    se = np.hypot(np.sqrt(g_ii) * np.sqrt(g_jj), g_ij) / np.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dev == 0, 0.0, np.abs(dev) / se)


@dataclass(frozen=True)
class GaussianityReport:
    skewness_z: float
    excess_kurtosis_z: float
    passed: bool


def gaussianity_check(n: int, m2: float, m3: float, m4: float, z_limit: float = GAUSSIANITY_Z) -> GaussianityReport:
    """Moment z-tests on the central moments m2, m3 and m4 of ``n`` samples
    (of a series scaled by any factor, as ``ensemble_sums`` gives them):
    skewness against sqrt(6/n), excess kurtosis against sqrt(24/n);
    closed-form bands, no critical-value tables."""
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    if not m2 > 0:
        raise DegenerateDataError("zero variance sample")
    # biased sample skewness and excess kurtosis (central moments, no
    # small-sample correction)
    skew_z = m3 / m2**1.5 / np.sqrt(6.0 / n)
    kurt_z = (m4 / m2**2 - 3.0) / np.sqrt(24.0 / n)
    return GaussianityReport(
        skewness_z=float(skew_z),
        excess_kurtosis_z=float(kurt_z),
        passed=bool(abs(skew_z) < z_limit and abs(kurt_z) < z_limit),
    )
