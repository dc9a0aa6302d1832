"""Statistical verification primitives for projected paths.

Everything here treats the field as centered, so "variance" means the raw
second moment throughout; mean-subtraction would only add estimator noise and
would hide mean-corruption defects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import TimeChange
from .gaussian import HurstParam


class DegenerateDataError(ValueError):
    """Input carries no usable variation (constant paths, constant theta)."""


PROFILE_DTYPE = np.dtype(
    [(name, np.float64) for name in
     ("s", "t", "theta_s", "theta_t", "predicted", "observed", "stderr")]
)


@dataclass(frozen=True)
class VarianceProfile:
    """Increment second moments against the |theta_t - theta_s|^{2H} law.

    ``rows`` is a read-only ``PROFILE_DTYPE`` array, one row per grid pair
    (s, t) with s before t, in row-major pair order.  ``stderr`` is the
    chi-square plug-in standard error observed*sqrt(2/n).
    """

    rows: np.ndarray
    n_samples: int
    hurst: HurstParam

    def fraction_within(self, k: float = 4.0) -> float:
        """Fraction of pairs with |observed - predicted| <= k * stderr."""
        r = self.rows
        ok = np.count_nonzero(np.abs(r["observed"] - r["predicted"]) <= k * r["stderr"])
        return float(ok / len(r)) if len(r) else 1.0


def variance_profile(
    paths: np.ndarray,
    tc: TimeChange,
    h: HurstParam,
    predicted: np.ndarray | None = None,
) -> VarianceProfile:
    """All grid pairs with predicted vs observed increment second moments.

    The default prediction is the time-changed power law
    |theta_t - theta_s|^{2H}; pass ``predicted`` (a full pairwise matrix) for
    flows whose values are unions, where the additive-expansion moment is the
    correct law.
    """
    paths = np.asarray(paths)
    n, k = paths.shape
    if k < 2:
        raise ValueError("need a grid of length >= 2")
    theta = tc.values
    # second-moment matrix gives every pairwise increment moment at once:
    # E[(X_t - X_s)^2] = M_tt + M_ss - 2 M_ts
    m = (paths.T @ paths) / n
    d = np.diag(m)
    i, j = np.triu_indices(k, 1)
    rows = np.empty(len(i), PROFILE_DTYPE)
    rows["s"], rows["t"] = tc.grid[i], tc.grid[j]
    rows["theta_s"], rows["theta_t"] = theta[i], theta[j]
    if predicted is not None:
        rows["predicted"] = predicted[i, j]
    else:
        rows["predicted"] = np.abs(theta[j] - theta[i]) ** h.two_h
    rows["observed"] = np.maximum(d[i] + d[j] - 2.0 * m[i, j], 0.0)
    rows["stderr"] = rows["observed"] * np.sqrt(2.0 / n)
    rows.flags.writeable = False
    return VarianceProfile(rows, n, h)


def hurst_estimate(paths: np.ndarray, tc: TimeChange) -> float:
    """Slope/2 of log increment second moment against log theta increment,
    over consecutive grid pairs.

    Regresses on the time change, not the raw grid, so the estimate is
    invariant under reparameterizing the flow.
    """
    paths = np.asarray(paths)
    n, k = paths.shape
    if n < 1000:
        raise ValueError("need at least 1000 samples for a stable estimate")
    theta = np.asarray(tc.values)
    if len(np.unique(theta)) < 8:
        raise DegenerateDataError("need at least 8 distinct time-change values")
    xs, ys = [], []
    for i in range(k - 1):
        dtheta = theta[i + 1] - theta[i]
        if dtheta <= 0:
            continue
        inc = paths[:, i + 1] - paths[:, i]
        v = float(np.mean(inc**2))
        if v <= 0:
            raise DegenerateDataError("zero variance increment")
        xs.append(np.log(dtheta))
        ys.append(np.log(v))
    if len(xs) < 2:
        raise DegenerateDataError("no usable increments (constant time change)")
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope / 2.0)


@dataclass(frozen=True)
class GaussianityReport:
    skewness_z: float
    excess_kurtosis_z: float
    passed: bool
    n: int


def gaussianity_check(samples: np.ndarray, z_limit: float = 4.0) -> GaussianityReport:
    """Moment z-tests: skewness against sqrt(6/n), excess kurtosis against
    sqrt(24/n); closed-form thresholds, no critical-value tables."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    if np.std(x) == 0:
        raise DegenerateDataError("zero variance sample")
    d = x - x.mean()
    m2, m3, m4 = (np.mean(d**k) for k in (2, 3, 4))
    # biased sample skewness and excess kurtosis (central moments, no
    # small-sample correction)
    skew_z = m3 / m2**1.5 / np.sqrt(6.0 / n)
    kurt_z = (m4 / m2**2 - 3.0) / np.sqrt(24.0 / n)
    return GaussianityReport(
        skewness_z=float(skew_z),
        excess_kurtosis_z=float(kurt_z),
        passed=bool(abs(skew_z) < z_limit and abs(kurt_z) < z_limit),
        n=n,
    )
