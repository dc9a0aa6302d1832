"""Statistical verification primitives for projected paths.

Everything here treats the field as centered, so "variance" means the raw
second moment throughout; mean-subtraction would only add estimator noise and
would hide mean-corruption defects.  The profile and the Hurst regression
read a flow's second-moment matrix M (M_st = mean of X_s X_t over samples),
which ``flow_statistics`` accumulates for every flow in one pass over the
ensemble's row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import TimeChange, block_paths, flow_weights, predicted_increment_moment, time_change
from .gaussian import HurstParam, columns


class DegenerateDataError(ValueError):
    """Input carries no usable variation (constant paths, constant theta)."""


@dataclass(frozen=True)
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

    def fraction_within(self, k: float = 4.0) -> float:
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
    # E[(X_t - X_s)^2] = M_tt + M_ss - 2 M_ts
    d = np.diag(m)
    i, j = np.triu_indices(k, 1)
    observed = np.maximum(d[i] + d[j] - 2.0 * m[i, j], 0.0)
    predicted = predicted[i, j]
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
    d = np.diag(m)
    v = (d[:-1] + d[1:] - 2.0 * np.diagonal(m, 1))[keep]
    if np.any(v <= 0):
        raise DegenerateDataError("zero variance increment")
    if v.size < 2:
        raise DegenerateDataError("no usable increments (constant time change)")
    slope = np.polyfit(np.log(dtheta[keep]), np.log(v), 1)[0]
    return float(slope / 2.0)


@dataclass(frozen=True)
class FlowStatistics:
    """An ensemble along one flow: its second-moment matrix, the variance
    profile read from it, and the two series the Gaussianity check tests."""

    moments: np.ndarray         # M = paths^T paths / n
    time_change: TimeChange
    profile: VarianceProfile
    end: np.ndarray             # the field at the last grid point
    half_increment: np.ndarray  # the last value minus the middle one


def flow_statistics(blocks, indices, flows, h: HurstParam) -> list[FlowStatistics]:
    """One ``FlowStatistics`` per flow from one pass over ``blocks``, the row
    blocks of an ensemble over ``indices`` (``SampleEnsemble.row_blocks``,
    ``storage.StoredEnsemble.row_blocks``).

    Each flow's columns B_f and weights A_f are looked up once.  Each block
    P_b = X_b[:, B_f] A_f is formed by ``block_paths``, as ``project`` forms
    a whole ensemble's in the same blocks; P_b^T P_b is added into the
    flow's moment matrix, divided by the row count once at the end, and
    every increment moment along the flow is read from it.  Beyond one block
    and the k x k moment matrices, only the end and middle columns are held:
    no (n, n_indices) or (n, k) array is formed."""
    reads = [(columns(indices, boxes), a) for boxes, a in map(flow_weights, flows)]
    sums = [np.zeros((a.shape[1], a.shape[1])) for _, a in reads]
    ends, mids = [[] for _ in flows], [[] for _ in flows]
    n = 0
    for block in blocks:
        n += block.shape[0]
        for (cols, a), m, end, mid in zip(reads, sums, ends, mids):
            p = block_paths(block, cols, a)
            m += p.T @ p
            end.append(p[:, -1].copy())  # copies: the block's paths are freed
            mid.append(p[:, p.shape[1] // 2].copy())
    if n == 0:
        raise ValueError("no samples to project")
    out = []
    for f, m, end, mid in zip(flows, sums, ends, mids):
        m /= n
        tc = time_change(f)
        profile = variance_profile(m, n, tc, predicted_increment_moment(f, h))
        end = np.concatenate(end)
        out.append(FlowStatistics(m, tc, profile, end, end - np.concatenate(mid)))
    return out


@dataclass(frozen=True)
class GaussianityReport:
    skewness_z: float
    excess_kurtosis_z: float
    passed: bool


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
    )
