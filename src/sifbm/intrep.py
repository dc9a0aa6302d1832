"""Discretized moving-average representation of the projected field.

Along a flow with time-change values theta_1 <= ... <= theta_k, the
representation on a truncated, singularity-refined grid of cells is

    path(i) = C(H) * sum_cells  ( |theta_i - u|^{H-1/2} - |u|^{H-1/2} ) dW(u),

with u the cell midpoints and dW ~ N(0, du).  The printed moving-average
kernel only reproduces the target variance up to a constant, so the
normalization C(H) is computed from the same quadrature on a unit-mass grid,
which makes the variance of a single-mass simulation exactly theta^{2H} by
scaling.  The cell sum is exactly N(0, C(H)^2 K diag(widths) K^T), so the
quadrature enters only through ``discretized_covariance``: samples are exact
draws from that law through a factor over the distinct positive masses, not
one normal per cell.  One Brownian motion drives every point of a masses
list; it is never reused across calls, so the representation stays per-flow.

Stream contract: sample i takes its normals from the SFC64 stream keyed
(seed, i // STREAM_BLOCK), so the first n samples of a call are the same for
every larger n (prefix-stable).

H = 1/2 is a separate path: the kernel degenerates there, but splitting the
integration line into negative and positive parts leaves the indicator kernel
on [0, theta], i.e. plain Brownian motion, which ``half_case_simulate`` draws
exactly from cumulative increments at the mass points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import PathEnsemble
from .gaussian import HurstParam

# Rows per random stream.  Part of the stream contract: changing it changes
# every draw, so it is a constant and not a parameter.
STREAM_BLOCK = 256
# Eigenvalues of the discretized covariance below this fraction of the largest
# are round-off of a rank-deficient matrix and are clipped to zero.
_EIG_CLIP = 1e-12


class HalfCaseError(ValueError):
    """The moving-average kernel is degenerate at H = 1/2."""

    def __init__(self):
        super().__init__(
            "kernel vanishes at H = 1/2; use half_case_simulate instead"
        )


@dataclass(frozen=True)
class GridSpec:
    """Relative truncation/refinement parameters; concrete grids scale with
    the largest mass simulated."""

    truncation_factor: float = 50.0   # left truncation at -factor * max_mass
    margin: float = 1.0               # right truncation at (1 + margin) * max_mass
    cells_per_mass: int = 4096        # base step = max_mass / cells_per_mass
    refine_factor: int = 8            # subdivision near singularities
    refine_radius_frac: float = 0.01  # refinement window = frac * max_mass

    def __post_init__(self):
        if self.truncation_factor <= 0 or self.margin <= 0:
            raise ValueError("truncation bounds must be positive")
        if self.cells_per_mass < 8 or self.refine_factor < 1:
            raise ValueError("grid resolution parameters out of range")

    def refine(self, factor: int = 2) -> "GridSpec":
        """Denser cells at the same truncation (quadrature-only refinement)."""
        return GridSpec(
            self.truncation_factor,
            self.margin,
            self.cells_per_mass * factor,
            self.refine_factor,
            self.refine_radius_frac,
        )

    def refine_overall(self, factor: int = 2) -> "GridSpec":
        """Halve the step and widen the truncation window together.

        Step-only refinement converges to a truncation-limited error floor
        (and can cross it non-monotonically, since the quadrature deficit and
        the truncation surplus have opposite signs); refining both is what
        drives the discretized covariance to the closed form.
        """
        return GridSpec(
            self.truncation_factor * factor,
            self.margin * factor,
            self.cells_per_mass * factor,
            self.refine_factor,
            self.refine_radius_frac,
        )


@dataclass(frozen=True)
class KernelGrid:
    """Concrete integration cells.  Singular points (0 and every mass) sit on
    cell edges, so midpoint evaluation stays at least half a cell away from
    every singularity."""

    edges: np.ndarray
    spec: GridSpec
    max_mass: float

    def __post_init__(self):
        self.edges.flags.writeable = False

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def n_cells(self) -> int:
        return self.edges.size - 1


def build_kernel_grid(masses, spec: GridSpec = GridSpec()) -> KernelGrid:
    masses = [float(m) for m in masses]
    max_mass = max(masses)
    if max_mass <= 0:
        raise ValueError("grid needs at least one positive mass")
    u_min = -spec.truncation_factor * max_mass
    u_max = (1.0 + spec.margin) * max_mass
    step = max_mass / spec.cells_per_mass
    n_base = int(round((u_max - u_min) / step))
    base = np.linspace(u_min, u_max, n_base + 1)
    crit = np.array(sorted({0.0} | {m for m in masses if m > 0}))
    edges = np.unique(np.concatenate([base, crit]))
    radius = spec.refine_radius_frac * max_mass
    lo, hi = edges[:-1], edges[1:]
    near = np.zeros(lo.size, dtype=bool)
    for c in crit:
        near |= (lo <= c + radius) & (hi >= c - radius)
    counts = np.where(near, spec.refine_factor, 1)
    # emit, per cell, the sub-edges lo + (hi-lo) * j/count for j = 1..count,
    # then pin each cell's final sub-edge to the original (exact) edge
    offsets = np.concatenate([[0], np.cumsum(counts)])
    j = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts) + 1
    out = np.empty(offsets[-1] + 1)
    out[0] = edges[0]
    out[1:] = np.repeat(lo, counts) + np.repeat((hi - lo) / counts, counts) * j
    out[offsets[1:]] = hi
    return KernelGrid(out, spec, max_mass)


def mvn_kernel(mass: float, u, h: HurstParam):
    """Moving-average kernel |mass - u|^{H-1/2} - |u|^{H-1/2}.

    Evaluate only away from the singularities u = 0 and u = mass; grids built
    here guarantee a half-cell offset.
    """
    if h.is_half:
        raise HalfCaseError()
    if mass < 0:
        raise ValueError("mass must be non-negative")
    a = h.value - 0.5
    u = np.asarray(u, dtype=float)
    return np.abs(mass - u) ** a - np.abs(u) ** a


_NORMALIZATION_CACHE: dict[tuple[float, GridSpec], float] = {}


def _unit_integral(h: HurstParam, spec: GridSpec) -> float:
    g = build_kernel_grid([1.0], spec)
    k = mvn_kernel(1.0, g.midpoints, h)
    return float(np.sum(k * k * g.widths))


def normalization_const(h: HurstParam, grid: KernelGrid | GridSpec) -> float:
    """C(H) = (integral of the squared unit-mass kernel)^{-1/2}, computed by
    the same midpoint quadrature the simulation uses (unit-mass grid of the
    same spec), so single-mass variances come out exact by scaling.

    A doubling refinement estimates the quadrature error; if it exceeds 1e-3
    relative the grid is too coarse near the singularities and an error is
    raised instead of returning a silently biased constant.
    """
    spec = grid.spec if isinstance(grid, KernelGrid) else grid
    key = (h.value, spec)
    if key in _NORMALIZATION_CACHE:
        return _NORMALIZATION_CACHE[key]
    if h.is_half:
        raise HalfCaseError()
    integral = _unit_integral(h, spec)
    refined = _unit_integral(h, spec.refine(2))
    err = abs(integral - refined) / refined
    # The singular-cell quadrature deficit scales like cell^{2H}, so small H
    # needs dense refinement; past 5% the constant would no longer track the
    # simulation quadrature it is meant to cancel against.
    if err > 5e-2:
        raise ValueError(
            f"normalization quadrature not converged: refinement changes the "
            f"integral by {err:.2e} relative (grid too coarse near the "
            f"singularities for H={h.value})"
        )
    value = integral**-0.5
    _NORMALIZATION_CACHE[key] = value
    return value


@dataclass(frozen=True)
class RepConfig:
    """Simulation configuration for the moving-average representation."""

    hurst: HurstParam
    seed: int
    grid: GridSpec = GridSpec()


def _validate_masses(masses) -> np.ndarray:
    masses = np.asarray(masses, dtype=float)
    if masses.ndim != 1 or masses.size == 0:
        raise ValueError("masses must be a non-empty 1-d sequence")
    if np.any(masses < 0):
        raise ValueError("masses must be non-negative")
    if np.any(np.diff(masses) < 0):
        raise ValueError("masses must be nondecreasing (time-change values)")
    return masses


def _block_normals(seed: int, n_rows: int, width: int) -> np.ndarray:
    """Standard normals of shape (n_rows, width) under the stream contract."""
    z = np.empty((n_rows, width))
    for block, lo in enumerate(range(0, n_rows, STREAM_BLOCK)):
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,)))
        )
        rng.standard_normal(out=z[lo : lo + STREAM_BLOCK])
    return z


def simulate_via_integral(masses, cfg: RepConfig, n_samples: int) -> PathEnsemble:
    """Draw paths of the discretized representation along a masses list:
    one normal per distinct positive mass from the streams of cfg.seed,
    through ``discretized_factor``.  Equal masses give bit-equal columns."""
    masses = _validate_masses(masses)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    distinct, inverse = np.unique(masses, return_inverse=True)
    f = discretized_factor(distinct, cfg.hurst, cfg.grid)
    paths = _block_normals(cfg.seed, n_samples, f.shape[1]) @ f.T
    return PathEnsemble(masses, paths[:, inverse], cfg.hurst)


def half_case_simulate(masses, seed: int, n_samples: int) -> PathEnsemble:
    """H = 1/2 path: W([0, theta_i]) from exact cumulative Gaussian
    increments at the mass points (the indicator-kernel limit of the
    representation on the positive half-line)."""
    masses = _validate_masses(masses)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sds = np.sqrt(np.diff(masses, prepend=0.0))
    paths = np.cumsum(_block_normals(seed, n_samples, masses.size) * sds, axis=1)
    return PathEnsemble(masses, paths, HurstParam(0.5))


def _kernel_covariance(masses: np.ndarray, h: HurstParam, spec: GridSpec) -> np.ndarray:
    grid = build_kernel_grid(masses, spec)
    mids, widths = grid.midpoints, grid.widths
    kmat = np.empty((masses.size, grid.n_cells))
    for i, m in enumerate(masses):
        kmat[i] = mvn_kernel(float(m), mids, h)
    c2 = normalization_const(h, spec) ** 2
    return c2 * (kmat * widths) @ kmat.T


def discretized_covariance(masses, h: HurstParam, spec: GridSpec = GridSpec()) -> np.ndarray:
    """The exact covariance implied by the discretization (no sampling):
    C(H)^2 * K diag(widths) K^T.  This is the law ``simulate_via_integral``
    draws from, so quadrature/truncation accuracy can be audited without
    Monte Carlo noise."""
    masses = _validate_masses(masses)
    if float(masses.max()) == 0.0:
        return np.zeros((masses.size, masses.size))
    return _kernel_covariance(masses, h, spec)


def discretized_factor(masses, h: HurstParam, spec: GridSpec = GridSpec()) -> np.ndarray:
    """F of shape (k, d), d the number of distinct positive masses, with
    F F^T = discretized_covariance(masses): an eigendecomposition factor over
    the distinct positive masses with round-off eigenvalues clipped to 0,
    whose rows are mapped onto the masses (equal masses get bit-equal rows,
    zero masses zero rows)."""
    masses = _validate_masses(masses)
    if h.is_half:
        raise HalfCaseError()
    distinct, inverse = np.unique(masses, return_inverse=True)
    positive = distinct > 0
    fd = np.zeros((distinct.size, int(np.count_nonzero(positive))))
    if positive.any():
        lam, vec = np.linalg.eigh(_kernel_covariance(distinct[positive], h, spec))
        fd[positive] = vec * np.sqrt(np.where(lam > _EIG_CLIP * lam[-1], lam, 0.0))
    return fd[inverse]


def fbm_covariance(masses, h: HurstParam) -> np.ndarray:
    """Closed-form one-parameter fBm covariance at the mass points."""
    t = _validate_masses(masses)
    p = h.two_h
    return 0.5 * (
        t[:, None] ** p + t[None, :] ** p - np.abs(t[:, None] - t[None, :]) ** p
    )
