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

A kernel grid depends on the distinct positive masses and the ``GridSpec``
only, not on H, so ``build_kernel_grid`` builds each one once per (distinct
positive masses, spec) and process: the per-H normalization, the variance
checks and the covariance audits reuse it.  The cache holds the read-only
edges of at most 16 grids, the most recently used ones.
``normalization_const`` is computed once per (H, spec) and process, in a
``functools.cache`` that ``cache_clear`` empties.

Every kernel integral, the normalization's included, is one blocked sum:
K diag(widths) K^T is added up over consecutive blocks of CELL_BLOCK cells,
each block's midpoints and widths taken from a slice of the edges, so no
(masses, cells) array is formed and memory beyond the grid stays one block
whatever the cell count.  CELL_BLOCK is part of the quadrature's definition,
as STREAM_BLOCK is part of the draw's: the block sums fix its rounding.

Normals come from ``gaussian.block_draw`` under its stream contract: blocks
of STREAM_BLOCK samples keyed (seed, block), so the first n samples of a call
are the same for every larger n (prefix-stable).

H = 1/2 is a separate path: the kernel degenerates there, but splitting the
integration line into negative and positive parts leaves the indicator kernel
on [0, theta], i.e. plain Brownian motion, which ``half_case_simulate`` draws
exactly from cumulative increments at the mass points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import HurstParam, ResolutionError, block_draw, covariance_from_measures
from .recovery import CharacterizationReport, CriterionResult

# Eigenvalues of the discretized covariance below this fraction of the largest
# are round-off of a rank-deficient matrix and are clipped to zero.
_EIG_CLIP = 1e-12

# Cells per block of the kernel quadrature's sum; see the module docstring.
CELL_BLOCK = 8192


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
        if self.refine_radius_frac < 0:
            raise ValueError(f"refine_radius_frac must be >= 0, got {self.refine_radius_frac}")

    def refine(self, factor: int = 2) -> "GridSpec":
        """Denser cells at the same truncation (quadrature-only refinement)."""
        return replace(self, cells_per_mass=self.cells_per_mass * factor)

    def refine_overall(self, factor: int = 2) -> "GridSpec":
        """Halve the step and widen the truncation window together.

        Step-only refinement converges to a truncation-limited error floor
        (and can cross it non-monotonically, since the quadrature deficit and
        the truncation surplus have opposite signs); refining both is what
        drives the discretized covariance to the closed form.
        """
        return replace(
            self,
            truncation_factor=self.truncation_factor * factor,
            margin=self.margin * factor,
            cells_per_mass=self.cells_per_mass * factor,
        )


@dataclass(frozen=True)
class KernelGrid:
    """Concrete integration cells, given by their read-only edges.  Singular
    points (0 and every mass) sit on cell edges, so midpoint evaluation stays
    at least half a cell away from every singularity."""

    edges: np.ndarray

    def __post_init__(self):
        self.edges.flags.writeable = False

    @property
    def n_cells(self) -> int:
        """The cell count, which ``benchmark/tracing.py`` reads."""
        return self.edges.size - 1


def build_kernel_grid(masses, spec: GridSpec = GridSpec()) -> KernelGrid:
    """The grid for a masses list, built once per (distinct positive masses,
    spec) and process, since those are all it depends on: zeros, repeats and
    the sequence type do not make a second grid."""
    positive = tuple(sorted({float(m) for m in masses if m > 0}))
    if not positive:
        raise ValueError("grid needs at least one positive mass")
    return _kernel_grid(positive, spec)


@functools.lru_cache(maxsize=16)
def _kernel_grid(positive: tuple[float, ...], spec: GridSpec) -> KernelGrid:
    max_mass = positive[-1]
    u_min = -spec.truncation_factor * max_mass
    u_max = (1.0 + spec.margin) * max_mass
    step = max_mass / spec.cells_per_mass
    n_base = int(round((u_max - u_min) / step))
    base = np.linspace(u_min, u_max, n_base + 1)
    crit = np.array((0.0, *positive))
    # insert the singular points into the sorted base, skipping those on it
    at = np.searchsorted(base, crit)
    new = base[at] != crit
    edges = np.insert(base, at[new], crit[new])
    # a cell [lo, hi] is near c when lo <= c + radius and hi >= c - radius;
    # for each c those cells are one run, and the runs are merged by counting
    radius = spec.refine_radius_frac * max_mass
    first = np.maximum(np.searchsorted(edges, crit - radius) - 1, 0)
    stop = np.minimum(np.searchsorted(edges, crit + radius, side="right"), edges.size - 1)
    depth = np.zeros(edges.size, dtype=np.intp)
    np.add.at(depth, first, 1)
    np.add.at(depth, stop, -1)
    near = np.flatnonzero(np.cumsum(depth[:-1]))
    # split each near cell at lo + (hi - lo) / refine_factor * j for
    # j = 1..refine_factor-1; every cell keeps its exact edges
    j = np.arange(1, spec.refine_factor)
    lo, hi = edges[near], edges[near + 1]
    sub = lo[:, None] + ((hi - lo) / spec.refine_factor)[:, None] * j
    out = np.insert(edges, np.repeat(near + 1, j.size), sub.ravel())
    return KernelGrid(out)


def mvn_kernel(mass, u, h: HurstParam):
    """Moving-average kernel |mass - u|^{H-1/2} - |u|^{H-1/2}, broadcast over
    an array of masses (``masses[:, None]`` gives one row per mass, with
    |u|^{H-1/2} computed once).

    Evaluate only away from the singularities u = 0 and u = mass; grids built
    here guarantee a half-cell offset.
    """
    if h.is_half:
        raise HalfCaseError()
    if np.any(np.asarray(mass) < 0):
        raise ValueError("mass must be non-negative")
    a = h.value - 0.5
    u = np.asarray(u, dtype=float)
    return np.abs(mass - u) ** a - np.abs(u) ** a


def _kernel_gram(masses: np.ndarray, h: HurstParam, spec: GridSpec) -> np.ndarray:
    """K diag(widths) K^T on the grid of ``masses``, summed over blocks of
    CELL_BLOCK cells in order."""
    edges = build_kernel_grid(masses, spec).edges
    gram = np.zeros((masses.size, masses.size))
    for start in range(0, edges.size - 1, CELL_BLOCK):
        e = edges[start:start + CELL_BLOCK + 1]
        k = mvn_kernel(masses[:, None], 0.5 * (e[:-1] + e[1:]), h)
        gram += (k * np.diff(e)) @ k.T
    return gram


def _unit_integral(h: HurstParam, spec: GridSpec) -> float:
    return float(_kernel_gram(np.ones(1), h, spec)[0, 0])


@functools.cache
def normalization_const(h: HurstParam, spec: GridSpec) -> float:
    """C(H) = (integral of the squared unit-mass kernel)^{-1/2}, computed by
    the same midpoint quadrature the simulation uses (unit-mass grid of the
    same spec), so single-mass variances come out exact by scaling.

    A doubling refinement estimates the quadrature error.  Past 5e-2 relative
    the grid is too coarse near the singularities and an error is raised
    instead of returning the constant.  The bound is loose on purpose: the
    constant cancels against the same quadrature in the simulation, so a
    refinement error below it does not bias single-mass variances, and coarse
    grids (small H, few cells per mass) stay usable.  Each (h, spec) is
    computed once per process; a raised error is not cached.
    """
    integral = _unit_integral(h, spec)
    refined = _unit_integral(h, spec.refine(2))
    err = abs(integral - refined) / refined
    # The singular-cell quadrature deficit scales like cell^{2H}, so small H
    # needs dense refinement; past 5% the constant would no longer track the
    # simulation quadrature it is meant to cancel against.
    if err > 5e-2:
        raise ResolutionError(
            f"normalization quadrature not converged: refinement changes the "
            f"integral by {err:.2e} relative (grid too coarse near the "
            f"singularities for H={h.value})"
        )
    return integral**-0.5


@dataclass(frozen=True)
class IntRepConfig:
    """What ``verify_intrep`` checks, at which sizes and against which bands."""

    masses: tuple[float, ...]               # one flow's time-change values
    variance_masses: tuple[float, ...]      # single-mass variance checks
    hursts: tuple[float, ...]
    n_samples: int
    grid: GridSpec
    variance_rel_tol: float = 0.03
    covariance_se_mult: float = 3.0


def validate_masses(masses) -> np.ndarray:
    """The masses as a float array; ValueError unless one flow's time-change
    values: non-empty, non-negative and nondecreasing."""
    masses = np.asarray(masses, dtype=float)
    if masses.ndim != 1 or masses.size == 0:
        raise ValueError("masses must be a non-empty 1-d sequence")
    if np.any(masses < 0):
        raise ValueError("masses must be non-negative")
    if np.any(np.diff(masses) < 0):
        raise ValueError("masses must be nondecreasing (time-change values)")
    return masses


def simulate_via_integral(
    masses, seed: int, n_samples: int, h: HurstParam, spec: GridSpec = GridSpec()
) -> np.ndarray:
    """Draw paths of the discretized representation along a masses list,
    (n_samples, len(masses)): one normal per distinct positive mass from the
    streams of ``seed``, through ``discretized_factor`` on ``spec``.  Equal
    masses give bit-equal columns."""
    masses = validate_masses(masses)
    distinct, inverse = np.unique(masses, return_inverse=True)
    f = discretized_factor(distinct, h, spec)
    paths = block_draw(seed, n_samples, f.T)
    return paths[:, inverse]


def half_case_simulate(masses, seed: int, n_samples: int) -> np.ndarray:
    """H = 1/2 path: W([0, theta_i]) from exact cumulative Gaussian
    increments at the mass points (the indicator-kernel limit of the
    representation on the positive half-line)."""
    masses = validate_masses(masses)
    sds = np.sqrt(np.diff(masses, prepend=0.0))
    return np.cumsum(block_draw(seed, n_samples, np.diag(sds)), axis=1)


def _kernel_covariance(masses: np.ndarray, h: HurstParam, spec: GridSpec) -> np.ndarray:
    return normalization_const(h, spec) ** 2 * _kernel_gram(masses, h, spec)


def discretized_covariance(masses, h: HurstParam, spec: GridSpec = GridSpec()) -> np.ndarray:
    """The exact covariance implied by the discretization (no sampling):
    C(H)^2 * K diag(widths) K^T.  This is the law ``simulate_via_integral``
    draws from, so quadrature/truncation accuracy can be audited without
    Monte Carlo noise."""
    masses = validate_masses(masses)
    if float(masses.max()) == 0.0:
        return np.zeros((masses.size, masses.size))
    return _kernel_covariance(masses, h, spec)


def discretized_factor(masses, h: HurstParam, spec: GridSpec = GridSpec()) -> np.ndarray:
    """F of shape (k, d), d the number of distinct positive masses, with
    F F^T = discretized_covariance(masses): an eigendecomposition factor over
    the distinct positive masses with round-off eigenvalues clipped to 0,
    whose rows are mapped onto the masses (equal masses get bit-equal rows,
    zero masses zero rows)."""
    masses = validate_masses(masses)
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
    t = validate_masses(masses)
    return covariance_from_measures(t[:, None], t, np.abs(t[:, None] - t), h)


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _worst_sigma(paths: np.ndarray, want: np.ndarray) -> float:
    """Largest |sample second moment - want| in plug-in standard errors
    sqrt((want_ii want_jj + want_ij^2) / n); a zero band divides by 1."""
    n = paths.shape[0]
    emp = (paths.T @ paths) / n
    d = np.diag(want)
    se = np.sqrt((np.outer(d, d) + want**2) / n)
    return float(np.max(np.abs(emp - want) / np.where(se > 0, se, 1.0)))


def verify_intrep(ir: IntRepConfig, seed: int) -> CharacterizationReport:
    """Verdict on the moving-average representation: per H, single-mass
    variances against theta^{2H}, the covariance along ``ir.masses`` against
    the closed form, and a refinement that reduces the discretization error;
    then the H = 1/2 Brownian covariance.  Every draw has its own seed,
    derived from ``seed`` and its position in this list."""
    tol, se_mult = ir.variance_rel_tol, ir.covariance_se_mult
    out = []
    for hi, hv in enumerate(ir.hursts):
        h = HurstParam(hv)
        for ti, theta in enumerate(ir.variance_masses):
            paths = simulate_via_integral([theta], _derived_seed(seed, 1, hi, ti), ir.n_samples, h, ir.grid)
            var = float(np.mean(paths[:, 0] ** 2))
            want = theta ** (2 * hv)
            rel = abs(var - want) / want
            name = f"variance_H{hv}_theta{theta}"
            detail = f"relative error of the sample variance against {want:.6g}"
            out.append(CriterionResult(name, rel <= tol, rel, tol, detail))
        paths = simulate_via_integral(ir.masses, _derived_seed(seed, 2, hi), ir.n_samples, h, ir.grid)
        want = fbm_covariance(ir.masses, h)
        worst = _worst_sigma(paths, want)
        detail = "worst sample covariance entry against fBm, in standard errors"
        out.append(CriterionResult(f"covariance_H{hv}", worst <= se_mult, worst, se_mult, detail))
        base_err, fine_err = (
            float(np.max(np.abs(discretized_covariance(ir.masses, h, spec) - want)))
            for spec in (ir.grid, ir.grid.refine_overall(2))
        )
        detail = "max covariance error of the doubled grid, against the grid's own"
        passed = fine_err < base_err
        out.append(CriterionResult(f"refinement_H{hv}", passed, fine_err, base_err, detail))
    paths = half_case_simulate(ir.masses, seed=_derived_seed(seed, 3), n_samples=ir.n_samples)
    m = np.asarray(ir.masses)
    worst = _worst_sigma(paths, np.minimum(m[:, None], m[None, :]))
    detail = "worst sample covariance entry against min(s, t), in standard errors"
    out.append(CriterionResult("half_case_covariance", worst <= se_mult, worst, se_mult, detail))
    return CharacterizationReport(tuple(out))
