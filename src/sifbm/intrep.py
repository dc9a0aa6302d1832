"""Discretized moving-average representation of the projected field.

Along a flow with time-change values theta_1 <= ... <= theta_k, the
representation on a window of singularity-refined cells is

    path(i) = C(H) * sum_cells  ( |theta_i - u|^{H-1/2} - |u|^{H-1/2} ) dW(u),

with u the cell midpoints and dW ~ N(0, du), plus the same integral over
the line beyond the window, which enters the covariance in closed form
(``_tails``): there the kernel is a convergent binomial series.  So the
window only has to keep the masses inside it, and a wider one at the same
step only trades exact tails for cells.  The printed moving-average kernel
only reproduces the target variance up to a constant, so the normalization
C(H) is computed from the same quadrature on a unit-mass grid, which makes
the variance of a single-mass simulation exactly theta^{2H} by scaling.  The
representation is exactly N(0, C(H)^2 G), G the Gram K diag(widths) K^T plus
the tails, so the quadrature enters only through ``KernelLaw``, and
``draw`` takes exact samples from that law through its ``gaussian.cholesky``
factor over the distinct positive masses, not one normal per cell.  That is
the factor the field's ensembles are drawn through, and it is scale-free, so
a small mass keeps its variance beside a large one.  One Brownian motion
drives every point of a masses list; it is never reused across calls, so
the representation stays per-flow.

A kernel grid depends on the distinct positive masses and the ``GridSpec``
only, not on H.  Every kernel integral, the normalization's included, is one
blocked sum: the grid's edges are generated CELL_BLOCK cells at a time, and
K diag(widths) K^T is added up over those consecutive blocks, each block's
midpoints and widths taken from its edges.  So neither a (masses, cells)
array nor a whole grid is formed, and memory stays a few blocks whatever the
cell count.  One walk of a grid serves every H: ``_kernel_grams`` adds each
block to the Gram of each H asked for, then each H's tails, and each Gram is
bit for bit the one a walk for its H alone gives.  A ``KernelLaw`` keeps the
Grams it has walked for its own life, so ``verify_intrep``, which makes one,
walks each grid it needs once.  CELL_BLOCK is part of the quadrature's
definition, as STREAM_BLOCK is part of the draw's: the block sums fix its
rounding.

Normals come from ``gaussian.block_draw`` under its stream contract: blocks
of STREAM_BLOCK samples keyed (seed, block), so the first n samples of a call
are the same for every larger n (prefix-stable).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .gaussian import HurstParam, NotPSDError, ResolutionError, block_draw, cholesky, covariance_from_measures
from .recovery import CharacterizationReport, CriterionResult
from .stats import isserlis_z

# A discretization error at most this fraction of the largest covariance is
# round-off, which refinement cannot be expected to reduce: single-mass
# variances are exact by scaling.
_ROUND_OFF = 1e-12

# Cells per block of the kernel quadrature's sum; see the module docstring.
CELL_BLOCK = 8192

# Largest H a config may ask of the kernel: |m - u|^a - |u|^a, a = H - 1/2,
# loses about 1e-16/|a| of its value to cancellation, 5e-10 at this H.
KERNEL_H_MAX = 0.5 - 1e-6


class HalfCaseError(ValueError):
    """The moving-average kernel is degenerate at H = 1/2."""


@dataclass(frozen=True)
class GridSpec:
    """Relative window and refinement parameters; concrete grids scale with
    the largest mass simulated.  The quadrature covers the window with cells
    and adds the kernel's tails beyond it in closed form (``_tails``), so the
    window only has to keep every mass inside it: the tail series converges
    like (max_mass / |edge|)^j, which the floors of truncation_factor and
    margin hold to at most 0.8.  Each field's floor is its ``least``
    metadata."""

    # the window is [-truncation_factor, 1 + margin] * max_mass, the base step
    # max_mass / cells_per_mass; each cell within refine_radius_frac * max_mass
    # of a singular point is split into refine_factor
    truncation_factor: float = field(default=2.0, metadata={"least": 1.25})
    margin: float = field(default=1.0, metadata={"least": 0.25})
    cells_per_mass: int = field(default=4096, metadata={"least": 8})
    refine_factor: int = field(default=8, metadata={"least": 1})
    refine_radius_frac: float = field(default=0.01, metadata={"least": 0.0})

    def __post_init__(self):
        for f in fields(self):
            value, least = getattr(self, f.name), f.metadata["least"]
            # negated, so that NaN is rejected too
            if not value >= least:
                raise ValueError(f"{f.name} must be >= {least}, got {value}")

    def refine(self, factor: int = 2) -> "GridSpec":
        """Denser cells on the same window."""
        return replace(self, cells_per_mass=self.cells_per_mass * factor)


def _kernel_grid_blocks(masses, spec: GridSpec):
    """The edges of the grid for a masses list, in consecutive blocks of
    CELL_BLOCK cells: each block's last edge is the next one's first, and only
    the last block may be shorter.  The grid depends on the distinct positive
    masses and ``spec`` only, so zeros, repeats and the sequence type do not
    change it.

    The base is ``np.linspace(u_min, u_max, n_base + 1)``, computed CELL_BLOCK
    base cells at a time with linspace's own operations.  A base edge closer
    to a singular point (0 or a mass) than 4 * refine_factor ulps of the
    grid's extent max(-u_min, u_max) is moved onto it, and the other singular
    points are inserted between base edges.  A mass that close to the
    singular point kept below it is not one itself.  Every cell within the
    refinement radius of a singular point is split into ``refine_factor``
    equal parts.
    Each of these steps reads only the cell it acts on, so no block depends
    on the whole grid."""
    positive = sorted({float(m) for m in masses if m > 0})
    if not positive:
        raise ValueError("grid needs at least one positive mass")
    max_mass = positive[-1]
    u_min = -spec.truncation_factor * max_mass
    u_max = (1.0 + spec.margin) * max_mass
    n_base = int(round((u_max - u_min) / (max_mass / spec.cells_per_mass)))
    step = (u_max - u_min) / n_base
    # base edges are rounded to about an ulp of the extent, so the one nearest
    # a singular point is moved onto it when that close: left beside it, the
    # sliver between them would be split into pieces of a few ulps, which can
    # have zero width or a midpoint on the point.  A singular point that close
    # to the previous one kept is dropped, for the same reason.
    tol = 4 * spec.refine_factor * np.spacing(max(-u_min, u_max))
    crit = [0.0]
    for m in positive:
        if m - crit[-1] > tol:
            crit.append(m)
    crit = np.array(crit)
    nearest = np.clip(np.rint((crit - u_min) / step), 0, n_base).astype(np.intp)
    edge = np.where(nearest == n_base, u_max, nearest * step + u_min)
    snap = np.abs(edge - crit) <= tol
    snap_at, snap_to = nearest[snap], crit[snap]
    radius = spec.refine_radius_frac * max_mass
    pending = np.empty(0)
    for b0 in range(0, n_base, CELL_BLOCK):
        b1 = min(b0 + CELL_BLOCK, n_base)
        base = np.arange(b0, b1 + 1, dtype=float) * step + u_min
        if b1 == n_base:
            base[-1] = u_max
        hit = (snap_at >= b0) & (snap_at <= b1)
        base[snap_at[hit] - b0] = snap_to[hit]
        # the stretch's first edge is the last one pending
        pending = np.concatenate([pending[:-1], _refined(base, crit, radius, spec.refine_factor)])
        while pending.size > CELL_BLOCK:
            yield pending[:CELL_BLOCK + 1]
            pending = pending[CELL_BLOCK:]
    if pending.size > 1:
        yield pending


def _refined(base: np.ndarray, crit: np.ndarray, radius: float, refine_factor: int) -> np.ndarray:
    """A stretch of base edges with the singular points ``crit`` inside it
    inserted, and each cell within ``radius`` of one of them split into
    ``refine_factor`` equal parts."""
    # insert the singular points inside the stretch, skipping those on it
    c = crit[(crit > base[0]) & (crit < base[-1])]
    at = np.searchsorted(base, c)
    new = base[at] != c
    edges = np.insert(base, at[new], c[new]) if new.any() else base
    # a cell [lo, hi] is near c when lo <= c + radius and hi >= c - radius;
    # most stretches of a grid are near no c and stay as they are
    reach_lo, reach_hi = crit - radius, crit + radius
    touch = (reach_lo <= edges[-1]) & (reach_hi >= edges[0])
    if refine_factor == 1 or not touch.any():
        return edges
    # for each c the near cells are one run, and the runs are merged by counting
    first = np.maximum(np.searchsorted(edges, reach_lo[touch]) - 1, 0)
    stop = np.minimum(np.searchsorted(edges, reach_hi[touch], side="right"), edges.size - 1)
    depth = np.zeros(edges.size, dtype=np.intp)
    np.add.at(depth, first, 1)
    np.add.at(depth, stop, -1)
    near = np.flatnonzero(np.cumsum(depth[:-1]))
    # split each near cell at lo + (hi - lo) / refine_factor * j for
    # j = 1..refine_factor-1; every cell keeps its exact edges
    j = np.arange(1, refine_factor)
    lo, hi = edges[near], edges[near + 1]
    sub = lo[:, None] + ((hi - lo) / refine_factor)[:, None] * j
    return np.insert(edges, np.repeat(near + 1, j.size), sub.ravel())


def mvn_kernel(mass, u, h: HurstParam):
    """Moving-average kernel |mass - u|^{H-1/2} - |u|^{H-1/2}, broadcast over
    an array of masses (``masses[:, None]`` gives one row per mass, with
    |u|^{H-1/2} computed once).

    Evaluate only away from the singularities u = 0 and u = mass; grids built
    here guarantee a half-cell offset.
    """
    if h.is_half:
        raise HalfCaseError("kernel vanishes at H = 1/2; draw with the min(s, t) covariance instead")
    if np.any(np.asarray(mass) < 0):
        raise ValueError("mass must be non-negative")
    a = h.value - 0.5
    u = np.asarray(u, dtype=float)
    return np.abs(mass - u) ** a - np.abs(u) ** a


def _kernel_grams(masses: np.ndarray, hs, spec: GridSpec) -> list[np.ndarray]:
    """K diag(widths) K^T on the grid of ``masses`` for each H of ``hs``,
    plus the integral of k k^T beyond the grid (``_tails``), in one pass over
    the grid: each block of CELL_BLOCK cells has its midpoints and widths
    taken once and is added to every H's Gram, so each Gram is the sum over
    the blocks in order, and then its tails."""
    grams = [np.zeros((masses.size, masses.size)) for _ in hs]
    lo = None  # the grid's first edge; its last is the last block's
    for e in _kernel_grid_blocks(masses, spec):
        u, w = 0.5 * (e[:-1] + e[1:]), np.diff(e)
        for h, gram in zip(hs, grams):
            k = mvn_kernel(masses[:, None], u, h)
            gram += (k * w) @ k.T
        lo = e[0] if lo is None else lo
    for h, gram in zip(hs, grams):
        gram += _tails(masses, h, lo, e[-1])
    return grams


def _tails(masses: np.ndarray, h: HurstParam, lo: float, hi: float) -> np.ndarray:
    """The integral of k k^T, k the kernel of ``masses``, over u < lo < 0 and
    u > hi > max(masses), in closed form.

    With a = H - 1/2, there |m - u|^a - |u|^a = |u|^a sum_{j>=1} C(a, j)
    (-m/u)^j, and integrating the product of two such series term by term
    from the edge e outwards gives |e|^{2a+1} A D A^T, with
    A[i, j] = C(a, j) (-m_i/e)^j and D[j, k] = 1 / (j + k - 2a - 1).  The
    terms fall like (max_mass / |e|)^j, and the series is summed until that
    is below 1e-18: 60 terms at GridSpec's default left edge, and at most
    about 190 at its floors."""
    alpha = h.value - 0.5
    out = np.zeros((masses.size, masses.size))
    for edge in (lo, hi):
        x = -masses / edge
        n = int(np.ceil(np.log(1e-18) / np.log(np.max(np.abs(x)))))
        j = np.arange(1, n + 1)
        # C(a, j) = prod_{i<j} (a - i) / (i + 1)
        a = np.cumprod((alpha - (j - 1)) / j) * x[:, None] ** j
        d = 1.0 / (j[:, None] + j - 2 * alpha - 1)
        out += abs(edge) ** (2 * alpha + 1) * (a @ d @ a.T)
    return out


class KernelLaw:
    """The discretized laws N(0, C(H)^2 G) of the representation for every H
    of ``hs``.  A grid is walked once for all H, and its Grams are kept for
    the object's life, so one object serves one verification."""

    def __init__(self, hs):
        self.hs = tuple(hs)
        self._grams = {}

    def _walk(self, masses: tuple, spec: GridSpec) -> list[np.ndarray]:
        key = (masses, spec)
        if key not in self._grams:
            self._grams[key] = _kernel_grams(np.array(masses, dtype=float), self.hs, spec)
        return self._grams[key]

    def covariances(self, masses, spec: GridSpec) -> list[np.ndarray]:
        """C(H)^2 G on ``masses`` for each H, on the grid ``spec`` gives
        them; zeros when no mass is positive.

        C(H) = (integral of the squared unit-mass kernel)^{-1/2}, by the same
        quadrature on the unit-mass grid of ``spec``, so single-mass
        variances come out exact by scaling.  The same integral on ``spec``
        refined by 2 estimates the quadrature error, and past 5e-2 relative
        the grid is too coarse near the singularities: ResolutionError.  The
        bound is loose on purpose: the constant cancels against the same
        quadrature in the Gram, so a refinement error below it does not bias
        single-mass variances, and coarse grids (small H, few cells per mass)
        stay usable."""
        masses = tuple(float(m) for m in masses)
        unit, finer = self._walk((1.0,), spec), self._walk((1.0,), spec.refine(2))
        zero = [np.zeros((len(masses),) * 2)] * len(self.hs)
        grams = self._walk(masses, spec) if any(masses) else zero
        out = []
        for h, u, f, gram in zip(self.hs, unit, finer, grams):
            integral, refined = float(u[0, 0]), float(f[0, 0])
            err = abs(integral - refined) / refined
            # The singular-cell quadrature deficit scales like cell^{2H}, so
            # small H needs dense refinement; past 5% the constant would no
            # longer track the quadrature it is meant to cancel against.
            if err > 5e-2:
                raise ResolutionError(
                    f"normalization quadrature not converged: refinement changes the "
                    f"integral by {err:.2e} relative (grid too coarse near the "
                    f"singularities for H={h.value})"
                )
            out.append((integral**-0.5) ** 2 * gram)
        return out


@dataclass(frozen=True)
class IntRepConfig:
    """What ``verify_intrep`` checks, at which sizes and against which bands."""

    masses: tuple[float, ...]               # one flow's time-change values
    variance_masses: tuple[float, ...]      # single-mass variance checks
    hursts: tuple[float, ...]
    n_samples: int
    grid: GridSpec
    variance_rel_tol: float = field(default=0.03, metadata={"least": 0.0})
    covariance_se_mult: float = field(default=3.0, metadata={"least": 0.0})


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


def draw(masses, cov: np.ndarray, seed: int, n_samples: int) -> np.ndarray:
    """Paths (n_samples, len(masses)) along a masses list, with ``cov`` the
    covariance of its distinct positive masses in increasing order: one
    normal per distinct positive mass from the streams of ``seed``, through
    the ``gaussian.cholesky`` factor of ``cov``.  Equal masses give bit-equal
    columns, zero masses and masses of zero variance zero columns."""
    distinct, inverse = np.unique(validate_masses(masses), return_inverse=True)
    positive = distinct > 0
    f = np.zeros((distinct.size, int(np.count_nonzero(positive))))
    f[positive] = cholesky(cov)[0]
    return block_draw(seed, n_samples, f.T)[:, inverse]


def fbm_covariance(masses, h: HurstParam) -> np.ndarray:
    """Closed-form one-parameter fBm covariance at the mass points."""
    t = validate_masses(masses)
    return covariance_from_measures(t[:, None], t, np.abs(t[:, None] - t), h)


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _worst_sigma(paths: np.ndarray, want: np.ndarray) -> float:
    """Largest |sample second moment - want| in the Isserlis standard errors
    of second moments ``want`` (``stats.isserlis_z``)."""
    n = paths.shape[0]
    d = np.diag(want)
    return float(np.max(isserlis_z((paths.T @ paths) / n - want, d[:, None], d, want, n)))


def verify_intrep(ir: IntRepConfig, seed: int) -> CharacterizationReport:
    """Verdict on the moving-average representation: per H, single-mass
    variances against theta^{2H}, the covariance along ``ir.masses`` against
    the closed form, and a refinement that reduces the discretization error
    (or starts from round-off); then the H = 1/2 Brownian covariance.  Every
    draw has its own seed, derived from ``seed`` and its position in this
    list.

    One ``KernelLaw`` serves every check, so each kernel grid they need is
    walked once, for every H at once.  The refinement's covariances are the
    draw's, over the distinct positive masses, put on ``ir.masses``.  A law
    the grid leaves not positive semidefinite is a ResolutionError."""
    tol, se_mult = ir.variance_rel_tol, ir.covariance_se_mult
    law = KernelLaw(HurstParam(hv) for hv in ir.hursts)
    masses = validate_masses(ir.masses)
    distinct, inverse = np.unique(masses, return_inverse=True)
    positive = distinct > 0

    def on_masses(cov: np.ndarray) -> np.ndarray:
        """A covariance of the distinct positive masses, on ``ir.masses``."""
        full = np.zeros((distinct.size, distinct.size))
        full[np.ix_(positive, positive)] = cov
        return full[np.ix_(inverse, inverse)]

    out = []
    for hi, (hv, h) in enumerate(zip(ir.hursts, law.hs)):
        for ti, theta in enumerate(ir.variance_masses):
            cov = law.covariances([theta], ir.grid)[hi]
            paths = draw([theta], cov, _derived_seed(seed, 1, hi, ti), ir.n_samples)
            var = float(np.mean(paths[:, 0] ** 2))
            want = theta ** (2 * hv)
            rel = abs(var - want) / want
            name = f"variance_H{hv}_theta{theta}"
            detail = f"relative error of the sample variance against {want:.6g}"
            out.append(CriterionResult(name, rel <= tol, rel, tol, detail))
        base_cov, fine_cov = (
            law.covariances(distinct[positive], s)[hi] for s in (ir.grid, ir.grid.refine(2))
        )
        try:
            paths = draw(masses, base_cov, _derived_seed(seed, 2, hi), ir.n_samples)
        except NotPSDError:
            raise ResolutionError(
                f"the moving-average law at H={hv} on masses {list(ir.masses)} is not a covariance "
                f"on integral_rep.grid {asdict(ir.grid)}: its cells do not resolve the smaller masses"
            ) from None
        want = fbm_covariance(masses, h)
        worst = _worst_sigma(paths, want)
        detail = "worst sample covariance entry against fBm, in standard errors"
        out.append(CriterionResult(f"covariance_H{hv}", worst <= se_mult, worst, se_mult, detail))
        base_err, fine_err = (
            float(np.max(np.abs(on_masses(cov) - want))) for cov in (base_cov, fine_cov)
        )
        round_off = base_err <= _ROUND_OFF * float(np.max(np.abs(want)))
        detail = "max covariance error of the doubled grid, against the grid's own"
        if round_off and not fine_err < base_err:
            detail += f", which is round-off (at most {_ROUND_OFF:g} of the largest covariance)"
        passed = fine_err < base_err or round_off
        out.append(CriterionResult(f"refinement_H{hv}", passed, fine_err, base_err, detail))
    # at H = 1/2 the kernel is the indicator of [0, theta]: Brownian motion
    p = distinct[positive]
    paths = draw(masses, np.minimum.outer(p, p), _derived_seed(seed, 3), ir.n_samples)
    worst = _worst_sigma(paths, np.minimum.outer(masses, masses))
    detail = "worst sample covariance entry against min(s, t), in standard errors"
    out.append(CriterionResult("half_case_covariance", worst <= se_mult, worst, se_mult, detail))
    return CharacterizationReport(tuple(out))
