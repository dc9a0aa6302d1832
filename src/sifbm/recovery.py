"""Recovering the underlying measure from the sampled field.

The pipeline mirrors, at desk scale, the constructive argument behind the
flow characterization of the field:

  1. psi(U) = (E[X_U^2])^{1/(2H)} recovers a set function on boxes from
     ensemble variances (or analytically, from Lebesgue measure).
  2. psi extends to left-neighborhoods C = U \\ (U_1 u ... u U_n) by
     inclusion-exclusion.  On a nested split V = (V \\ U) u U that extension
     is additive for any table, measure or not, so nothing tests it there.
  3. A finite cover family yields an outer measure: the minimum of
     sum psi(C_i) over sub-families covering the target (every sub-family
     enumerated as arrays, family capped at 16 elements).
  4. The outer measure extends psi (outer(U) = psi(U) on boxes).  That box
     indices are measurable (additive inside/outside splits) and that the
     analytic variance of set differences is outer-continuous along
     shrinking sequences hold for the analytic table alone, so they are
     checked by the test suite, not here.
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

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .flows import Flow
from .gaussian import HurstParam, ResolutionError, columns, covariance_from_measures
from .rects import CellArrangement, LeftNeighborhood, Rect, corner_array, rect_measure
from .stats import flow_statistics, gaussianity_check

MAX_COVER_ELEMENTS = 16
_AT_LEAST_0, _FRACTION = {"least": 0.0}, {"least": 0.0, "most": 1.0}


class MissingPsiError(KeyError):
    """A required pre-measure entry is absent from the table."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"missing pre-measure entries: {self.missing}")


class CoverError(ValueError):
    """No sub-family of the covers contains the target."""


@dataclass(frozen=True)
class PreMeasureTable:
    """Recovered pre-measure over a box list: ``value[i]`` is psi of
    ``boxes[i]`` and ``stderr[i]`` its delta-method standard error; an
    empirical table keeps ``gram``, the second moments G = X^T X / n of its
    boxes' columns over ``n_samples`` samples.  ``boxes=None`` is the
    analytic table: Lebesgue measure, with zero error, on every box."""

    boxes: tuple[Rect, ...] | None = None
    value: np.ndarray | None = None
    stderr: np.ndarray | None = None
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
        flat = [u for u, z in zip(boxes, s == 0.0) if z and rect_measure(u) > 0]
        if flat:
            warnings.warn(f"zero empirical variance for non-degenerate indices {flat}", stacklevel=2)
        inv = 1.0 / e.hurst.two_h
        # Python's float pow: numpy's array power differs from it in the last
        # bit for about one value in twenty
        value = np.array([x**inv for x in s.tolist()])
        slope = np.array([x ** (inv - 1.0) for x in s.tolist()])
        se_s = np.sqrt(np.maximum(s4 - n * s**2, 0.0) / ((n - 1) * n))
        return cls(boxes, value, inv * slope * se_s, gram, n)

    @cached_property
    def _position(self) -> dict[Rect, int]:
        return {u: i for i, u in enumerate(self.boxes)}

    def lookup(self, rects) -> tuple[np.ndarray, np.ndarray]:
        """(psi, standard error) of each box: 0 with 0 error on the empty
        set.  Raises MissingPsiError naming every other box the table lacks,
        sorted by corner."""
        rects = list(rects)
        if self.boxes is None:
            return np.array([rect_measure(r) for r in rects]), np.zeros(len(rects))
        pos = self._position
        missing = {r for r in rects if not r.is_empty and r not in pos}
        if missing:
            raise MissingPsiError(sorted(missing, key=lambda r: r.corner))
        # the empty set reads the 0 appended after the last box
        at = [-1 if r.is_empty else pos[r] for r in rects]
        return np.append(self.value, 0.0)[at], np.append(self.stderr, 0.0)[at]


def psi_on_C_with_se(table: PreMeasureTable, c: LeftNeighborhood) -> tuple[float, float]:
    """Inclusion-exclusion extension of the pre-measure to a left-neighborhood,
    with the standard errors of its terms added in quadrature."""
    signs, boxes = zip(*c.signed_boxes())
    value, stderr = table.lookup(boxes)
    # summed in term order over Python floats, whose bits the reports carry
    total, var = 0.0, 0.0
    for sign, v, se in zip(signs, value.tolist(), stderr.tolist()):
        total += sign * v
        var += se**2
    return total, float(np.sqrt(var))


@dataclass(frozen=True)
class CoverFamily:
    """Candidate left-neighborhood pieces for finite-cover infima."""

    elements: tuple[LeftNeighborhood, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("cover family must be non-empty")
        if len(self.elements) > MAX_COVER_ELEMENTS:
            raise ValueError(
                f"cover family capped at {MAX_COVER_ELEMENTS} elements, "
                f"got {len(self.elements)}"
            )


def tiling_cover(corner, divisions) -> CoverFamily:
    """Grid tiling of [0, corner] into half-open cells, each expressed as a
    left-neighborhood (the canonical way to build covers on box families)."""
    corner = tuple(float(c) for c in corner)
    divisions = tuple(int(d) for d in divisions)
    edges = [np.linspace(0.0, c, d + 1) for c, d in zip(corner, divisions)]
    tiles = []
    for cell in itertools.product(*(range(d) for d in divisions)):
        hi = Rect(tuple(edges[i][k + 1] for i, k in enumerate(cell)))
        subs = []
        for i, k in enumerate(cell):
            # degenerate subtracted boxes (a zero coordinate) only remove a
            # null set and have pre-measure 0 both ways; skip them
            if edges[i][k] > 0.0:
                lo_corner = list(hi.corner)
                lo_corner[i] = edges[i][k]
                subs.append(Rect(tuple(lo_corner)))
        tiles.append(LeftNeighborhood(hi, tuple(subs)))
    return CoverFamily(tuple(tiles))


@dataclass(frozen=True)
class OuterMeasureResult:
    value: float
    chosen: tuple[int, ...]
    stderr: float


def _outer_measure_search(costs, cover) -> tuple[float, tuple[int, ...]]:
    """Minimum-cost covering sub-family, over all 2^n of them: row i of
    ``cover`` marks the target cells element i covers, and bit i of a
    sub-family's number says it takes element i.  Summed costs add in index
    order.  Equal-cost ties break to the lexicographically smallest index
    tuple."""
    n = len(costs)
    # each cell's family: the set of elements covering it, as a bitmask
    families = np.unique(cover.T @ (1 << np.arange(n)))
    if families[0] == 0:
        raise CoverError("no sub-family of the covers contains the target")
    total = np.zeros(1)
    for c in costs:
        total = np.concatenate([total, total + c])
    subsets = np.arange(1 << n)
    covering = np.ones(1 << n, dtype=bool)
    for fam in families:
        covering &= (subsets & fam) != 0
    best = total[covering].min()
    ties = subsets[covering & (total == best)]
    return best, min(tuple(i for i in range(n) if s >> i & 1) for s in ties.tolist())


def outer_measures(table, covers, targets) -> list[OuterMeasureResult]:
    """Finite-cover outer measure of each target region: the minimum over
    covering sub-families of the summed pre-measure of the pieces, with the
    chosen sub-family and its propagated standard error.  All targets and the
    covers share one cell arrangement (row i of ``cover`` marks the cells
    cover element i covers); the covers' costs are looked up once, if any
    target is not null."""
    arr = CellArrangement([targets, covers.elements])
    insides = [arr.mask(t) for t in targets]
    null = OuterMeasureResult(0.0, (), 0.0)
    if not any(inside.any() for inside in insides):
        return [null] * len(targets)
    cover = np.array([arr.mask(el) for el in covers.elements])
    costs, ses = zip(*(psi_on_C_with_se(table, el) for el in covers.elements))
    results = []
    for inside in insides:
        if not inside.any():
            results.append(null)
            continue
        value, chosen = _outer_measure_search(costs, cover[:, inside])
        stderr = float(np.sqrt(sum(ses[i] ** 2 for i in chosen)))
        results.append(OuterMeasureResult(float(value), tuple(chosen), stderr))
    return results


def extension_residual(table, det: OuterMeasureResult, u: Rect) -> tuple[float, float]:
    """(|outer(u) - psi(u)|, propagated stderr of outer(u) and psi(u)
    combined), with ``det`` the outer measure of u: the finite shadow of the
    statement that the outer measure extends the pre-measure on boxes."""
    (value,), (stderr,) = table.lookup([u])
    resid = abs(det.value - float(value))
    return resid, float(np.hypot(det.stderr, stderr))


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
    extension band is the one that tests that psi is a measure.  The config
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
    m = np.array([rect_measure(u) for u in table.boxes])
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


def _extension_criterion(table, covers, thr) -> CriterionResult:
    arr = CellArrangement([table.boxes, covers.elements])
    uncovered = ~arr.mask(covers.elements)
    targets = [
        u for u in table.boxes
        if not (rect_measure(u) < thr.psi_floor or np.any(arr.mask(u) & uncovered))
    ]
    if not targets:
        return CriterionResult(
            "extension", False, np.inf, 0.0, "no coverable index to test"
        )
    worst, detail, passed = 0.0, "is 0", True
    for u, det in zip(targets, outer_measures(table, covers, targets)):
        resid, se = extension_residual(table, det, u)
        if resid > thr.extension_se_mult * se:
            passed = False
        if resid > worst:
            worst, detail = resid, f"({u!r})"
    return CriterionResult(
        "extension", passed, worst, 0.0, f"worst residual over {len(targets)} targets {detail}"
    )


def _covariance_criterion(table, h, thr) -> CriterionResult:
    # usable pairs: both boxes and their intersection have recovered entries
    emp, n = table.gram, table.n_samples
    corners = corner_array(table.boxes)
    t, dim = corners.shape
    inter = np.minimum(corners[:, None], corners[None, :]).reshape(t * t, dim)
    # table row of each pairwise intersection, -1 where the table lacks it
    distinct, ids = np.unique(np.concatenate([corners, inter]), axis=0, return_inverse=True)
    ids = ids.ravel()
    row = np.full(len(distinct), -1)
    row[ids[:t]] = np.arange(t)
    k = row[ids[t:]].reshape(t, t)
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
    covers: CoverFamily,
    thresholds: Thresholds | None = None,
    table_indices=None,
) -> tuple[CharacterizationReport, PreMeasureTable]:
    """Measure-recovery verdict: psi recovery and monotonicity and
    outer-measure extension, together with the recovered table they were
    computed from."""
    thr = thresholds or Thresholds()
    table = PreMeasureTable.from_ensemble(e, table_indices)
    criteria = _psi_criteria(table, thr)
    criteria.append(_extension_criterion(table, covers, thr))
    return CharacterizationReport(tuple(criteria)), table


def characterize(
    e,
    flows: list[Flow],
    h: HurstParam,
    covers: CoverFamily,
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
    recovered, table = recover_measure(e, covers, thr, table_indices)
    criteria = _flow_criteria(e, flows, h, thr)
    criteria += recovered.criteria
    criteria.append(_covariance_criterion(table, h, thr))
    return CharacterizationReport(tuple(criteria))
