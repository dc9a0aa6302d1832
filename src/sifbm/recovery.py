"""Recovering the underlying measure from the sampled field.

The pipeline mirrors, at desk scale, the constructive argument behind the
flow characterization of the field:

  1. psi(U) = (E[X_U^2])^{1/(2H)} recovers a set function on boxes from
     ensemble variances (or analytically, from Lebesgue measure).
  2. psi extends to left-neighborhoods C = U \\ (U_1 u ... u U_n) by
     inclusion-exclusion, and is additive on disjoint pieces.
  3. A finite cover family yields an outer measure: the minimum of
     sum psi(C_i) over sub-families covering the target (exhaustive search
     with branch-and-bound pruning, family capped at 16 elements).
  4. The outer measure extends psi (outer(U) = psi(U) on boxes), box indices
     are measurable (additive inside/outside splits), and the analytic
     variance of set differences is outer-continuous along shrinking
     sequences.
  5. ``characterize`` bundles these checks with flow variance profiles and
     Gaussianity diagnostics into a single pass/fail report.

Empirical psi entries carry delta-method standard errors:
d psi / d s = (1/(2H)) s^{1/(2H)-1} applied to the standard error of the
mean square.  Propagated errors for alternating sums add in quadrature
(cross-term correlations are ignored; a desk-scale approximation).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .flows import Flow, predicted_increment_moment, project, time_change
from .gaussian import HurstParam, SampleEnsemble, covariance_from_measures
from .rects import (
    MAX_UNION_PARTS,
    LeftNeighborhood,
    Rect,
    left_nbhd_measure,
    rect_contains,
    rect_intersection,
    rect_measure,
    region_disjoint_ae,
    region_equal_ae,
    region_subset_ae,
    _arrangement_for,
)
from .stats import gaussianity_check, variance_profile

MAX_COVER_ELEMENTS = 16


class MissingPsiError(KeyError):
    """A required pre-measure entry is absent from the table."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"missing pre-measure entries: {self.missing}")


class CoverError(ValueError):
    """No sub-family of the covers contains the target."""


@dataclass(frozen=True)
class PsiEntry:
    value: float
    provenance: str  # "analytic" | "empirical"
    stderr: float = 0.0
    n_samples: int | None = None


class PreMeasureTable:
    """Map from boxes to recovered pre-measure values.

    Analytic tables evaluate Lebesgue measure on demand; empirical tables
    hold plug-in estimates from an ensemble, with standard errors, and refuse
    lookups they do not contain.
    """

    def __init__(self, hurst: HurstParam, entries=None, analytic_dim: int | None = None):
        self.hurst = hurst
        self._entries: dict[Rect, PsiEntry] = dict(entries or {})
        self._analytic_dim = analytic_dim

    @classmethod
    def analytic(cls, hurst: HurstParam, dimension: int) -> "PreMeasureTable":
        return cls(hurst, analytic_dim=dimension)

    @classmethod
    def from_ensemble(cls, e: SampleEnsemble, indices=None) -> "PreMeasureTable":
        table = cls(e.hurst)
        for u in indices if indices is not None else e.indices:
            table._entries[u] = _psi_entry(e, u, e.hurst)
        return table

    @property
    def is_analytic(self) -> bool:
        return self._analytic_dim is not None

    def indices(self) -> list[Rect]:
        return list(self._entries)

    def entry(self, u: Rect) -> PsiEntry:
        if u.is_empty:
            return PsiEntry(0.0, "analytic")
        got = self._entries.get(u)
        if got is None:
            if self._analytic_dim is None:
                raise MissingPsiError([u])
            got = PsiEntry(rect_measure(u), "analytic")
            self._entries[u] = got
        return got

    def psi(self, u: Rect) -> float:
        return self.entry(u).value

    def missing(self, rects) -> list[Rect]:
        if self._analytic_dim is not None:
            return []
        return sorted(
            {r for r in rects if not r.is_empty and r not in self._entries},
            key=lambda r: r.corner,
        )


def estimate_psi(e: SampleEnsemble, u: Rect, h: HurstParam) -> float:
    """Plug-in recovery of the measure of a box: (mean of X_U^2)^{1/(2H)}."""
    return _psi_entry(e, u, h).value


def _psi_entry(e: SampleEnsemble, u: Rect, h: HurstParam) -> PsiEntry:
    if e.n_samples < 100:
        raise ValueError("need at least 100 samples to estimate the pre-measure")
    col = e.column(u)
    sq = col**2
    s = float(np.mean(sq))
    n = e.n_samples
    if s == 0.0:
        if not u.is_empty and rect_measure(u) > 0:
            warnings.warn(
                f"zero empirical variance for non-degenerate index {u!r}",
                stacklevel=3,
            )
        return PsiEntry(0.0, "empirical", stderr=0.0, n_samples=n)
    inv = 1.0 / h.two_h
    value = s**inv
    se_s = float(np.std(sq, ddof=1)) / np.sqrt(n)
    stderr = inv * s ** (inv - 1.0) * se_s
    return PsiEntry(value, "empirical", stderr=stderr, n_samples=n)


def _alternating_terms(c: LeftNeighborhood) -> list[tuple[float, Rect]]:
    """Signed box terms of psi(C): psi(U) - sum psi(U n U_i) + ..."""
    terms = [(1.0, c.base)]
    for k in range(1, len(c.subtracted) + 1):
        sign = -1.0 if k % 2 == 1 else 1.0
        for combo in itertools.combinations(c.subtracted, k):
            inter = c.base
            for r in combo:
                inter = rect_intersection(inter, r)
            terms.append((sign, inter))
    return terms


def psi_on_C(table: PreMeasureTable, c: LeftNeighborhood) -> float:
    """Inclusion-exclusion extension of the pre-measure to a left-neighborhood."""
    return psi_on_C_with_se(table, c)[0]


def psi_on_C_with_se(table: PreMeasureTable, c: LeftNeighborhood) -> tuple[float, float]:
    if len(c.subtracted) > MAX_UNION_PARTS:
        raise ValueError(
            f"inclusion-exclusion capped at {MAX_UNION_PARTS} subtracted boxes, "
            f"got {len(c.subtracted)}"
        )
    terms = _alternating_terms(c)
    miss = table.missing(r for _, r in terms)
    if miss:
        raise MissingPsiError(miss)
    total, var = 0.0, 0.0
    for sign, r in terms:
        entry = table.entry(r)
        total += sign * entry.value
        var += entry.stderr**2
    return total, float(np.sqrt(var))


def check_additivity(
    table: PreMeasureTable,
    c1: LeftNeighborhood,
    c2: LeftNeighborhood,
    union_expr: LeftNeighborhood,
) -> float:
    """Residual |psi(c1 u c2) - psi(c1) - psi(c2) + psi(c1 n c2)|.

    The caller supplies the union as a left-neighborhood; it is verified (up
    to null sets) to actually equal c1 u c2.  The intersection is computed in
    closed form, since the class is closed under intersections.
    """
    if not region_equal_ae([c1, c2], union_expr):
        raise ValueError("union_expr does not equal c1 u c2 (up to null sets)")
    inter = c1.intersect(c2)
    return abs(
        psi_on_C(table, union_expr)
        - psi_on_C(table, c1)
        - psi_on_C(table, c2)
        + psi_on_C(table, inter)
    )


def additivity_se(table, c1, c2, union_expr) -> float:
    parts = [union_expr, c1, c2, c1.intersect(c2)]
    return float(np.sqrt(sum(psi_on_C_with_se(table, p)[1] ** 2 for p in parts)))


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


def _outer_measure_search(costs, masks, universe) -> tuple[float, tuple[int, ...]]:
    """Minimum-cost covering subset, exhaustively with branch-and-bound when
    all costs are non-negative.  Equal-cost ties break to the
    lexicographically smallest index tuple."""
    n = len(costs)
    can_prune = all(c >= 0 for c in costs)
    best: list = [np.inf, None]

    order = list(range(n))

    def consider(cost, chosen):
        if cost < best[0] or (cost == best[0] and (best[1] is None or chosen < best[1])):
            best[0], best[1] = cost, chosen

    def dfs(i, mask, cost, chosen):
        if mask & universe == universe:
            consider(cost, tuple(chosen))
            if can_prune:
                return  # adding more non-negative pieces cannot help
        if i == n:
            return
        if can_prune and cost > best[0]:
            return
        # include element i first: keeps lexicographically smaller subsets early
        chosen.append(order[i])
        dfs(i + 1, mask | masks[i], cost + costs[i], chosen)
        chosen.pop()
        dfs(i + 1, mask, cost, chosen)

    dfs(0, 0, 0.0, [])
    if best[1] is None:
        raise CoverError("no sub-family of the covers contains the target")
    return best[0], best[1]


def outer_measure(table: PreMeasureTable, covers: CoverFamily, target) -> float:
    """Finite-cover outer measure of the target region: the minimum over
    covering sub-families of the summed pre-measure of the pieces."""
    return outer_measure_details(table, covers, target).value


def outer_measure_details(
    table: PreMeasureTable, covers: CoverFamily, target
) -> OuterMeasureResult:
    if isinstance(target, Rect) and target.is_empty:
        return OuterMeasureResult(0.0, (), 0.0)
    arr = _arrangement_for(target, list(covers.elements))
    cells = sorted(c for c in arr.cells(target) if arr.cell_volume(c) > 0.0)
    if not cells:
        return OuterMeasureResult(0.0, (), 0.0)
    cell_bit = {c: 1 << i for i, c in enumerate(cells)}
    universe = (1 << len(cells)) - 1
    masks, costs, ses = [], [], []
    for el in covers.elements:
        bits = 0
        for c in arr.cells(el):
            bits |= cell_bit.get(c, 0)
        masks.append(bits)
        value, se = psi_on_C_with_se(table, el)
        costs.append(value)
        ses.append(se)
    value, chosen = _outer_measure_search(costs, masks, universe)
    stderr = float(np.sqrt(sum(ses[i] ** 2 for i in chosen)))
    return OuterMeasureResult(float(value), tuple(chosen), stderr)


def verify_extension(table: PreMeasureTable, covers: CoverFamily, u: Rect) -> float:
    """Residual |outer(u) - psi(u)|: the finite shadow of the statement that
    the outer measure extends the pre-measure on boxes."""
    return abs(outer_measure(table, covers, u) - table.psi(u))


def verify_extension_details(table, covers, u: Rect) -> tuple[float, float]:
    """(residual, propagated stderr of outer(u) and psi(u) combined)."""
    det = outer_measure_details(table, covers, u)
    entry = table.entry(u)
    resid = abs(det.value - entry.value)
    return resid, float(np.hypot(det.stderr, entry.stderr))


def measurability_check(
    table: PreMeasureTable,
    covers: CoverFamily,
    u: Rect,
    a_inside: LeftNeighborhood,
    b_outside: LeftNeighborhood,
) -> float:
    """Residual |outer(a u b) - outer(a) - outer(b)| with a inside u and b
    outside u; cover pieces crossing the boundary of u are cut into their
    inside and outside halves first (both stay in the class)."""
    if not region_subset_ae(a_inside, u):
        raise ValueError("a_inside is not contained in u")
    if not region_disjoint_ae(b_outside, u):
        raise ValueError("b_outside overlaps u")
    pieces = []
    for el in covers.elements:
        inside = el.intersect_rect(u)
        outside = el.subtract_rect(u)
        for p in (inside, outside):
            if not p.base.is_empty:
                pieces.append(p)
    pieces = [p for p in pieces if _nonnull(p)]
    if len(pieces) > MAX_COVER_ELEMENTS:
        raise ValueError(
            f"split cover has {len(pieces)} pieces, exceeding the "
            f"{MAX_COVER_ELEMENTS}-element search cap"
        )
    split = CoverFamily(tuple(pieces))
    both = outer_measure(table, split, [a_inside, b_outside])
    return abs(both - outer_measure(table, split, a_inside) - outer_measure(table, split, b_outside))


def _nonnull(c: LeftNeighborhood) -> bool:
    return left_nbhd_measure(c) > 0.0


def outer_continuity_check(h: HurstParam, corners, u: Rect) -> np.ndarray:
    """Analytic variance of the difference along a shrinking box sequence:
    E[(X_{U_n} - X_U)^2] = m(U_n (+) U)^{2H}.

    The corner sequence must decrease componentwise to u's corner; the
    returned values are then monotone nonincreasing by construction.  When u
    is degenerate and the final corner is small enough, the final value is
    additionally asserted below 1e-6 (the regime where the bound is exact).
    """
    seq = [Rect(tuple(float(x) for x in c)) for c in corners]
    if u.is_empty:
        raise ValueError("limit index must be a box (possibly degenerate), not empty")
    prev = None
    for r in seq:
        if not rect_contains(r, u):
            raise ValueError(f"sequence element {r!r} does not contain the limit {u!r}")
        if prev is not None and not rect_contains(prev, r):
            raise ValueError("corner sequence is not componentwise nonincreasing")
        prev = r
    values = np.array([symdiff_pow(r, u, h) for r in seq])
    if np.any(np.diff(values) > 0):
        raise AssertionError("analytic variance sequence failed to be nonincreasing")
    if rect_measure(u) == 0.0 and seq:
        n = len(u.corner)
        gap_scale = 1e-6 ** (1.0 / (h.two_h * n))
        if max(seq[-1].corner) <= gap_scale:
            assert values[-1] <= 1e-6
    return values


def symdiff_pow(a: Rect, b: Rect, h: HurstParam) -> float:
    from .rects import symdiff_measure

    return symdiff_measure(a, b) ** h.two_h


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
    """

    profile_se_mult: float = 4.0
    profile_pass_fraction: float = 0.95
    gaussianity_z: float = 4.0
    psi_recovery_rel: float = 0.05
    psi_recovery_se_mult: float = 4.0
    psi_floor: float = 0.1
    monotonicity_se_mult: float = 3.0
    additivity_se_mult: float = 3.0
    extension_se_mult: float = 3.0
    covariance_se_mult: float = 3.0
    covariance_pass_fraction: float = 0.99
    analytic_tol: float = 1e-12

    @classmethod
    def from_dict(cls, overrides: dict | None) -> "Thresholds":
        return cls(**(overrides or {}))


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
    worst_frac, worst_detail = 1.0, ""
    gauss_worst, gauss_detail = 0.0, ""
    for fi, f in enumerate(flows):
        pe = project(e, f)
        tc = time_change(f)
        vp = variance_profile(pe.paths, tc, h, predicted=predicted_increment_moment(f, h))
        frac = vp.fraction_within(thr.profile_se_mult)
        if frac < worst_frac:
            worst_frac, worst_detail = frac, f"flow {fi}"
        end = pe.paths[:, -1]
        mid = pe.paths[:, pe.paths.shape[1] // 2]
        for label, series in (("end value", end), ("half increment", end - mid)):
            if np.std(series) == 0:
                continue
            rep = gaussianity_check(series, z_limit=thr.gaussianity_z)
            z = max(abs(rep.skewness_z), abs(rep.excess_kurtosis_z))
            if z > gauss_worst:
                gauss_worst, gauss_detail = z, f"flow {fi} {label}"
    out.append(
        CriterionResult(
            "variance_profile",
            worst_frac >= thr.profile_pass_fraction,
            worst_frac,
            thr.profile_pass_fraction,
            f"worst within-band fraction at {worst_detail}",
        )
    )
    out.append(
        CriterionResult(
            "gaussianity",
            gauss_worst < thr.gaussianity_z,
            gauss_worst,
            thr.gaussianity_z,
            f"worst moment z at {gauss_detail}",
        )
    )
    return out


def _psi_criteria(table, thr) -> list[CriterionResult]:
    worst_rel, worst_detail = 0.0, ""
    recovery_pass = True
    for u in table.indices():
        m = rect_measure(u)
        if m < thr.psi_floor:
            continue
        entry = table.entry(u)
        tol = max(thr.psi_recovery_rel * m, thr.psi_recovery_se_mult * entry.stderr)
        rel = abs(entry.value - m) / m
        if abs(entry.value - m) > tol:
            recovery_pass = False
        if rel > worst_rel:
            worst_rel, worst_detail = rel, repr(u)
    mono_pass = True
    worst_viol = 0.0
    idx = table.indices()
    for u, v in itertools.combinations(idx, 2):
        if rect_contains(v, u):
            small, big = u, v
        elif rect_contains(u, v):
            small, big = v, u
        else:
            continue
        es, eb = table.entry(small), table.entry(big)
        slack = thr.monotonicity_se_mult * float(np.hypot(es.stderr, eb.stderr))
        viol = es.value - eb.value - slack
        if viol > 0:
            mono_pass = False
            worst_viol = max(worst_viol, viol)
    return [
        CriterionResult(
            "psi_recovery",
            recovery_pass,
            worst_rel,
            thr.psi_recovery_rel,
            f"worst relative recovery error at {worst_detail}",
        ),
        CriterionResult(
            "psi_monotonicity",
            mono_pass,
            worst_viol,
            0.0,
            "violation beyond the propagated-error band",
        ),
    ]


def _comparable_pairs(indices, limit=20):
    pairs = []
    for u, v in itertools.combinations(indices, 2):
        if rect_contains(v, u) and rect_measure(u) > 0 and rect_measure(v) > rect_measure(u):
            pairs.append((u, v))
        if len(pairs) >= limit:
            break
    return pairs


def _additivity_criterion(table, thr) -> CriterionResult:
    worst, detail, passed, count = 0.0, "", True, 0
    for u, v in _comparable_pairs(table.indices()):
        c1 = LeftNeighborhood(v, (u,))
        c2 = LeftNeighborhood(u)
        union_expr = LeftNeighborhood(v)
        resid = check_additivity(table, c1, c2, union_expr)
        tol = (
            thr.analytic_tol * max(1.0, table.psi(v))
            if table.is_analytic
            else thr.additivity_se_mult * additivity_se(table, c1, c2, union_expr)
        )
        count += 1
        if resid > tol:
            passed = False
        if resid > worst:
            worst, detail = resid, f"{u!r} inside {v!r}"
    return CriterionResult(
        "additivity", passed, worst, 0.0, f"worst residual over {count} splits ({detail})"
    )


def _extension_criterion(table, covers, thr) -> CriterionResult:
    worst, detail, passed, count = 0.0, "", True, 0
    for u in table.indices():
        if rect_measure(u) < thr.psi_floor:
            continue
        if not region_subset_ae(u, list(covers.elements)):
            continue
        resid, se = verify_extension_details(table, covers, u)
        tol = (
            thr.analytic_tol * max(1.0, table.psi(u))
            if table.is_analytic
            else thr.extension_se_mult * se
        )
        count += 1
        if resid > tol:
            passed = False
        if resid > worst:
            worst, detail = resid, repr(u)
    if count == 0:
        return CriterionResult(
            "extension", False, np.inf, 0.0, "no coverable index to test"
        )
    return CriterionResult(
        "extension", passed, worst, 0.0, f"worst residual over {count} targets ({detail})"
    )


def _covariance_criterion(e, table, h, thr) -> CriterionResult:
    idx = list(e.indices)
    n = e.n_samples
    emp = (e.samples.T @ e.samples) / n
    diag = np.diag(emp)
    total, ok = 0, 0
    worst = 0.0
    # pairs are usable only when the recovered measure knows both boxes and
    # their intersection (always true for analytic tables)
    table_set = set(table.indices()) if not table.is_analytic else None
    for i, u in enumerate(idx):
        for j in range(i, len(idx)):
            v = idx[j]
            inter = rect_intersection(u, v)
            if table_set is not None and (
                u not in table_set or v not in table_set or (not inter.is_empty and inter not in table_set)
            ):
                continue
            mu, mv = table.psi(u), table.psi(v)
            mi = 0.0 if inter.is_empty else table.psi(inter)
            pred = covariance_from_measures(mu, mv, max(mu + mv - 2 * mi, 0.0), h)
            se = np.sqrt((diag[i] * diag[j] + emp[i, j] ** 2) / n)
            total += 1
            dev = abs(emp[i, j] - pred)
            if se > 0:
                worst = max(worst, dev / se)
                if dev <= thr.covariance_se_mult * se:
                    ok += 1
            else:
                ok += 1 if dev == 0 else 0
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


def characterize(
    e: SampleEnsemble,
    flows: list[Flow],
    h: HurstParam,
    covers: CoverFamily,
    thresholds: Thresholds | None = None,
    table_indices=None,
) -> CharacterizationReport:
    """Full verdict: does the ensemble behave like the exact field with
    parameter h over this index family?

    Runs flow variance profiles, Gaussianity z-tests, pre-measure recovery
    and monotonicity, inclusion-exclusion additivity, outer-measure
    extension, and the final covariance comparison against the covariance
    rebuilt from the recovered measure.
    """
    if e.n_samples < 1000:
        raise ValueError("characterize needs at least 1000 samples")
    thr = thresholds or Thresholds()
    table = PreMeasureTable.from_ensemble(e, indices=table_indices)
    criteria = []
    criteria += _flow_criteria(e, flows, h, thr)
    criteria += _psi_criteria(table, thr)
    criteria.append(_additivity_criterion(table, thr))
    criteria.append(_extension_criterion(table, covers, thr))
    criteria.append(_covariance_criterion(e, table, h, thr))
    return CharacterizationReport(tuple(criteria))
