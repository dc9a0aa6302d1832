"""Experiment configuration: one JSON file drives every command.

Validation happens entirely at parse time through the owning constructors
(HurstParam, GridSpec, flow builders), and error messages name the offending
field.  The manifest hash is a sha256 over the canonical (sorted-key,
compact) JSON of the resolved configuration, so it changes exactly when some
field changes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .flows import ElementaryFlow, SimpleFlow, flow_weights, make_elementary_flow
from .gaussian import HurstParam
from .intrep import KERNEL_H_MAX, GridSpec, IntRepConfig, validate_masses
from .recovery import CoverFamily, Thresholds, tiling_cover
from .rects import MAX_UNION_PARTS, LeftNeighborhood, Rect


class ConfigError(ValueError):
    """Configuration is structurally or semantically invalid."""


def _get(d: dict, key: str, kind, where: str, default=None, required=False, least=None, most=None):
    if key not in d:
        if required:
            raise ConfigError(f"missing required field '{where}{key}'")
        return default
    val = _typed(d[key], kind, f"{where}{key}")
    if least is not None and val < least:
        raise ConfigError(f"field '{where}{key}' must be >= {least}")
    if most is not None and val > most:
        raise ConfigError(f"field '{where}{key}' must be <= {most}")
    return val


def _ranged(spec: dict, cls, where: str) -> dict:
    """Each field of dataclass ``cls`` with a ``least`` (and maybe a ``most``) in its
    metadata, from ``spec`` or its default, typed as its default and held to that range."""
    return {
        f.name: _get(spec, f.name, type(f.default), where, default=f.default,
                     least=f.metadata["least"], most=f.metadata.get("most"))
        for f in fields(cls) if "least" in f.metadata
    }


def _typed(val, kind, name: str):
    if kind is float and type(val) is int:
        val = float(val)
    # JSON true/false parse to bool, a subclass of int, but are never numbers
    if not isinstance(val, kind) or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(
            f"field '{name}' must be {getattr(kind, '__name__', kind)}, "
            f"got {type(val).__name__}"
        )
    # Python's json module reads NaN and Infinity, which JSON does not have
    if kind is float and not np.isfinite(val):
        raise ConfigError(f"field '{name}' must be a finite number, got {val}")
    return val


def _only(d: dict, keys, where: str):
    """Reject a key of ``d`` outside ``keys``, the keys its reader reads."""
    extra = sorted(set(d) - set(keys))
    if extra:
        raise ConfigError(f"field '{where}{extra[0]}': unknown key")


def _items(d: dict, key: str, kind, where: str, default=None, required=False) -> tuple:
    vals = _get(d, key, list, where, default=default, required=required)
    return tuple(_typed(v, kind, f"{where}{key}[{i}]") for i, v in enumerate(vals))


def _corner(obj, n, where) -> tuple[float, ...]:
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"field '{where}' must be a list of {n} coordinates")
    return tuple(_typed(x, float, f"{where}[{i}]") for i, x in enumerate(obj))


def _built(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError a ConfigError naming the field."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"field '{where}': {exc}") from exc


def _build_flow(spec: dict, dim: int, where: str):
    _typed(spec, dict, where[:-1])
    kind = _get(spec, "kind", str, where, required=True)
    if kind == "simple":
        _only(spec, ("name", "kind", "segments"), where)
        segs = _get(spec, "segments", list, where, required=True)
        if not segs:
            raise ConfigError(f"field '{where}segments' must be non-empty")
        built = tuple(
            _segment_flow(s, dim, f"{where}segments[{i}].") for i, s in enumerate(segs)
        )
        return _built(f"{where}segments", SimpleFlow, built)
    return _segment_flow(spec, dim, where, "name")


def _segment_flow(spec: dict, dim: int, where: str, *named: str) -> ElementaryFlow:
    _typed(spec, dict, where[:-1])
    kind = _get(spec, "kind", str, where, required=True)
    power = ("exponents",) if kind == "power" else ()
    _only(spec, ("kind", "span", "points", "to", *named, *power), where)
    span = _items(spec, "span", float, where, default=[0.0, 1.0])
    if len(span) != 2 or not span[0] < span[1]:
        raise ConfigError(f"field '{where}span' must be [a, b] with a < b")
    points = _get(spec, "points", int, where, default=64, least=2)
    to = _corner(_get(spec, "to", list, where, required=True), dim, f"{where}to")
    a, b = span
    grid = np.linspace(a, b, points)
    frac = (grid - a) / (b - a)
    frac[-1] = 1.0
    if kind == "linear":
        corners = [tuple(f * c for c in to) for f in frac]
    elif kind == "power":
        exps = _items(spec, "exponents", float, where, required=True)
        if len(exps) != dim or any(e <= 0 for e in exps):
            raise ConfigError(
                f"field '{where}exponents' must be {dim} positive exponents"
            )
        corners = [tuple(f ** e * c for e, c in zip(exps, to)) for f in frac]
    else:
        raise ConfigError(f"field '{where}kind' unknown flow kind {kind!r}")
    return _built(where, make_elementary_flow, grid, corners)


def cover_closure_rects(covers: CoverFamily) -> set[Rect]:
    """Every box the inclusion-exclusion extension of the cover pieces can
    look up: intersections of each base with subsets of its subtracted boxes."""
    return {
        box for el in covers.elements for _, box in el.signed_boxes() if not box.is_empty
    }


@dataclass(frozen=True)
class ExperimentConfig:
    hurst: HurstParam
    seed: int
    n_samples: int
    output_dir: str
    lattice_indices: tuple[Rect, ...]
    flows: tuple
    flow_names: tuple[str, ...]
    covers: CoverFamily
    intrep: IntRepConfig
    thresholds: Thresholds
    jobs: int = 1
    raw: dict = field(default_factory=dict, compare=False)

    @property
    def table_indices(self) -> list[Rect]:
        """Indices the recovered-measure table is built over: the lattice
        plus whatever the cover pieces need."""
        out = set(self.lattice_indices) | cover_closure_rects(self.covers)
        return sorted(out, key=lambda r: r.corner)

    def ensemble_indices(self) -> list[Rect]:
        """Deterministic index list for simulation: table indices plus every
        column any configured flow projection will read."""
        out = set(self.table_indices)
        for f in self.flows:
            out.update(flow_weights(f)[0])
        return sorted(out, key=lambda r: r.corner)

    def config_hash(self) -> str:
        return canonical_hash(self.raw)


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def parse_config(raw: dict, seed_override: int | None = None, jobs: int = 1) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    _only(raw, ("dimension", "hurst", "seed", "n_samples", "output_dir", "indices", "flows",
                "covers", "integral_rep", "thresholds"), "")
    resolved = dict(raw)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    dim = _get(resolved, "dimension", int, "", required=True, least=1)
    hurst = _built("hurst", HurstParam, _get(resolved, "hurst", float, "", required=True))
    seed = _get(resolved, "seed", int, "", required=True, least=0)
    n_samples = _get(resolved, "n_samples", int, "", required=True, least=1)
    output_dir = _get(resolved, "output_dir", str, "", default="out")

    idx_spec = _get(resolved, "indices", dict, "", required=True)
    _only(idx_spec, ("lattice",) if "lattice" in idx_spec else ("corners",), "indices.")
    lattice: list[Rect] = []
    if "lattice" in idx_spec:
        lat = _get(idx_spec, "lattice", dict, "indices.")
        _only(lat, ("shape", "spacing"), "indices.lattice.")
        shape = _items(lat, "shape", int, "indices.lattice.", required=True)
        spacing = _items(lat, "spacing", float, "indices.lattice.", default=[1.0] * dim)
        if len(shape) != dim or len(spacing) != dim:
            raise ConfigError("field 'indices.lattice': shape/spacing must match dimension")
        for combo in itertools.product(*(range(1, s + 1) for s in shape)):
            corner = tuple(c * sp for c, sp in zip(combo, spacing))
            lattice.append(_built("indices.lattice.spacing", Rect, corner))
    elif "corners" in idx_spec:
        for i, c in enumerate(_get(idx_spec, "corners", list, "indices.")):
            where = f"indices.corners[{i}]"
            lattice.append(_built(where, Rect, _corner(c, dim, where)))
    else:
        raise ConfigError("field 'indices' needs either 'lattice' or 'corners'")

    flow_specs = _get(resolved, "flows", list, "", default=[])
    flows, names = [], []
    for i, fs in enumerate(flow_specs):
        flows.append(_build_flow(fs, dim, f"flows[{i}]."))
        names.append(_get(fs, "name", str, f"flows[{i}].", default=f"flow{i}"))
    if len(set(names)) != len(names):
        raise ConfigError("field 'flows': names must be unique")

    cov_spec = _get(resolved, "covers", dict, "", default=None)
    if cov_spec is None:
        corner = tuple(float(x) for x in lattice[-1].corner) if lattice else (1.0,) * dim
        covers = tiling_cover(corner, (2,) * dim)
    elif "tiling" in cov_spec:
        _only(cov_spec, ("tiling",), "covers.")
        t = _get(cov_spec, "tiling", dict, "covers.")
        _only(t, ("corner", "divisions"), "covers.tiling.")
        corner = _corner(_get(t, "corner", list, "covers.tiling.", required=True), dim, "covers.tiling.corner")
        divisions = _items(t, "divisions", int, "covers.tiling.", required=True)
        if len(divisions) != dim:
            raise ConfigError("field 'covers.tiling.divisions' must match dimension")
        covers = _built("covers.tiling", tiling_cover, corner, divisions)
    elif "elements" in cov_spec:
        _only(cov_spec, ("elements",), "covers.")
        els = []
        for i, el in enumerate(_get(cov_spec, "elements", list, "covers.")):
            where = f"covers.elements[{i}]."
            _typed(el, dict, where[:-1])
            _only(el, ("base", "subtract"), where)
            base = _corner(_get(el, "base", list, where, required=True), dim, f"{where}base")
            base = _built(f"{where}base", Rect, base)
            subs = tuple(
                _built(f"{where}subtract", Rect, _corner(s, dim, f"{where}subtract"))
                for s in _get(el, "subtract", list, where, default=[])
            )
            if len(subs) > MAX_UNION_PARTS:
                raise ConfigError(
                    f"field 'covers.elements[{i}].subtract' has {len(subs)} boxes, "
                    f"more than the inclusion-exclusion cap of {MAX_UNION_PARTS}"
                )
            els.append(LeftNeighborhood(base, subs))
        covers = _built("covers.elements", CoverFamily, tuple(els))
    else:
        raise ConfigError("field 'covers' needs 'tiling' or 'elements'")

    ir = _get(resolved, "integral_rep", dict, "", default={})
    where = "integral_rep."
    _only(ir, [f.name for f in fields(IntRepConfig)], where)
    intrep = IntRepConfig(
        masses=_items(ir, "masses", float, where, default=[0.8, 0.9, 1.0]),
        variance_masses=_items(ir, "variance_masses", float, where, default=[0.25, 1.0, 4.0]),
        hursts=_items(ir, "hursts", float, where, default=[0.2, 0.35]),
        n_samples=_get(ir, "n_samples", int, where, default=n_samples, least=1),
        grid=_parse_grid(_get(ir, "grid", dict, where, default={})),
        **_ranged(ir, IntRepConfig, where),
    )
    _built("integral_rep.masses", validate_masses, intrep.masses)
    if any(m <= 0 for m in intrep.variance_masses):
        raise ConfigError("field 'integral_rep.variance_masses' entries must be > 0")
    for hv in intrep.hursts:
        if _built("integral_rep.hursts", HurstParam, hv).value > KERNEL_H_MAX:
            raise ConfigError(
                f"field 'integral_rep.hursts': {hv} is within 1e-6 of 1/2, where the kernel "
                "vanishes or loses its digits; half_case_covariance checks H = 1/2"
            )

    thr_spec = _get(resolved, "thresholds", dict, "", default={})
    _only(thr_spec, [f.name for f in fields(Thresholds)], "thresholds.")
    thresholds = Thresholds(**_ranged(thr_spec, Thresholds, "thresholds."))

    return ExperimentConfig(
        hurst=hurst,
        seed=seed,
        n_samples=n_samples,
        output_dir=output_dir,
        lattice_indices=tuple(lattice),
        flows=tuple(flows),
        flow_names=tuple(names),
        covers=covers,
        intrep=intrep,
        thresholds=thresholds,
        jobs=jobs,
        raw=resolved,
    )


def _parse_grid(spec: dict) -> GridSpec:
    _only(spec, [f.name for f in fields(GridSpec)], "integral_rep.grid.")
    return _built("integral_rep.grid", GridSpec, **_ranged(spec, GridSpec, "integral_rep.grid."))


def load_config(path, seed_override: int | None = None, jobs: int = 1) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, seed_override=seed_override, jobs=jobs)
