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
from .recovery import Thresholds
from .rects import MAX_UNION_PARTS, Rect, corner_array, measure


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


def _finite_measure(values, where: str):
    """Refuse measures, or bounds on them, that the covariance's sum of two would overflow."""
    if not np.all(np.asarray(values) <= np.finfo(float).max / 2):
        raise ConfigError(f"field '{where}': a measure is beyond half the float range")


def _build_flow(spec: dict, dim: int, where: str):
    _typed(spec, dict, where[:-1])
    kind = _get(spec, "kind", str, where, required=True)
    if kind == "simple":
        _only(spec, ("name", "kind", "segments"), where)
        segs = _get(spec, "segments", list, where, required=True)
        # a value on segment i is a union of i + 1 boxes, expanded over its subsets
        if not 0 < len(segs) <= MAX_UNION_PARTS:
            raise ConfigError(f"field '{where}segments' must hold 1 to {MAX_UNION_PARTS} segments")
        built = tuple(
            _segment_flow(s, dim, f"{where}segments[{i}].") for i, s in enumerate(segs)
        )
        # a union of k segment values sums < 2^k terms, each at most the
        # largest segment end's measure, so this bound keeps every sum finite
        top = measure(corner_array([seg.values[-1] for seg in built])).max()
        _finite_measure(2.0 ** len(built) * float(top), f"{where}segments")
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
    # the flow's values lie in [0, to], so no measure along it exceeds this one
    _finite_measure(measure(to), f"{where}to")
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


@dataclass(frozen=True)
class ExperimentConfig:
    hurst: HurstParam
    seed: int
    n_samples: int
    output_dir: str
    lattice_indices: tuple[Rect, ...]
    flows: tuple
    flow_names: tuple[str, ...]
    intrep: IntRepConfig
    thresholds: Thresholds
    jobs: int = 1
    raw: dict = field(default_factory=dict, compare=False)

    @property
    def table_indices(self) -> list[Rect]:
        """Indices the recovered-measure table is built over: the lattice,
        each box once, sorted by corner."""
        return sorted(set(self.lattice_indices), key=lambda r: r.corner)

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
    # "covers" is accepted and not read: configs that name a cover family for
    # the extension test, as the benchmark's do, still load
    _only(raw, ("dimension", "hurst", "seed", "n_samples", "output_dir", "indices", "flows",
                "covers", "integral_rep", "thresholds"), "")
    resolved = dict(raw)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    # a grid cell is a signed sum over the subsets of its dim lower faces
    dim = _get(resolved, "dimension", int, "", required=True, least=1, most=MAX_UNION_PARTS)
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
        _finite_measure(measure(corner_array(lattice)), "indices.lattice")
    elif "corners" in idx_spec:
        for i, c in enumerate(_get(idx_spec, "corners", list, "indices.")):
            where = f"indices.corners[{i}]"
            corner = _corner(c, dim, where)
            _finite_measure(measure(corner), where)
            lattice.append(_built(where, Rect, corner))
    else:
        raise ConfigError("field 'indices' needs either 'lattice' or 'corners'")

    flow_specs = _get(resolved, "flows", list, "", default=[])
    flows, names = [], []
    for i, fs in enumerate(flow_specs):
        flows.append(_build_flow(fs, dim, f"flows[{i}]."))
        names.append(_get(fs, "name", str, f"flows[{i}].", default=f"flow{i}"))
    if len(set(names)) != len(names):
        raise ConfigError("field 'flows': names must be unique")

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
