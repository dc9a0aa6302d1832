"""Output checkers for the benchmark workloads.

Each checker recomputes what it compares against from first principles (box
corners, the flow specs in the config, the tolerances in the config) or tests
a property the method must have; none compares against a stored copy of an
earlier output.  A checker returns nothing on success and raises
``CheckFailed`` with a message naming the first violation.
"""

from __future__ import annotations

import csv
import itertools
import json
import struct

import numpy as np

# Standard-error multiple for the demo sample covariance, fixed before any
# run: over the 35,511 distinct entries of the demo ensemble, an exact
# sampler exceeds 6 sigma anywhere with probability below 1e-4.
COVARIANCE_Z_MAX = 6.0
PROFILE_REL_TOL = 1e-12
SIFB_MAGIC = b"SIFB"
SIFB_VERSION = 1
SIFB_HEADER = 21  # magic (4) + version (1) + two little-endian uint64 counts


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _fail(message: str):
    raise CheckFailed(message)


def read_sifb(path, rows: int, cols: int) -> np.ndarray:
    """Parse a binary ensemble by the documented SIFB layout and check its
    row and column counts."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < SIFB_HEADER or raw[:4] != SIFB_MAGIC:
        _fail(f"{path}: no SIFB header")
    if raw[4] != SIFB_VERSION:
        _fail(f"{path}: SIFB version {raw[4]}, expected {SIFB_VERSION}")
    got = struct.unpack("<QQ", raw[5:SIFB_HEADER])
    if got != (rows, cols):
        _fail(f"{path}: header says {got[0]} x {got[1]}, expected {rows} x {cols}")
    if len(raw) != SIFB_HEADER + 8 * rows * cols:
        _fail(f"{path}: payload is {len(raw) - SIFB_HEADER} bytes, expected {8 * rows * cols}")
    return np.frombuffer(raw, dtype="<f8", offset=SIFB_HEADER).reshape(rows, cols)


def box_measures(corners: np.ndarray) -> np.ndarray:
    """Lebesgue measure of each box [0, t]: the product of its corner."""
    return np.prod(corners, axis=1)


def closed_form_covariance(corners: np.ndarray, hurst: float) -> np.ndarray:
    """1/2 (m(U)^{2H} + m(V)^{2H} - m(U symdiff V)^{2H}) from corner arrays."""
    m = box_measures(corners)
    inter = np.prod(np.minimum(corners[:, None, :], corners[None, :, :]), axis=2)
    symdiff = np.maximum(m[:, None] + m[None, :] - 2.0 * inter, 0.0)
    p = 2.0 * hurst
    return 0.5 * (m[:, None] ** p + m[None, :] ** p - symdiff**p)


def check_zero_columns(samples: np.ndarray, corners: np.ndarray):
    """Columns of zero-measure boxes are exactly 0 in every sample."""
    for j in np.flatnonzero(box_measures(corners) == 0.0):
        if np.any(samples[:, j] != 0.0):
            _fail(f"column {j} (box {corners[j].tolist()}) has measure 0 but non-zero samples")


def check_covariance(samples: np.ndarray, corners: np.ndarray, hurst: float,
                     z_max: float = COVARIANCE_Z_MAX) -> float:
    """Every sample second moment lies within z_max standard errors of the
    closed form; returns the largest deviation in standard errors.

    The standard error of the mean of X_U X_V for a centred Gaussian pair is
    sqrt((C_UU C_VV + C_UV^2) / n), taken from the closed form itself.
    """
    n = samples.shape[0]
    want = closed_form_covariance(corners, hurst)
    got = (samples.T @ samples) / n
    d = np.diag(want)
    se = np.sqrt((np.outer(d, d) + want**2) / n)
    live = se > 0
    z = np.abs(got - want)[live] / se[live]
    worst = float(z.max()) if z.size else 0.0
    if not worst <= z_max:
        i, j = np.argwhere(live)[int(np.argmax(z))]
        _fail(f"sample covariance of columns {i}, {j} is {worst:.1f} standard errors "
              f"from the closed form (limit {z_max})")
    return worst


def check_csv_matches(csv_path, samples: np.ndarray, corners: np.ndarray, block: int = 1000):
    """The CSV twin carries the same corners and the same doubles, bit for
    bit; read in blocks of rows to keep memory small."""
    with open(csv_path, "rb") as fh:
        names = next(csv.reader([fh.readline().decode().rstrip("\r\n")]))
        if [json.loads(h) for h in names] != corners.tolist():
            _fail(f"{csv_path}: header corners differ from the configured indices")
        row = 0
        for lines in iter(lambda: list(itertools.islice(fh, block)), []):
            cells = b",".join(line.rstrip(b"\r\n") for line in lines).split(b",")
            want = samples[row:row + len(lines)].reshape(-1)
            if len(cells) != want.size:
                _fail(f"{csv_path}: rows {row}..{row + len(lines)} hold {len(cells)} values, "
                      f"binary has {want.size}")
            got = np.array(cells, dtype=np.float64)
            diff = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            if diff.size:
                k = int(diff[0])
                _fail(f"{csv_path}: value {row * samples.shape[1] + k} is {got[k]!r}, "
                      f"binary has {want[k]!r}")
            row += len(lines)
    if row != samples.shape[0]:
        _fail(f"{csv_path}: {row} rows, binary has {samples.shape[0]}")


def elementary_theta(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Grid and time change m(f(t)) of a linear or power flow from its config
    spec, recomputed from the corner path the spec describes."""
    a, b = spec.get("span", [0.0, 1.0])
    grid = np.linspace(a, b, spec.get("points", 64))
    frac = (grid - a) / (b - a)
    frac[-1] = 1.0
    to = np.asarray(spec["to"], dtype=float)
    if spec["kind"] == "linear":
        corners = frac[:, None] * to
    elif spec["kind"] == "power":
        corners = frac[:, None] ** np.asarray(spec["exponents"], dtype=float) * to
    else:
        raise ValueError(f"not an elementary flow kind: {spec['kind']}")
    return grid, np.prod(corners, axis=1)


def read_profile(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=np.float64).reshape(-1, len(rows[0]))
    return {name: body[:, k] for k, name in enumerate(header)}


def _close(got, want, rel) -> np.ndarray:
    return np.abs(got - want) <= rel * np.abs(want)


def check_elementary_profile(profile: dict[str, np.ndarray], spec: dict, hurst: float):
    """Every profile row of an elementary flow predicts |theta_t - theta_s|^{2H}
    for the time change recomputed from the spec, and the last time change
    is the measure of the flow's ``to`` corner."""
    grid, theta = elementary_theta(spec)
    i, j = np.triu_indices(grid.size, k=1)
    if profile["s"].size != i.size:
        _fail(f"flow {spec['name']}: {profile['s'].size} profile rows, expected {i.size}")
    if not (np.array_equal(profile["s"], grid[i]) and np.array_equal(profile["t"], grid[j])):
        _fail(f"flow {spec['name']}: profile rows are not the grid pairs in order")
    if not abs(theta[-1] - np.prod(spec["to"])) <= PROFILE_REL_TOL * np.prod(spec["to"]):
        _fail(f"flow {spec['name']}: last time change {theta[-1]!r} != measure of 'to'")
    for name, want in (("theta_s", theta[i]), ("theta_t", theta[j])):
        bad = ~_close(profile[name], want, PROFILE_REL_TOL)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            _fail(f"flow {spec['name']}: {name} row {k} is {profile[name][k]!r}, "
                  f"measure of the box is {want[k]!r}")
    want = np.abs(theta[j] - theta[i]) ** (2.0 * hurst)
    bad = ~_close(profile["predicted"], want, PROFILE_REL_TOL)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        _fail(f"flow {spec['name']}: predicted row {k} is {profile['predicted'][k]!r}, "
              f"|theta_t - theta_s|^2H is {want[k]!r}")


def check_intrep(report: dict, integral_rep: dict):
    """Every variance, covariance, refinement and half-case criterion is
    present for each configured H and mass, and each statistic lies within
    the tolerance the config sets; the refined discretization error is below
    the base error."""
    rel_tol = float(integral_rep["variance_rel_tol"])
    se_mult = float(integral_rep["covariance_se_mult"])
    by_name = {c["name"]: c for c in report["criteria"]}
    limits = {}
    for hv in map(float, integral_rep["hursts"]):
        for theta in map(float, integral_rep["variance_masses"]):
            limits[f"variance_H{hv}_theta{theta}"] = rel_tol
        limits[f"covariance_H{hv}"] = se_mult
        limits[f"refinement_H{hv}"] = None
    limits["half_case_covariance"] = se_mult
    for name, limit in limits.items():
        if name not in by_name:
            _fail(f"intrep criterion {name} is missing")
        stat = by_name[name]["statistic"]
        if limit is None:
            if not stat < by_name[name]["threshold"]:
                _fail(f"{name}: refined error {stat:.3g} is not below the base "
                      f"error {by_name[name]['threshold']:.3g}")
        elif not abs(stat) <= limit:
            _fail(f"{name}: statistic {stat:.4g} exceeds the configured tolerance {limit}")
