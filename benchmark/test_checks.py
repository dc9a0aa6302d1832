"""Self-tests of the benchmark's output checkers: each accepts a correct
output and rejects a deliberately corrupted one.

Run from the repository root:  python3 -m pytest -q benchmark/test_checks.py
"""

import csv
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

HURST = 0.3
CORNERS = np.array(
    [[0.0, 1.0], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [3.0, 1.5], [0.5, 3.0]]
)
INTREP = {
    "masses": [0.8, 1.0],
    "variance_masses": [0.25, 1.0],
    "hursts": [0.2, 0.35],
    "variance_rel_tol": 0.08,
    "covariance_se_mult": 4.0,
}


@pytest.fixture(scope="module")
def samples():
    """Exact draws of the field on CORNERS from an eigen-factor of the
    closed-form covariance (independent of the program's sampler)."""
    cov = checks.closed_form_covariance(CORNERS, HURST)
    w, v = np.linalg.eigh(cov)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    out = np.random.default_rng(2024).standard_normal((20000, len(CORNERS))) @ factor.T
    out[:, checks.box_measures(CORNERS) == 0.0] = 0.0
    return out


def test_closed_form_matches_definition():
    u, v = CORNERS[2], CORNERS[3]
    mu, mv, mi = np.prod(u), np.prod(v), np.prod(np.minimum(u, v))
    want = 0.5 * (mu**0.6 + mv**0.6 - (mu + mv - 2 * mi) ** 0.6)
    assert checks.closed_form_covariance(CORNERS, HURST)[2, 3] == pytest.approx(want, rel=1e-14)


def test_covariance_accepts_exact_and_rejects_scaled_column(samples):
    assert checks.check_covariance(samples, CORNERS, HURST) < checks.COVARIANCE_Z_MAX
    bad = samples.copy()
    bad[:, 4] *= 1.1
    with pytest.raises(CheckFailed, match="standard errors"):
        checks.check_covariance(bad, CORNERS, HURST)


def test_zero_column_made_nonzero_is_rejected(samples):
    checks.check_zero_columns(samples, CORNERS)
    bad = samples.copy()
    bad[123, 0] = 1e-300
    with pytest.raises(CheckFailed, match="measure 0"):
        checks.check_zero_columns(bad, CORNERS)


def _write_sifb(path, mat, rows=None):
    with open(path, "wb") as fh:
        fh.write(b"SIFB" + bytes([1]))
        fh.write(struct.pack("<QQ", rows or mat.shape[0], mat.shape[1]))
        fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


def test_sifb_layout(tmp_path, samples):
    path = tmp_path / "e.sifb"
    _write_sifb(path, samples)
    got = checks.read_sifb(path, *samples.shape)
    assert np.array_equal(got, samples)
    with pytest.raises(CheckFailed, match="expected"):
        checks.read_sifb(path, samples.shape[0] + 1, samples.shape[1])
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckFailed, match="payload"):
        checks.read_sifb(path, *samples.shape)
    path.write_bytes(b"SIFB")
    with pytest.raises(CheckFailed, match="header"):
        checks.read_sifb(path, *samples.shape)


def _write_csv(path, mat, corners):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(json.dumps(list(map(float, c))) for c in corners)
        for row in mat:
            w.writerow(repr(float(x)) for x in row)


def test_csv_must_equal_binary_bit_for_bit(tmp_path, samples):
    path = tmp_path / "e.csv"
    head = samples[:50]
    _write_csv(path, head, CORNERS)
    checks.check_csv_matches(path, head, CORNERS)
    bad = head.copy()
    bad[7, 3] = np.nextafter(bad[7, 3], np.inf)
    _write_csv(path, bad, CORNERS)
    with pytest.raises(CheckFailed, match="value"):
        checks.check_csv_matches(path, head, CORNERS)


def _profile(spec):
    grid, theta = checks.elementary_theta(spec)
    i, j = np.triu_indices(grid.size, k=1)
    return {
        "s": grid[i], "t": grid[j], "theta_s": theta[i], "theta_t": theta[j],
        "predicted": np.abs(theta[j] - theta[i]) ** (2 * HURST),
    }


@pytest.mark.parametrize("spec", [
    {"name": "line", "kind": "linear", "to": [3.0, 1.0], "points": 16},
    {"name": "curve", "kind": "power", "to": [2.0, 2.0], "exponents": [2.0, 1.0], "points": 16},
])
def test_elementary_profile(spec):
    profile = _profile(spec)
    checks.check_elementary_profile(profile, spec, HURST)
    profile["predicted"] = profile["predicted"].copy()
    profile["predicted"][5] *= 1 + 1e-9
    with pytest.raises(CheckFailed, match="predicted"):
        checks.check_elementary_profile(profile, spec, HURST)


def test_profile_reader(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("s,t,predicted\r\n0.0,0.5,0.25\r\n0.0,1.0,1.0\r\n")
    got = checks.read_profile(path)
    assert got["t"].tolist() == [0.5, 1.0] and got["predicted"][1] == 1.0


def _intrep_report():
    criteria = []
    for hv in INTREP["hursts"]:
        for theta in INTREP["variance_masses"]:
            criteria.append({"name": f"variance_H{hv}_theta{theta}", "statistic": 0.02,
                             "threshold": 0.08})
        criteria.append({"name": f"covariance_H{hv}", "statistic": 1.5, "threshold": 4.0})
        criteria.append({"name": f"refinement_H{hv}", "statistic": 0.01, "threshold": 0.02})
    criteria.append({"name": "half_case_covariance", "statistic": 0.3, "threshold": 4.0})
    return {"verdict": "pass", "criteria": criteria}


def test_intrep_statistic_over_tolerance_is_rejected():
    checks.check_intrep(_intrep_report(), INTREP)
    report = _intrep_report()
    report["criteria"][1]["statistic"] = 0.081
    with pytest.raises(CheckFailed, match="variance_H0.2_theta1.0"):
        checks.check_intrep(report, INTREP)
    report = _intrep_report()
    report["criteria"][3]["statistic"] = 0.03
    with pytest.raises(CheckFailed, match="refined error"):
        checks.check_intrep(report, INTREP)
    report = _intrep_report()
    del report["criteria"][-1]
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_intrep(report, INTREP)
