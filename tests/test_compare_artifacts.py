"""``scripts/compare_artifacts.py`` on two small output directories."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from sifbm.storage import write_ensemble_binary

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_artifacts", ROOT / "scripts" / "compare_artifacts.py")
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)

REPORT = {
    "verdict": "pass",
    "criteria": [
        {"name": "extension", "passed": True, "statistic": 0.25, "detail": "worst residual is 0"},
        {"name": "gaussianity", "passed": True, "statistic": 1.5, "detail": "worst moment z"},
    ],
}


def write_pair(tmp_path, change, name="characterization.json"):
    """BASE and CHANGE output directories: BASE holds ``REPORT`` and CHANGE
    holds ``change(REPORT)``, both under ``name``."""
    dirs = [tmp_path / side for side in ("base", "change")]
    for d, report in zip(dirs, (REPORT, change(json.loads(json.dumps(REPORT))))):
        d.mkdir()
        (d / name).write_text(json.dumps(report, indent=2, sort_keys=True))
    return dirs


def edit(**where):
    """A change setting ``criteria[0]``'s keys to the values given."""
    def change(report):
        report["criteria"][0].update(where)
        return report
    return change


def test_equal_directories_show_nothing(tmp_path):
    assert compare_artifacts.compare(*write_pair(tmp_path, lambda r: r)) == []


def test_changed_text_is_printed_with_both_values(tmp_path):
    (line,) = compare_artifacts.compare(
        *write_pair(tmp_path, edit(detail="worst residual (Rect((1.0,)))", statistic=0.25 * (1 + 2**-50)))
    )
    # the statistic moves by 2.2e-16, below 1e-12 of the file's largest |number|
    assert line.startswith("characterization.json: bytes differ (largest relative difference of numbers 0; "
                           "1 number(s) move by at most 1.5e-12 (1e-12 of the largest |number|), "
                           "first at criteria[0].statistic: 0.25 in BASE, 0.2500000000000002 in CHANGE;")
    assert ("first text difference at criteria[0].detail: 'worst residual is 0' in BASE, "
            "'worst residual (Rect((1.0,)))' in CHANGE") in line
    assert line.endswith("; no passed, verdict or overall value differs)")


def test_move_to_zero_does_not_hide_the_round_off_gap(tmp_path):
    def change(report):
        report["criteria"][0]["statistic"] = 0.25 * (1 + 2**-50)
        report["criteria"][1]["statistic"] = 0.0
        return report

    (line,) = compare_artifacts.compare(*write_pair(tmp_path, change))
    assert "1 number(s) move to or from 0, first at criteria[1].statistic: 1.5 in BASE, 0.0 in CHANGE;" in line
    assert "1 number(s) move by at most 1.5e-12 (1e-12 of the largest |number|), first at criteria[0].statistic:" in line


def test_round_off_move_does_not_hide_a_real_one(tmp_path):
    # a round-off statistic doubling (relative difference 0.5) beside a psi
    # value moving by 2.2e-11 relative: the psi move is ranked, the
    # statistic counted apart, and the file still listed, so the script exits 1
    def change(report):
        report["criteria"][0]["statistic"] = 1.8e-15
        report["psi"] = 64.0 * (1 + 2.2e-11)
        return report

    base = {**REPORT, "psi": 64.0}
    base["criteria"] = [{**REPORT["criteria"][0], "statistic": 8.9e-16}, REPORT["criteria"][1]]
    dirs = [tmp_path / side for side in ("base", "change")]
    for d, report in zip(dirs, (base, change(json.loads(json.dumps(base))))):
        d.mkdir()
        (d / "recovery.json").write_text(json.dumps(report, sort_keys=True))
    (line,) = compare_artifacts.compare(*dirs)
    assert line.startswith("recovery.json: bytes differ (largest relative difference of numbers 2.2e-11 at psi; ")
    assert "1 number(s) move by at most 6.4e-11 (1e-12 of the largest |number|), first at criteria[0].statistic:" in line


def test_flipped_verdict_is_named(tmp_path):
    def flip(report):
        report["criteria"][0]["passed"] = False
        report["verdict"] = "fail"
        return report

    (line,) = compare_artifacts.compare(*write_pair(tmp_path, flip))
    assert "first text difference at criteria[0].passed: 'true' in BASE, 'false' in CHANGE" in line
    assert line.endswith("; a verdict differs at criteria[0].passed)")


def test_added_field_is_a_text_difference(tmp_path):
    (line,) = compare_artifacts.compare(*write_pair(tmp_path, edit(threshold=3.0)))
    assert "first text difference at criteria[0].threshold: '<absent>' in BASE, 3.0 in CHANGE" in line
    assert "largest relative difference of numbers 0" in line


def test_summary_overall_flip(tmp_path):
    (line,) = compare_artifacts.compare(
        *write_pair(tmp_path, lambda r: {**r, "overall": "fail"}, name="summary.json")
    )
    assert line.endswith("; a verdict differs at overall)")


def test_manifests_compare_without_wall_time(tmp_path):
    base, change = write_pair(tmp_path, lambda r: r)
    for d, wall, seed in ((base, 0.5, 7), (change, 0.9, 7)):
        (d / "manifest_characterize.json").write_text(json.dumps({"seed": seed, "wall_time_s": wall}))
    assert compare_artifacts.compare(base, change) == []
    (change / "manifest_characterize.json").write_text(json.dumps({"seed": 8, "wall_time_s": 0.9}))
    assert compare_artifacts.compare(base, change) == [
        "manifest_characterize.json: manifests differ beyond wall_time_s"
    ]


def test_ensemble_difference_is_located(tmp_path):
    dirs = [tmp_path / side for side in ("base", "change")]
    x = np.arange(12.0).reshape(4, 3)
    for d, data in zip(dirs, (x, x + np.where(np.arange(12).reshape(4, 3) == 7, 2.5e-10, 0.0))):
        d.mkdir()
        write_ensemble_binary([data], d / "ensemble.sifb", data.shape)
    (line,) = compare_artifacts.compare(*dirs)
    assert line == "ensemble.sifb: bytes differ (largest absolute difference of samples 2.5e-10 at row 2 column 1)"
    write_ensemble_binary([x[:3]], dirs[1] / "ensemble.sifb", (3, 3))
    (line,) = compare_artifacts.compare(*dirs)
    assert line == "ensemble.sifb: bytes differ (headers or sizes differ)"
