"""``scripts/bench.py`` with ``run_workload`` and ``run_tier1`` stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = {
    "run_seconds": 5,
    "workloads": [{"name": "a"}, {"name": "b"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}
# each side's value of each metric in pairs 0..3, at seeds 7..10
VALUES = {
    ("parent", "a"): {"wall_s": [1.0, 1.2, 1.1, 1.3], "rate": [10.0] * 4},
    ("change", "a"): {"wall_s": [0.9, 1.2, 1.0, 1.4], "rate": [12.0] * 4},
    ("parent", "b"): {"wall_s": [1.0] * 4, "rate": [5.0] * 4},
    ("change", "b"): {"wall_s": [2.0] * 4, "rate": [5.0] * 4},
}


@pytest.fixture
def stubbed(tmp_path, monkeypatch):
    """Two checkouts, ``parent`` and ``change``, and the list the stubbed
    ``run_workload`` appends each call's (side, workload, seed) to."""
    calls = []

    def run_workload(root, name, seed, seconds):
        assert seconds == SPEC["run_seconds"]
        calls.append((root.name, name, seed))
        values = VALUES[root.name, name]
        return {"correct": True, "attempted": 3, "failed": int(root.name == "change"),
                "metrics": {m: {"value": v[seed - 7], "unit": "-"} for m, v in values.items()}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(bench, "HERE", tmp_path)
    monkeypatch.setattr(bench, "run_workload", run_workload)
    monkeypatch.setattr(bench, "run_tier1", lambda root: {"exit_code": 0, "summary": "1 passed"})
    return tmp_path, calls


def test_pairs_alternate_and_summarize(stubbed):
    tmp_path, calls = stubbed
    argv = ["--root", str(tmp_path / "change"), "--against", str(tmp_path / "parent"),
            "--pairs", "4", "--seed", "7", "--label", "t"]
    assert bench.main(argv) == 0
    # pair i at seed 7 + i on both sides, the parent first on odd pairs
    first = {0: "change", 1: "parent", 2: "change", 3: "parent"}
    want = []
    for i, lead in first.items():
        other = "parent" if lead == "change" else "change"
        for name in ("a", "b"):
            want += [(lead, name, 7 + i), (other, name, 7 + i)]
    assert calls == want
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["against"]["label"] == "parent" and record["pairs"] == 4
    assert [(r["side"], r["workload"], r["seed"], r["first"]) for r in record["runs"]] == [
        (side, name, seed, side == first[seed - 7]) for side, name, seed in want
    ]
    a, b = record["summary"]["a"], record["summary"]["b"]
    assert a["attempted"] == {"parent": 12, "change": 12} and a["failed"] == {"parent": 0, "change": 4}
    # pair 1 is a tie; statistics.quantiles' quartiles of four values
    wall = a["wall_s"]
    assert (wall["wins"], wall["losses"]) == (2, 1)
    assert wall["parent"] == pytest.approx({"q1": 1.025, "median": 1.15, "q3": 1.275})
    assert wall["change"] == pytest.approx({"q1": 0.925, "median": 1.1, "q3": 1.35})
    assert wall["shift"] == pytest.approx(-0.05 / 1.15)
    assert wall["spread"] == pytest.approx(0.425 / 1.1)
    # better in the median, but neither by 9 of 10 pairs nor beyond the
    # parent's quartiles, and spread wider than the bound
    assert (wall["gain"], wall["verdict"]) == (False, "unresolved")
    # higher is better: every pair won, by more than the parent's spread of 0
    rate = a["rate"]
    assert (rate["wins"], rate["gain"], rate["verdict"]) == (4, True, "holds")
    assert rate["shift"] == pytest.approx(-0.2)
    assert (b["wall_s"]["losses"], b["wall_s"]["shift"], b["wall_s"]["verdict"]) == (4, 1.0, "worse")
    # every pair tied
    assert (b["rate"]["wins"], b["rate"]["losses"], b["rate"]["verdict"]) == (0, 0, "holds")


def test_without_against_records_one_run_each(stubbed):
    tmp_path, calls = stubbed
    assert bench.main(["--root", str(tmp_path / "change"), "--label", "t"]) == 0
    assert calls == [("change", "a", 7), ("change", "b", 7)]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(record) == {"label", "commit", "dirty", "benchmark", "workloads", "tier1", "src_lines",
                           "src_module_lines", "host"}
    assert record["workloads"]["a"]["metrics"]["wall_s"]["value"] == 0.9
