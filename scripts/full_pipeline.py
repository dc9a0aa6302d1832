#!/usr/bin/env python3
"""End-to-end pipeline on the demo config: simulate, project, recover the
measure, verify the integral representation, characterize, and aggregate.

Usage: python scripts/full_pipeline.py [config.json] [--quick]

--quick shrinks the field ensemble to 4000 samples so the whole pipeline
finishes in seconds (useful as a smoke test).  The moving-average checks keep
the config's own sample count, grid and tolerances under --quick: their draws
are exact in law and take about a second at the demo settings.
"""

import json
import sys
import tempfile
from pathlib import Path

from sifbm.cli import main

COMMANDS = ["simulate", "project", "recover-measure", "verify-intrep", "characterize", "report"]


def run(argv):
    config_path = Path(argv[1]) if len(argv) > 1 and not argv[1].startswith("-") else Path("configs/demo.json")
    quick = "--quick" in argv
    raw = json.loads(config_path.read_text())
    if quick:
        raw["n_samples"] = 4000
        raw["output_dir"] = raw.get("output_dir", "out/demo") + "_quick"
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(raw, fh)
            config_path = Path(fh.name)
    worst = 0
    for cmd in COMMANDS:
        code = main([cmd, "--config", str(config_path)])
        worst = max(worst, code)
        if code == 1:
            return code
    return worst


if __name__ == "__main__":
    sys.exit(run(sys.argv))
