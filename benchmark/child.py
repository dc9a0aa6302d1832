"""One repetition of a workload, in a fresh interpreter.

Usage: python3 benchmark/child.py SPEC_JSON

SPEC_JSON names the checkout root, the config, the seed, the output
directory, the ``sifbm`` commands to run in order, ``jobs``, ``trace``, the
parent's monotonic clock reading just before it started this process
(``t_spawn``) and the file to write the result to.  The result holds the
interpreter's set-up time (start, ``import sifbm``, config load), each
command's exit code and wall time, and the process's peak RSS.  Set-up time
compares two CLOCK_MONOTONIC readings, which share one clock across
processes on Linux.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def run(spec: dict) -> dict:
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import sifbm
    import sifbm.cli
    import sifbm.config

    if not os.path.abspath(sifbm.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported sifbm from {sifbm.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    os.environ["SIFBM_OUT"] = spec["out"]
    sifbm.config.load_config(spec["config"], seed_override=spec["seed"])
    t_ready = time.monotonic()
    codes, times = [], []
    for command in spec["commands"]:
        argv = [command, "--config", spec["config"], "--seed", str(spec["seed"]),
                "--jobs", str(spec["jobs"])]
        start = time.perf_counter()
        with tracer.span("cli." + command) if tracer else contextlib.nullcontext():
            try:
                code = sifbm.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation; later commands still run
                traceback.print_exc()
                code = -1
        times.append(time.perf_counter() - start)
        codes.append(code)
    result = {
        "setup_s": t_ready - spec["t_spawn"],
        "codes": codes,
        "times": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    with open(spec["result"], "w") as fh:
        json.dump(run(spec), fh)
