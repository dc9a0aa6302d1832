"""Span and counter recording around the calls into each ``sifbm`` layer.

The recorder wraps library functions from outside the program: every module
attribute (and the class attribute, for methods) that refers to a target
function is replaced by a wrapper, so ``from .x import f`` references in other
modules are traced too.  Spanned functions record (name, start, end, parent);
hot scalar functions are only counted.  A target that no longer exists is
recorded as absent and the run goes on without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter

# Spanned layer functions: metric name -> (module, attribute path).
SPANNED = {
    "config.load": ("sifbm.config", "load_config"),
    "gaussian.build_cov_matrix": ("sifbm.gaussian", "build_cov_matrix"),
    "gaussian.cholesky": ("sifbm.gaussian", "cholesky"),
    "gaussian.sample_ensemble": ("sifbm.gaussian", "sample_ensemble"),
    "gaussian.additive_extend": ("sifbm.gaussian", "additive_extend"),
    "storage.write_ensemble_csv": ("sifbm.storage", "write_ensemble_csv"),
    "storage.write_ensemble_binary": ("sifbm.storage", "write_ensemble_binary"),
    "storage.load_ensemble": ("sifbm.storage", "load_ensemble"),
    "storage.write_profile_csv": ("sifbm.storage", "write_profile_csv"),
    "storage.write_json": ("sifbm.storage", "write_json"),
    "flows.project": ("sifbm.flows", "project"),
    "flows.time_change": ("sifbm.flows", "time_change"),
    "flows.predicted_increment_moment": ("sifbm.flows", "predicted_increment_moment"),
    "stats.variance_profile": ("sifbm.stats", "variance_profile"),
    "stats.hurst_estimate": ("sifbm.stats", "hurst_estimate"),
    "stats.gaussianity_check": ("sifbm.stats", "gaussianity_check"),
    "intrep.simulate_via_integral": ("sifbm.intrep", "simulate_via_integral"),
    "intrep.half_case_simulate": ("sifbm.intrep", "half_case_simulate"),
    "intrep.discretized_covariance": ("sifbm.intrep", "discretized_covariance"),
    "intrep.normalization_const": ("sifbm.intrep", "normalization_const"),
}

# Hot scalar functions: counted per call, never spanned.
COUNTED = {
    "rects.rect_intersection": ("sifbm.rects", "rect_intersection"),
    "rects.union_measure": ("sifbm.rects", "union_measure"),
    "intrep.build_kernel_grid": ("sifbm.intrep", "build_kernel_grid"),
}

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _bytes_written(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    tracer.add("storage.bytes_written", os.path.getsize(path))


def _rows_sampled(tracer, args, kwargs, result):
    tracer.add("gaussian.rows_sampled", _arg(args, kwargs, 1, "n_samples"))


def _profile_pairs(tracer, args, kwargs, result):
    tracer.add("stats.profile_pairs", len(result.rows))


def _kernel_cells(tracer, args, kwargs, result):
    if tracer.current() == "intrep.simulate_via_integral":
        tracer.last_grid_cells = result.n_cells


def _integral_draws(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 2, "n_samples")
    tracer.add("intrep.paths_drawn", n)
    tracer.add("intrep.grid_cells", n * tracer.last_grid_cells)
    tracer.last_grid_cells = 0


def _half_case_draws(tracer, args, kwargs, result):
    tracer.add("intrep.paths_drawn", _arg(args, kwargs, 2, "n_samples"))


HOOKS = {
    "storage.write_ensemble_csv": _bytes_written,
    "storage.write_ensemble_binary": _bytes_written,
    "storage.write_profile_csv": _bytes_written,
    "storage.write_json": _bytes_written,
    "gaussian.sample_ensemble": _rows_sampled,
    "stats.variance_profile": _profile_pairs,
    "intrep.build_kernel_grid": _kernel_cells,
    "intrep.simulate_via_integral": _integral_draws,
    "intrep.half_case_simulate": _half_case_draws,
}


class Tracer:
    """In-memory spans and counters for one process, written out at its end."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.last_grid_cells = 0

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def add(self, name: str, amount=1):
        self.counts[name] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; record the ones that cannot be found."""
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, (module, path) in table.items():
                try:
                    owner = importlib.import_module(module)
                    *outer, leaf = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    raw = vars(owner)[leaf]
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, leaf, classmethod(make(name, raw.__func__)))
                    continue
                wrapped = make(name, raw)
                setattr(owner, leaf, wrapped)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("sifbm."):
                        for attr, value in list(vars(mod).items()):
                            if value is raw:
                                setattr(mod, attr, wrapped)

    def summary(self) -> dict:
        """Per-name self time, per-command inclusive time and how much of
        each command the spans directly under it cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        command_s: Counter = Counter()
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            if name.startswith("cli."):
                command_s[name] += end - start
                covered += child_time[i]
            else:
                self_s[name] += end - start - child_time[i]
        counts = Counter(span[0] for span in self.spans)
        counts.update(self.counts)
        return {
            "self_s": dict(self_s),
            "command_s": dict(command_s),
            "covered_s": covered,
            "counts": dict(counts),
            "absent": list(self.absent),
        }

