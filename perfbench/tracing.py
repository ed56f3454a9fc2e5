"""Spans around the package's call sites, patched in from the outside.

A target is named by the module that defines it and the function's name.
Patching finds the function object there and replaces every module-level
binding of that same object, in every ``wnnm`` module and in numpy.linalg.
That covers the names bound at import (``solver`` binds ``svd``,
``reconstruct`` and ``objective_full``; ``denoise`` binds ``wnnm_solve``;
``cli`` binds ``denoise`` and the solvers), and it looks modules up in
``sys.modules`` because the package attribute ``wnnm.denoise`` is the
function, not the module. A target that a refactor removes is skipped and
reports zero calls; observers that no longer fit their function are dropped,
so the benchmark keeps running.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans kept in memory as (name, start, end, parent index); the parent
    of a root span is -1. Observers add to named sums beside the spans."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self.sums: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [n, total]

    def call(self, name: str, fn, args=(), kwargs=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def add(self, name: str, value: float) -> None:
        entry = self.sums[name]
        entry[0] += 1
        entry[1] += value

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    pass  # the call site changed shape; the span still counts
            return result

        return traced

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds, total seconds]; a span's self time is
        its duration minus the durations of its children."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, children):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - covered
            entry[2] += end - start
        return totals


def _file_size(key):
    def observe(tracer, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.add(key, os.path.getsize(path))

    return observe


def _pooled_fraction(tracer, args, kwargs, result):
    # 1 - blocks/n, with blocks the runs of equal values in the returned d.
    d = np.asarray(result.d)
    if d.size:
        tracer.add("diag.pava_solve.pooled_frac", 1.0 - (1 + np.count_nonzero(np.diff(d))) / d.size)


# span name -> (defining module, function name, observer)
TARGETS = {
    "cli.read_matrix_csv": ("wnnm.cli", "read_matrix_csv", _file_size("cli.csv_bytes_read")),
    "cli.write_matrix_csv": ("wnnm.cli", "write_matrix_csv", _file_size("cli.csv_bytes_written")),
    "pgm.read_pgm": ("wnnm.pgm", "read_pgm", None),
    "pgm.write_pgm": ("wnnm.pgm", "write_pgm", None),
    "denoise.denoise": ("wnnm.denoise", "denoise", None),
    "denoise.extract_group": ("wnnm.denoise", "extract_group", None),
    "denoise.group_weights": ("wnnm.denoise", "group_weights", None),
    "solver.wnnm_solve": ("wnnm.solver", "wnnm_solve", None),
    "solver.nnm_solve": ("wnnm.solver", "nnm_solve", None),
    "solver.objective_full": ("wnnm.solver", "objective_full", None),
    "linalg.svd": ("wnnm.linalg", "svd", None),
    "linalg.reconstruct": ("wnnm.linalg", "reconstruct", None),
    "diag.closed_form": ("wnnm.diag", "closed_form", None),
    "diag.pava_solve": ("wnnm.diag", "pava_solve", _pooled_fraction),
    # Every LAPACK SVD through numpy, whoever calls it.
    "numpy.linalg.svd": ("numpy.linalg", "svd", None),
}

_SCANNED = ("numpy.linalg", "numpy.linalg._linalg")


class Patch:
    """Every module-level binding of each target, with its original and its
    wrapper; ``apply`` installs the wrappers and ``remove`` the originals."""

    def __init__(self, tracer: Tracer):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "wnnm" or name.startswith("wnnm.") or name in _SCANNED]
        self.bindings = []
        for span, (home, attr, observe) in TARGETS.items():
            original = getattr(sys.modules.get(home), attr, None)
            if not callable(original):
                continue
            wrapper = tracer.wrap(span, original, observe)
            for module in modules:
                self.bindings += [(module, key, original, wrapper)
                                  for key, value in vars(module).items() if value is original]

    def apply(self) -> None:
        for module, key, _, wrapper in self.bindings:
            setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, original, _ in self.bindings:
            setattr(module, key, original)
