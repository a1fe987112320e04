"""Spans around fspt's public functions, installed from outside the package.

The tracer replaces each listed function by a wrapper at every place a
module binds it by name (its home module, the fspt modules and package that
imported it, and the benchmark's own modules), so ``src/fspt`` stays
untouched.  Spans carry a name, start,
end and parent; they are kept in memory and written when the run ends.
A span's self time is its duration minus the time its child spans cover.

``phase`` and ``rep`` helpers are per-scalar or per-pair; wrapping them
would distort the timing, so their time counts toward their callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _svd_work_rows(rows, *args, **kwargs):
    """m*n*min(m, n) for the economy SVD that ``onb_rows`` runs."""
    shape = getattr(rows, "shape", None)
    if shape is None or len(shape) != 2:
        return {}
    m, n = shape
    return {"linalg.svd_work": m * n * min(m, n)}


def _svd_work_nullspace(stacked, *args, **kwargs):
    """``nullspace_rows`` pads to at least n rows, so it factors max(m, n) x n."""
    shape = getattr(stacked, "shape", None)
    if shape is None or len(shape) != 2:
        return {}
    m, n = shape
    return {"linalg.svd_work": max(m, n) * n * n}


def _congruence_entries(a, *args, **kwargs):
    rows = len(a)
    return {"smith.matrix_entries": rows * (len(a[0]) if rows else 0)}


def _rho_bytes(mps, l, *args, **kwargs):
    dim = (1 << mps.d) ** (l + 1)
    return {"fmps.rho_bytes": dim * dim * 16}


# (module, function, work counter) in layer order; the layer is the module name
LAYERS = [
    ("system", "compute_index", None),
    ("system", "classify", None),
    ("system", "stack_systems", None),
    ("system", "system_from_generators", None),
    ("algebra", "algebra_closure", None),
    ("algebra", "graded_split", None),
    ("algebra", "center_within", None),
    ("algebra", "grading_implementer", None),
    ("algebra", "find_odd_selfadjoint_unitary", None),
    ("linalg", "onb_rows", _svd_work_rows),
    ("linalg", "nullspace_rows", _svd_work_nullspace),
    ("linalg", "residual_norms", None),
    ("invariant", "stack_index", None),
    ("invariant", "index_equal", None),
    ("cocycle", "validate_cocycle", None),
    ("cocycle", "cohomologous", None),
    ("cocycle", "cocycle_product", None),
    ("cocycle", "coboundary", None),
    ("cocycle", "cocycle_of_rep", None),
    ("cocycle", "snap_cocycle", None),
    ("smith", "solve_congruence", _congruence_entries),
    ("group", "validate_group", None),
    ("group", "all_z2_homs", None),
    ("fmps", "density_matrix", _rho_bytes),
    ("fmps", "expectation", None),
    ("fmps", "check_symmetry", None),
    ("fmps", "fmps_index", None),
    ("fmps", "transfer_fixed_point", None),
    ("fmps", "even_mps", None),
    ("fmps", "odd_mps", None),
    ("fock", "second_quantize", None),
    ("serialize", "system_from_json", None),
    ("serialize", "cocycle_from_json", None),
    ("serialize", "mps_from_json", None),
    ("serialize", "index_to_json", None),
    ("serialize", "matrix_to_json", None),
]

WORK_COUNTERS = ["linalg.svd_work", "smith.matrix_entries", "fmps.rho_bytes"]
SPAN_NAMES = [f"{module}.{func}" for module, func, _ in LAYERS]
ROOT = "op"  # one root span per benchmark operation


class Tracer:
    """In-memory span recorder; recording happens only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.work: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self.current()])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if work is not None:
                self.work.update(work(*args, **kwargs))
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every module that binds it by name.

        That covers its home module, the fspt modules that imported it, the
        package namespace, and the benchmark's own modules.
        """
        wrappers = {}
        for module, func, work in LAYERS:
            original = getattr(importlib.import_module(f"fspt.{module}"), func)
            wrappers[id(original)] = (original, self.wrap(f"{module}.{func}", original, work))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.work)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "work": dict(self.work)}, fh)

    def adopt(self, path, parent: int) -> None:
        """Append spans written by a child process under a span of ours.

        perf_counter is CLOCK_MONOTONIC on Linux, so child times line up.
        """
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for name, start, end, par in data["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else par + offset])
        self.work.update(data["work"])


def self_times(spans, start: int = 0, stop: int | None = None) -> tuple[dict, dict]:
    """Per-name total self time and call count over spans[start:stop].

    Children always follow their parent in the list, so one pass suffices.
    """
    stop = len(spans) if stop is None else stop
    child_time = defaultdict(float)
    for i in range(start, stop):
        _, t0, t1, parent = spans[i]
        if parent >= start:
            child_time[parent] += t1 - t0
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    for i in range(start, stop):
        name, t0, t1, _ = spans[i]
        self_s[name] += (t1 - t0) - child_time[i]
        calls[name] += 1
    return dict(self_s), dict(calls)
