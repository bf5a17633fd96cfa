"""In-process span recorder for one traced qwsearch run.

``install()`` wraps the public functions of every qwsearch layer, plus the
two LAPACK entry points the spectral layer calls, and rebinds each wrapper on
every module attribute that held the original, so calls through names
imported with ``from x import y`` are traced too.  Spans stay in memory and
are written once, by ``Recorder.dump``, when the run ends.

A span is (id, parent id, name, layer, kind, start, end, size): times are
``time.perf_counter`` seconds, and size is the one number a layer's counters
need (matrix order for solves and Laplacians, grid length for scans and
curves).  Work that a search function hands to its thread pool is linked to
the span that submitted it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


def _n_of_result(result):
    # cartesian_power returns (graph, laplacian, measure); the others a Laplacian
    lap = result[1] if isinstance(result, tuple) else result
    return lap.matrix.shape[0]


def _n_of_matrix(args, kwargs):
    return args[0].shape[0]


def _kw(name):
    return lambda args, kwargs: kwargs.get(name)


def _curve_size(args, kwargs):
    return len(args[1])


# (module, attribute path, layer, kind, size from (args, kwargs), size from result)
TARGETS = [
    ("qwsearch.graphs", "path_graph", "graphs", "build", None, None),
    ("qwsearch.graphs", "cartesian_power", "graphs", "build", None, _n_of_result),
    ("qwsearch.graphs", "probabilistic_laplacian", "graphs", "build", None, _n_of_result),
    ("qwsearch.graphs", "kolmogorov_measure", "graphs", "measure", None, None),
    ("qwsearch.graphs", "interior_measure_profile", "graphs", "measure", None, None),
    ("qwsearch.spectral", "symmetrize", "spectral", "symmetrize", None, None),
    ("qwsearch.spectral", "eigendecompose", "spectral", "decompose", None, None),
    ("qwsearch.spectral", "SpectralData.validate", "spectral", "validate", None, None),
    ("numpy.linalg", "eigh", "spectral", "full_solve", _n_of_matrix, None),
    ("scipy.linalg", "eigh", "spectral", "partial_solve", _n_of_matrix, None),
    ("qwsearch.search", "gamma_critical_points", "search", "scan", _kw("grid_points"), None),
    ("qwsearch.search", "find_gamma_critical", "search", "scan", _kw("grid_points"), None),
    ("qwsearch.search", "optimize_search", "search", "optimize", _kw("t_points"), None),
    ("qwsearch.search", "success_curve", "search", "curve", _curve_size, None),
    ("qwsearch.cli", "main", "cli", "main", None, None),
    ("qwsearch.cli", "compute_table_row", "cli", "row", None, None),
    ("qwsearch.cli", "export_matrix_csv", "cli", "emit", None, None),
    ("qwsearch.cli", "_write_csv", "cli", "emit", None, None),
    ("qwsearch.cli", "_write_json", "cli", "emit", None, None),
]

# Modules whose globals may hold a traced function under an imported name.
_CALLER_MODULES = ["qwsearch", "qwsearch.graphs", "qwsearch.spectral", "qwsearch.search", "qwsearch.cli"]


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn, name, layer, kind, size_in, size_out):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            size = size_in(args, kwargs) if size_in else None
            record = [span_id, parent, name, layer, kind, time.perf_counter(), None, size]
            try:
                result = fn(*args, **kwargs)
            finally:
                record[6] = time.perf_counter()
                stack.pop()
                self.spans.append(record)
            if size_out is not None:
                record[7] = size_out(result)
            return result

        return traced

    def linked(self, fn):
        """Run fn, from any thread, as a child of the span current at this call."""
        parent = self.current()

        def run(*args, **kwargs):
            stack = self._stack()
            saved = list(stack)
            stack[:] = [parent] if parent is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return run

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def install() -> Recorder:
    """Import qwsearch, wrap every target and rebind it wherever it is looked up."""
    import importlib
    from concurrent.futures import ThreadPoolExecutor

    rec = Recorder()
    callers = [importlib.import_module(m) for m in _CALLER_MODULES]
    for module_name, path, layer, kind, size_in, size_out in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        name = f"{module_name}.{path}"
        traced = rec.wrap(original, name, layer, kind, size_in, size_out)
        setattr(owner, attr, traced)
        for module in callers:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    class LinkedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.linked(fn), *args, **kwargs)

    search = importlib.import_module("qwsearch.search")
    search.ThreadPoolExecutor = LinkedPool
    return rec
