"""The benchmark tracer's targets and the sizes it records.

``perfbench/tracer.py`` wraps qwsearch functions by name in traced benchmark
runs only, so a renamed function would pass every other test and crash those
runs, and a count passed by another route would be recorded as None.  The
targets are resolved in this process; the sizes come from one traced
``perfbench/child.py`` run in a subprocess.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qwsearch.graphs import cartesian_power, path_graph, probabilistic_laplacian
from qwsearch.search import success_curve
from qwsearch.spectral import SecularSolver

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for module_name in tracer._CALLER_MODULES:
        importlib.import_module(module_name)
    for module_name, path, *_ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"
    assert tracer._n_of_result(cartesian_power(path_graph(0.5), 2)) == 16
    assert tracer._n_of_result(probabilistic_laplacian(path_graph(0.5))) == 4


def traced_search_sizes(tmp_path, command, config):
    """The recorded sizes of the search spans of one traced CLI run, by span kind."""
    run = tmp_path / command
    run.mkdir()
    (run / "config.json").write_text(json.dumps(config))
    trace = run / "trace.json"
    argv = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), str(run / "stamp"), str(trace),
        "--", command, "--config", str(run / "config.json"), "--out", str(run / "out"),
    ]
    env = os.environ | {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    sizes = {}
    for _, _, _, layer, kind, _, _, size in json.loads(trace.read_text())["spans"]:
        if layer == "search":
            sizes.setdefault(kind, []).append(size)
    return sizes


def test_traced_search_spans_carry_their_configured_counts(tmp_path):
    # the tracer sizes a scan span by its grid_points= keyword and an optimize
    # span by its t_points= keyword; a count passed by position would leave None
    lattice = {"graph.family": "path-power", "graph.d": 2}
    tables = lattice | {"graph.p": [0.4, 0.91], "sweep.gamma_points": 60, "sweep.t_points": 300}
    assert traced_search_sizes(tmp_path, "tables", tables) == {"scan": [60, 60], "optimize": [300, 300]}
    # optimize with no window scans the default 600-point grid for its gamma_E
    optimize = lattice | {"graph.p": 0.4, "sweep.gamma_points": 40, "sweep.t_points": 300}
    assert traced_search_sizes(tmp_path, "optimize", optimize) == {"scan": [600], "optimize": [300]}


def test_traced_curve_span_counts_its_times():
    # the tracer sizes a success_curve span by the length of its second
    # argument, the times of the curve drawn from one solve
    tracer = load_tracer()
    row = next(t for t in tracer.TARGETS if t[:2] == ("qwsearch.search", "success_curve"))
    module_name, path, layer, kind, size_in, size_out = row
    rec = tracer.Recorder()
    traced = rec.wrap(success_curve, f"{module_name}.{path}", layer, kind, size_in, size_out)
    spec = SecularSolver(cartesian_power(path_graph(0.4), 2)[1], 0).solve(1.0)
    times = np.linspace(0.0, 40.0, 300)
    assert np.array_equal(traced(spec, times), success_curve(spec, times))
    ((*_, size),) = rec.spans
    assert size == 300
