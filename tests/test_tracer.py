"""The benchmark tracer's targets, checked without installing the tracer.

``perfbench/tracer.py`` wraps qwsearch functions by name in traced benchmark
runs only, so a renamed function would pass every other test and crash those
runs.
"""

import importlib
import importlib.util
from pathlib import Path

from qwsearch.graphs import cartesian_power, path_graph, probabilistic_laplacian

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
