#!/usr/bin/env python3
"""Golden output set: hash every file a fixed set of small CLI runs writes.

    python scripts/golden.py

Runs each subcommand (spectrum, tables, optimize and the four figure kinds)
on small d=2 path powers with p in {0.4, 0.91}, plus the complete graph on 8
vertices where the command accepts it, and one spectrum of the d=3 product (64
vertices) at p=0.91, through ``qwsearch.cli.main`` from the
``src/`` next to this script.  It prints one ``sha256  file`` line per output,
sorted by file name.  Two source trees produce the same outputs when their
listings are identical on the same machine.  BLAS runs on one thread, because
the thread count changes the last bits of the eigensolver's results.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# before numpy is first imported, through qwsearch
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qwsearch.cli import main as qwsearch_main  # noqa: E402

PATH = {"graph.family": "path-power", "graph.d": 2, "target.vertex": "corner"}
COMPLETE = {"graph.family": "complete", "graph.N": 8}
BOTH_P = {"graph.p": [0.4, 0.91]}

# (run name, CLI arguments before --config, config)
RUNS = [
    ("spectrum-p0.4", ["spectrum"], PATH | {"graph.p": 0.4, "spectrum.gamma_values": [0.5, 1.0]}),
    ("spectrum-p0.91", ["spectrum"], PATH | {"graph.p": 0.91}),
    ("spectrum-complete", ["spectrum"], COMPLETE | {"spectrum.gamma_values": [0.875, 2.0]}),
    ("spectrum-d3", ["spectrum"], PATH | {"graph.d": 3, "graph.p": 0.91}),
    ("tables", ["tables"], PATH | BOTH_P | {"sweep.gamma_points": 120, "sweep.t_points": 400}),
    ("tables-threads2", ["tables", "--threads", "2"],
     PATH | BOTH_P | {"sweep.gamma_points": 120, "sweep.t_points": 400}),
    ("tables-defaults", ["tables"], PATH | {"graph.p": 0.91, "output.format": "json"}),
    ("tables-missing-roots", ["tables"],
     PATH | {"graph.p": 0.4, "sweep.gamma_min": 0.05, "sweep.gamma_max": 0.1,
             "sweep.gamma_points": 20, "sweep.t_points": 200}),
    ("optimize-p0.4", ["optimize"],
     PATH | {"graph.p": 0.4, "sweep.gamma_points": 40, "sweep.t_points": 400, "output.format": "json"}),
    ("optimize-p0.91", ["optimize"],
     PATH | {"graph.p": 0.91, "sweep.gamma_min": 0.8, "sweep.gamma_max": 1.3,
             "sweep.gamma_points": 40, "sweep.t_points": 400}),
    ("optimize-complete", ["optimize"], COMPLETE | {"output.format": "json"}),
    ("figures-overlaps", ["figures", "--figure", "overlaps"], PATH | BOTH_P | {"sweep.gamma_points": 120}),
    ("figures-contour", ["figures", "--figure", "contour"],
     PATH | BOTH_P | {"sweep.gamma_points": 30, "sweep.t_points": 100}),
    ("figures-timeseries", ["figures", "--figure", "timeseries"],
     PATH | BOTH_P | {"sweep.gamma_points": 120, "sweep.t_points": 400}),
    ("figures-volume", ["figures", "--figure", "volume"], PATH | {"graph.p": 0.5, "volume.p_points": 13}),
]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qwsearch-golden-") as tmp:
        root = Path(tmp)
        for name, command, config in RUNS:
            out = root / name
            cfg_path = root / f"{name}.json"
            cfg_path.write_text(json.dumps(config | {"output.path": str(out)}))
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = qwsearch_main([*command, "--config", str(cfg_path)])
            if code != 0:
                print(f"error: {name} exited {code}: {err.getvalue()}", file=sys.stderr)
                return 1
        for path in sorted(p for p in root.rglob("*") if p.is_file() and p.parent != root):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
