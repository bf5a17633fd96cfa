#!/usr/bin/env python3
"""Golden output set: hash every file a fixed set of small CLI runs writes.

    python scripts/golden.py                  # print the listing
    python scripts/golden.py --keep DIR       # ... and keep the outputs in DIR
    python scripts/golden.py --diff OLD NEW   # compare two kept output sets

Runs each subcommand (spectrum, tables, optimize and the four figure kinds)
on small d=2 path powers with p in {0.4, 0.91}, plus the complete graph on 8
vertices where the command accepts it, one spectrum of the d=3 product (64
vertices) at p=0.91, one of the d=5 product (1024 vertices, a 1M-cell
``laplacian.csv``) at p=0.5 as in the benchmark's spectrum-d5 workload, and
one of the d=6 product (4,096 vertices, the largest the cap allows, a
16.8M-cell ``laplacian.csv``) at p=0.5.  It runs ``tables`` on the d=4
product (256 vertices) with p in {0.91, 0.4} on the benchmark's tables-d4
grid (60 scan points, 500 time points), one ``tables`` row of the d=6
product at p=0.91 on the same grid, and one ``tables`` run of the d=3
product at the interior target 21, axis coordinates (1, 1, 1), where every
other run targets the corner (0, 0, ...).  Each run goes through
``qwsearch.cli.main`` from the ``src/`` next to this script.  It prints one
``sha256  file`` line per output, sorted by file name.  Two source trees produce the same outputs when their
listings are identical on the same machine.  BLAS runs on one thread, because
the thread count could change the last bits of a dense eigensolver's results;
only ``tables-threads2`` runs in a child process with BLAS on two threads, so
its ``tables.csv`` equals that of ``tables`` only while the outputs do not
depend on the BLAS thread count.  Every warning is an error, in this process
and in the child, so a numpy warning in any run stops the listing.

Every output must hold finite numbers only: the listing stops, naming the
file, at a CSV cell that parses as a number but is not finite, or at a NaN or
Infinity in a JSON output.

Where listings differ, keep both output sets and run ``--diff``: for each file
whose bytes changed it prints the largest absolute and relative difference of
every numeric column (CSV) or key (JSON) that moved.
"""

import argparse
import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parents[1] / "src"
# before numpy is first imported, through qwsearch
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
warnings.simplefilter("error")
sys.path.insert(0, str(SRC))

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
    ("spectrum-d5", ["spectrum"], PATH | {"graph.d": 5, "graph.p": 0.5, "spectrum.gamma_values": [1.0]}),
    ("spectrum-d6", ["spectrum"], PATH | {"graph.d": 6, "graph.p": 0.5, "spectrum.gamma_values": [1.0]}),
    ("tables", ["tables"], PATH | BOTH_P | {"sweep.gamma_points": 120, "sweep.t_points": 400}),
    ("tables-threads2", ["tables", "--threads", "2"],
     PATH | BOTH_P | {"sweep.gamma_points": 120, "sweep.t_points": 400}),
    ("tables-defaults", ["tables"], PATH | {"graph.p": 0.91, "output.format": "json"}),
    ("tables-d4", ["tables"],
     PATH | {"graph.d": 4, "graph.p": [0.91, 0.4], "sweep.gamma_points": 60, "sweep.t_points": 500}),
    ("tables-d6", ["tables"],
     PATH | {"graph.d": 6, "graph.p": 0.91, "sweep.gamma_points": 60, "sweep.t_points": 500}),
    ("tables-target", ["tables"],
     PATH | {"graph.d": 3, "graph.p": [0.4, 0.91], "target.vertex": 21,
             "sweep.gamma_points": 60, "sweep.t_points": 300}),
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
# runs made in a child process, with this many BLAS threads
CHILD_BLAS_THREADS = {"tables-threads2": 2}


def write_outputs(root: Path) -> int:
    """Run every golden config, writing each run's outputs under root/<run name>."""
    for name, command, config in RUNS:
        out = root / name
        cfg_path = root / f"{name}.json"
        cfg_path.write_text(json.dumps(config | {"output.path": str(out)}))
        argv = [*command, "--config", str(cfg_path)]
        if name in CHILD_BLAS_THREADS:
            blas = dict.fromkeys(BLAS_THREAD_VARS, str(CHILD_BLAS_THREADS[name]))
            env = os.environ | {"PYTHONPATH": str(SRC)} | blas
            child = subprocess.run(
                [sys.executable, "-W", "error", "-m", "qwsearch.cli", *argv], env=env, capture_output=True, text=True
            )
            code, err = child.returncode, child.stderr
        else:
            with contextlib.redirect_stderr(io.StringIO()) as stderr:
                code = qwsearch_main(argv)
            err = stderr.getvalue()
        if code != 0:
            print(f"error: {name} exited {code}: {err}", file=sys.stderr)
            return 1
    return 0


def outputs(root: Path) -> list[Path]:
    # the run configs sit directly in root; every output is one level down
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.parent != root)


def _columns(path: Path) -> dict[str, list]:
    """Column name -> cells of a CSV (headerless ones get col0, col1, ...) or key -> value of a JSON."""
    if path.suffix == ".json":
        flat: dict[str, list] = {}

        def walk(prefix: str, node) -> None:
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(f"{prefix}.{key}" if prefix else key, value)
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(f"{prefix}[{i}]", value)
            else:
                flat[prefix] = [node]

        walk("", json.loads(path.read_text()))
        return flat
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    try:
        [float(v) for v in rows[0]]
        header = [f"col{i}" for i in range(len(rows[0]))]
    except ValueError:
        header, rows = rows[0], rows[1:]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _number(cell) -> float | None:
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _nonfinite(cell) -> bool:
    x = _number(cell)
    return x is not None and not math.isfinite(x)


def nonfinite_cells(path: Path) -> int:
    """Count the cells of an output (CSV cells or JSON values) that are numbers but not finite.

    A CSV is read a row at a time and each distinct cell text is parsed once,
    so the 16.8M cells of spectrum-d6's laplacian.csv are never held at once.
    """
    if path.suffix == ".json":
        return sum(_nonfinite(x) for cells in _columns(path).values() for x in cells)
    counts = collections.Counter()
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            counts.update(row)
    return sum(count for text, count in counts.items() if _nonfinite(text))


def diff(old_root: Path, new_root: Path) -> int:
    """Print, per changed file, the largest absolute and relative move of each moved column."""
    old_files, new_files = set(outputs(old_root)), set(outputs(new_root))
    for rel in sorted(old_files ^ new_files):
        print(f"{rel.as_posix()}: only in {old_root if rel in old_files else new_root}")
    changed = 0
    for rel in sorted(old_files & new_files):
        old_path, new_path = old_root / rel, new_root / rel
        if old_path.read_bytes() == new_path.read_bytes():
            continue
        changed += 1
        print(rel.as_posix())
        old_cols, new_cols = _columns(old_path), _columns(new_path)
        for name in [*old_cols, *(k for k in new_cols if k not in old_cols)]:
            old, new = old_cols.get(name), new_cols.get(name)
            if old is None or new is None or len(old) != len(new):
                print(f"  {name}: missing or of another length")
                continue
            worst_abs = worst_rel = 0.0
            for a, b in zip(old, new):
                x, y = _number(a), _number(b)
                if x is None or y is None:
                    if a != b:
                        print(f"  {name}: non-numeric cell {a!r} -> {b!r}")
                        break
                    continue
                if x == y or (x != x and y != y):
                    continue
                gap = abs(x - y)
                worst_abs = max(worst_abs, gap)
                worst_rel = max(worst_rel, gap / max(abs(x), abs(y)))
            if worst_abs > 0.0:
                print(f"  {name}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
    print(f"{changed} file(s) differ, {len(old_files ^ new_files)} present on one side only")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--keep", type=Path, metavar="DIR", help="write the outputs into DIR (new or empty) and keep them")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"), help="compare two kept output sets")
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    with contextlib.ExitStack() as stack:
        if args.keep is None:
            root = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="qwsearch-golden-")))
        else:
            root = args.keep
            root.mkdir(parents=True, exist_ok=True)
            if any(root.iterdir()):
                print(f"error: {root} is not empty", file=sys.stderr)
                return 1
        if write_outputs(root) != 0:
            return 1
        for rel in outputs(root):
            if count := nonfinite_cells(root / rel):
                print(f"error: {rel.as_posix()} holds {count} number(s) that are not finite", file=sys.stderr)
                return 1
        for rel in outputs(root):
            digest = hashlib.sha256((root / rel).read_bytes()).hexdigest()
            print(f"{digest}  {rel.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
