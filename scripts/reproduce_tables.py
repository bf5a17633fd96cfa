#!/usr/bin/env python3
"""Full d=5 lattice table run: critical couplings and search optimum per p.

Writes results/tables/tables.csv in about 8 seconds on a 2-core machine; the
dense 1024-vertex eigendecompositions (one solver set-up and four
revalidation solves per p) dominate.
"""

import argparse
import json
import sys
from pathlib import Path

from qwsearch.cli import main as qwsearch_main

P_VALUES = [0.91, 0.5, 0.4, 0.1]


def run(out_dir: str, threads: int) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "tables_config.json"
    config.write_text(json.dumps({
        "graph.family": "path-power",
        "graph.p": P_VALUES,
        "graph.d": 5,
        "target.vertex": "corner",
        "output.path": str(out),
    }, indent=2))
    return qwsearch_main(["tables", "--config", str(config), "--threads", str(threads)])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/tables")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    sys.exit(run(args.out, args.threads))
