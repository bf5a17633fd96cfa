"""The benchmark's workloads: CLI inputs from a seed, output checks, implied counts.

Seed 0 gives the inputs stored in ref/seed0.json; any other seed
draws the path bias p from [0.05, 0.95] with ``random.Random(seed)``, so a
claim can be re-checked on inputs it was not tuned on.  Only the independent
oracles in ``oracles.py`` and the stored seed-0 references judge outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# The CLI's fixed optimizer grid for `tables` and the refinement it adds:
# two decades of 21 points each (qwsearch.cli / qwsearch.search).
TABLES_OPT_GAMMA_POINTS = 200
REFINE_POINTS = 2 * 21
BISECTION_WIDTH = 1e-12
SCAN_RANGE = (0.05, 3.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _draw_p(seed: int, default: float) -> float:
    return default if seed == 0 else round(random.Random(seed).uniform(0.05, 0.95), 4)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    threads: int
    blas_threads: int
    outputs: tuple[str, ...]
    inputs: Callable[[int], dict]
    check: Callable[[dict, Path, dict | None], list[str]]
    expected_counts: Callable[[dict, Path], dict[str, int]]

    def cli_args(self, config_path: Path, out: Path) -> list[str]:
        return [*self.command, "--config", str(config_path), "--out", str(out), "--threads", str(self.threads)]


def _check_optimum(lat, p, d, gamma, t_opt, e0, e1, t_points, pi_reported=None) -> list[str]:
    """E0/E1 at gamma, and t_opt as the maximum of pi over the optimizer's time window."""
    problems = []
    evals, _ = lat.eigen(gamma)
    if abs(evals[0] - e0) > 1e-10 or abs(evals[1] - e1) > 1e-10:
        problems.append(f"E0/E1 at gamma_opt={gamma} differ from dense eigh")
    pi_expm = lat.success_expm(gamma, t_opt)
    pi_spec = float(lat.success_curve(gamma, np.array([t_opt]))[0])
    if abs(pi_expm - pi_spec) > 1e-8:
        problems.append(f"expm pi={pi_expm} and spectral pi={pi_spec} disagree at t_opt")
    times = np.linspace(0.0, lat.t_ceiling(gamma, oracles.lattice_volume(p, d)), t_points)
    window_max = float(lat.success_curve(gamma, times).max())
    if pi_expm < window_max - 1e-8:
        problems.append(f"pi(t_opt)={pi_expm} is below the time-window maximum {window_max}")
    if pi_reported is not None and abs(pi_expm - pi_reported) > 1e-8:
        problems.append(f"reported pi_max={pi_reported} but expm gives {pi_expm}")
    return problems


# --- tables-d4 -----------------------------------------------------------------


def _tables_inputs(seed: int) -> dict:
    return {
        "graph.family": "path-power",
        "graph.p": [_draw_p(seed, 0.91)],
        "graph.d": 4,
        "target.vertex": "corner",
        "sweep.gamma_points": 60,
        "sweep.t_points": 500,
    }


def _tables_check(cfg: dict, out: Path, ref: dict | None) -> list[str]:
    d, ps = cfg["graph.d"], cfg["graph.p"]
    rows = _rows(out / "tables.csv")
    if len(rows) != len(ps):
        return [f"tables.csv: {len(rows)} rows for {len(ps)} p values"]
    problems = []
    for row, p in zip(rows, ps):
        lat = oracles.Lattice(p, d)
        for column, which in (("gamma_s", "s"), ("gamma_w", "w"), ("gamma_E", "E")):
            if row[column]:
                f = lat.crossing(which, float(row[column]))
                if abs(f) > 1e-9:
                    problems.append(f"p={p}: {column}={row[column]} leaves crossing {f:.3e}")
        volume = oracles.lattice_volume(p, d)
        if not _close(float(row["sqrt_mu_over_vol"]), math.sqrt(1.0 / volume), 1e-12):
            problems.append(f"p={p}: sqrt_mu_over_vol differs from sqrt(1/V_axis^d)")
        if not _close(float(row["half_pi_sqrt_vol"]), math.pi / 2 * math.sqrt(volume), 1e-12):
            problems.append(f"p={p}: half_pi_sqrt_vol differs from pi/2 sqrt(V_axis^d)")
        problems += [
            f"p={p}: {m}"
            for m in _check_optimum(
                lat, p, d, float(row["gamma_opt"]), float(row["t_opt"]),
                float(row["E0"]), float(row["E1"]), cfg["sweep.t_points"],
            )
        ]
    return [f"tables.csv: {m}" for m in problems]


def _halvings(width: float) -> int:
    steps = 0
    while width > BISECTION_WIDTH:
        width *= 0.5
        steps += 1
    return steps


def _tables_counts(cfg: dict, out: Path) -> dict[str, int]:
    rows = _rows(out / "tables.csv")
    grid = cfg["sweep.gamma_points"]
    roots = sum(1 for r in rows for c in ("gamma_s", "gamma_w", "gamma_E") if r[c])
    step = (SCAN_RANGE[1] - SCAN_RANGE[0]) / (grid - 1)
    evals = len(rows) * (TABLES_OPT_GAMMA_POINTS + REFINE_POINTS)
    return {
        "spectral.full_solves": evals + len(rows),
        "search.scan_grid_solves": len(rows) * grid,
        "search.root_solves": roots * _halvings(step),
        "search.optimize_gamma_evals": evals,
        "cli.revalidate_solves": roots + len(rows),
    }


# --- optimize-d4 ---------------------------------------------------------------


def _optimize_inputs(seed: int) -> dict:
    p, d = _draw_p(seed, 0.91), 4
    gamma_e = oracles.Lattice(p, d).gamma_e(*SCAN_RANGE)
    lo, hi = (0.8 * gamma_e, 1.2 * gamma_e) if gamma_e is not None else SCAN_RANGE
    return {
        "graph.family": "path-power",
        "graph.p": p,
        "graph.d": d,
        "target.vertex": "corner",
        "sweep.gamma_min": float(f"{lo:.7g}"),
        "sweep.gamma_max": float(f"{hi:.7g}"),
        "sweep.gamma_points": 20,
        "sweep.t_points": 2000,
        "output.format": "json",
    }


def _optimize_check(cfg: dict, out: Path, ref: dict | None) -> list[str]:
    p, d = cfg["graph.p"], cfg["graph.d"]
    res = json.loads((out / "optimum.json").read_text())
    problems = _check_optimum(
        oracles.Lattice(p, d), p, d, res["gamma_opt"], res["t_opt"],
        res["E0"], res["E1"], cfg["sweep.t_points"], res["pi_max"],
    )
    if not cfg["sweep.gamma_min"] <= res["gamma_opt"] <= cfg["sweep.gamma_max"]:
        problems.append(f"gamma_opt={res['gamma_opt']} outside the configured range")
    if ref is not None and res["pi_max"] < ref["pi_max"] - 1e-12:
        problems.append(f"pi_max={res['pi_max']} below the reference {ref['pi_max']}")
    return [f"optimum.json: {m}" for m in problems]


def _optimize_counts(cfg: dict, out: Path) -> dict[str, int]:
    evals = cfg["sweep.gamma_points"] + REFINE_POINTS
    return {
        "spectral.full_solves": evals,
        "spectral.partial_solves": 0,
        "search.optimize_gamma_evals": evals,
        "search.curve_points": evals * cfg["sweep.t_points"],
    }


# --- spectrum-d5 ---------------------------------------------------------------


def _spectrum_inputs(seed: int) -> dict:
    return {
        "graph.family": "path-power",
        "graph.p": _draw_p(seed, 0.5),
        "graph.d": 5,
        "target.vertex": "corner",
        "spectrum.gamma_values": [1.0],
    }


def _spectrum_check(cfg: dict, out: Path, ref: dict | None) -> list[str]:
    p, d = cfg["graph.p"], cfg["graph.d"]
    problems = []
    spectrum = np.array([float(r["eigenvalue"]) for r in _rows(out / "laplacian_spectrum.csv")])
    expected = oracles.kronecker_spectrum(p, d)
    if spectrum.shape != expected.shape or np.abs(spectrum - expected).max() > 1e-12:
        problems.append("laplacian_spectrum.csv: differs from the Kronecker-sum spectrum")
    lat = oracles.Lattice(p, d)
    ham = _rows(out / "hamiltonian_spectrum.csv")
    for gamma in cfg["spectrum.gamma_values"]:
        got = np.array([float(r["eigenvalue"]) for r in ham if float(r["gamma"]) == gamma])
        want = np.linalg.eigvalsh(lat.hamiltonian(gamma))
        if got.shape != want.shape or np.abs(got - want).max() > 1e-10:
            problems.append(f"hamiltonian_spectrum.csv: gamma={gamma} differs from dense eigvalsh")
    text = (out / "laplacian.csv").read_text()
    matrix = np.array(text.replace("\n", ",").rstrip(",").split(","), dtype=float)
    want = oracles.lattice_laplacian(p, d).ravel()
    if matrix.shape != want.shape or np.abs(matrix - want).max() > 1e-15:
        problems.append("laplacian.csv: differs from the Kronecker-sum Laplacian")
    if ref is not None and sha256(out / "laplacian.csv") != ref["files"]["laplacian.csv"]:
        problems.append("laplacian.csv: not byte-identical to the reference")
    summary = json.loads((out / "summary.json").read_text())
    if summary["vertices"] != 4**d or not _close(summary["volume"], oracles.lattice_volume(p, d), 1e-12):
        problems.append("summary.json: vertex count or volume differs from 4^d, V_axis^d")
    return problems


def _spectrum_counts(cfg: dict, out: Path) -> dict[str, int]:
    solves = 1 + len(cfg["spectrum.gamma_values"])
    return {"spectral.full_solves": solves, "spectral.partial_solves": 0}


# --- volume-d5 -----------------------------------------------------------------


def _volume_inputs(seed: int) -> dict:
    if seed == 0:
        lo, hi = 0.05, 0.95
    else:
        rng = random.Random(seed)
        lo, hi = sorted(round(rng.uniform(0.05, 0.95), 4) for _ in range(2))
        hi = max(hi, lo + 1e-3)
    return {
        "graph.family": "path-power",
        "graph.p": 0.5,
        "graph.d": 5,
        "volume.p_min": lo,
        "volume.p_max": hi,
        "volume.p_points": 13,
    }


def _volume_check(cfg: dict, out: Path, ref: dict | None) -> list[str]:
    d = cfg["graph.d"]
    rows = _rows(out / "volume.csv")
    ps = np.linspace(cfg["volume.p_min"], cfg["volume.p_max"], cfg["volume.p_points"])
    if len(rows) != len(ps):
        return [f"volume.csv: {len(rows)} rows for {len(ps)} p values"]
    problems = []
    for row, p in zip(rows, ps):
        if float(row["p"]) != p:
            problems.append(f"volume.csv: p={row['p']} where {p!r} was configured")
        if not _close(float(row["sqrt_volume"]), math.sqrt(oracles.lattice_volume(p, d)), 1e-12):
            problems.append(f"volume.csv: sqrt_volume at p={p} differs from sqrt(V_axis^d)")
    return problems


def _volume_counts(cfg: dict, out: Path) -> dict[str, int]:
    # one path_graph and one cartesian_power per p
    return {
        "graphs.build_calls": 2 * cfg["volume.p_points"],
        "spectral.full_solves": 0,
        "spectral.partial_solves": 0,
    }


WORKLOADS = {
    w.name: w
    for w in (
        # The whole paper pipeline on many small in-cache solves (256 vertices,
        # 0.5 MB): grid scan, serial bisection, the 242-gamma optimizer and the
        # revalidation, with a 2-thread pool and single-threaded BLAS.
        Workload(
            "tables-d4", ("tables",), 2, 1, ("tables.csv",),
            _tables_inputs, _tables_check, _tables_counts,
        ),
        # The optimizer alone: 62 full solves and their 4000-point curves, with
        # no scan and no bisection, single-threaded throughout.
        Workload(
            "optimize-d4", ("optimize",), 1, 1, ("optimum.json",),
            _optimize_inputs, _optimize_check, _optimize_counts,
        ),
        # Two large solves instead of many small ones (1024 vertices, 8 MB,
        # beyond L2) and the only heavy emit, a 1M-cell laplacian.csv.
        Workload(
            "spectrum-d5", ("spectrum",), 1, 2,
            ("laplacian_spectrum.csv", "hamiltonian_spectrum.csv", "laplacian.csv", "summary.json"),
            _spectrum_inputs, _spectrum_check, _spectrum_counts,
        ),
        # Dense cartesian_power builds only: the graph layer with no solves.
        Workload(
            "volume-d5", ("figures", "--figure", "volume"), 1, 1, ("volume.csv", "volume.schema.json"),
            _volume_inputs, _volume_check, _volume_counts,
        ),
    )
}
