"""Experiment runner: spectra, critical-coupling tables and figure data as flat files.

Configs are flat JSON objects with dotted keys (graph.family, graph.p,
sweep.gamma_points, ...).  All numeric fields are validated before any
computation starts, outputs are deterministic, and CSV floats carry 17
significant digits so they round-trip exactly.

A command loads only the layers it calls: the module imports the graph
layer, and each command imports ``spectral`` and ``search`` when it needs
them.  ``main`` also has the process skip the collector's sweep at exit.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, NumericalFailure
from .graphs import (
    COMPLETE_SIZE_CAP,
    GAMMA_RANGE_DEFAULT,
    OPT_GAMMA_POINTS_DEFAULT,
    OPT_T_POINTS_DEFAULT,
    PRODUCT_SIZE_CAP,
    SCAN_POINTS_DEFAULT,
    Laplacian,
    TransitionGraph,
    _positive_finite,
    _product_measure,
    cartesian_power,
    complete_graph,
    interior_measure_profile,
    path_graph,
    probabilistic_laplacian,
)

if TYPE_CHECKING:
    from .search import GammaCriticalPoints, SearchOptimum
    from .spectral import SecularSolver

TABLE_COLUMNS = [
    "p",
    "gamma_s",
    "gamma_w",
    "gamma_E",
    "gamma_opt",
    "E0",
    "E1",
    "sqrt_mu_over_vol",
    "t_opt",
    "half_pi_sqrt_vol",
]

FIGURE_KINDS = ("overlaps", "contour", "timeseries", "volume")


@dataclass
class ExperimentConfig:
    family: str
    p_values: list[float] = field(default_factory=list)
    d: int = 1
    n_complete: int = 0
    target: int | str = "corner"
    gamma_min: float | None = None
    gamma_max: float | None = None
    gamma_points: int | None = None
    t_points: int = OPT_T_POINTS_DEFAULT
    out_format: str = "csv"
    out_path: str = "out"
    figure: str | None = None
    spectrum_gammas: list[float] = field(default_factory=lambda: [1.0])
    volume_p_min: float = 0.05
    volume_p_max: float = 0.95
    volume_p_points: int = 19


# The single-value keys, in the order they are checked: (key, ExperimentConfig
# field, which holds the default, type, test, what the test asks for)
_SCALAR_KEYS = (
    ("sweep.gamma_min", "gamma_min", float, _positive_finite, "a positive finite real"),
    ("sweep.gamma_max", "gamma_max", float, _positive_finite, "a positive finite real"),
    ("sweep.gamma_points", "gamma_points", int, lambda v: v >= 2, "an integer >= 2"),
    ("sweep.t_points", "t_points", int, lambda v: v >= 2, "an integer >= 2"),
    ("output.format", "out_format", str, lambda v: v in ("csv", "json"), "'csv' or 'json'"),
    ("output.path", "out_path", str, lambda v: len(v) > 0, "a path"),
    ("figure.kind", "figure", str, lambda v: v in FIGURE_KINDS, f"one of {FIGURE_KINDS}"),
    ("volume.p_min", "volume_p_min", float, lambda v: 0 < v < 1, "a real in (0, 1)"),
    ("volume.p_max", "volume_p_max", float, lambda v: 0 < v < 1, "a real in (0, 1)"),
    ("volume.p_points", "volume_p_points", int, lambda v: v >= 1, "an integer >= 1"),
)

_KNOWN_KEYS = {key for key, *_ in _SCALAR_KEYS} | {
    "graph.family", "graph.p", "graph.d", "graph.N", "target.vertex", "spectrum.gamma_values",
}


def _want(raw: dict, key: str, kind, default, check, describe: str):
    if key not in raw:
        return default
    value = raw[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) or not check(value):
        raise ConfigError(f"{key}: expected {describe}, got {value!r}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a flat dotted-key mapping and build the experiment config."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown configuration key")

    family = _want(
        raw, "graph.family", str, None,
        lambda v: v in ("path-power", "complete"),
        "one of 'path-power', 'complete'",
    )
    if family is None:
        raise ConfigError("graph.family: required key is missing")

    cfg = ExperimentConfig(family=family)

    if family == "path-power":
        p_raw = raw.get("graph.p")
        if p_raw is None:
            raise ConfigError("graph.p: required for family 'path-power'")
        values = p_raw if isinstance(p_raw, list) else [p_raw]
        if not values:
            raise ConfigError("graph.p: list must not be empty")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not (0.0 < v < 1.0):
                raise ConfigError(f"graph.p: must be a real number in (0, 1), got {v!r}")
        cfg.p_values = [float(v) for v in values]
        d_cap = (PRODUCT_SIZE_CAP.bit_length() - 1) // 2  # the largest d with 4^d <= PRODUCT_SIZE_CAP
        describe = f"an integer from 1 to {d_cap} (4^d vertices, at most {PRODUCT_SIZE_CAP})"
        cfg.d = _want(raw, "graph.d", int, None, lambda v: 1 <= v <= d_cap, describe)
        if cfg.d is None:
            raise ConfigError("graph.d: required for family 'path-power'")
    else:
        describe = f"an integer from 2 to the cap {COMPLETE_SIZE_CAP}"
        cfg.n_complete = _want(raw, "graph.N", int, None, lambda v: 2 <= v <= COMPLETE_SIZE_CAP, describe)
        if cfg.n_complete is None:
            raise ConfigError("graph.N: required for family 'complete'")

    target = raw.get("target.vertex", "corner")
    if target != "corner" and (isinstance(target, bool) or not isinstance(target, int)):
        raise ConfigError(f"target.vertex: expected 'corner' or a vertex index, got {target!r}")
    cfg.target = target

    # each cross-key check runs right after its last key, so that of several
    # faults a config always reports the same one first
    for key, name, kind, check, describe in _SCALAR_KEYS:
        setattr(cfg, name, _want(raw, key, kind, getattr(cfg, name), check, describe))
        if key == "sweep.gamma_max":
            lo, hi = _scan_range(cfg)
            if lo >= hi:
                raise ConfigError(f"sweep.gamma_min: must be below sweep.gamma_max, got the range ({lo}, {hi})")
        elif key == "figure.kind":  # then spectrum.gamma_values, a list
            gv = raw.get("spectrum.gamma_values", [1.0])
            if not isinstance(gv, list) or not gv:
                raise ConfigError(f"spectrum.gamma_values: expected a non-empty list, got {gv!r}")
            for v in gv:
                if not _positive_finite(v):
                    raise ConfigError(f"spectrum.gamma_values: entries must be positive finite reals, got {v!r}")
            cfg.spectrum_gammas = [float(v) for v in gv]
        elif key == "volume.p_max" and cfg.volume_p_min > cfg.volume_p_max:
            raise ConfigError("volume.p_min: must not exceed volume.p_max")
    return cfg


def _build_graph(cfg: ExperimentConfig, p: float | None = None) -> tuple[Laplacian, SecularSolver]:
    """The Laplacian for one parameter value, and its solver at the target vertex."""
    from .spectral import SecularSolver

    if cfg.family == "complete":
        lap = probabilistic_laplacian(complete_graph(cfg.n_complete))
    else:
        _, lap, _ = cartesian_power(path_graph(p), cfg.d)
    return lap, SecularSolver(lap, _resolve_target(cfg, lap.graph))


def _resolve_target(cfg: ExperimentConfig, g: TransitionGraph) -> int:
    if cfg.target == "corner":
        return 0
    if not (0 <= cfg.target < g.n):
        raise ConfigError(f"target.vertex: index {cfg.target} out of range for {g.n} vertices")
    return int(cfg.target)


def _single_p(cfg: ExperimentConfig, command: str) -> float | None:
    """The one path bias a single-graph subcommand runs on; None for the complete graph."""
    if cfg.family != "path-power":
        return None
    if len(cfg.p_values) != 1:
        raise ConfigError(f"graph.p: {command} expects a single value, got a list")
    return cfg.p_values[0]


def _scan_range(cfg: ExperimentConfig) -> tuple[float, float]:
    lo = cfg.gamma_min if cfg.gamma_min is not None else GAMMA_RANGE_DEFAULT[0]
    hi = cfg.gamma_max if cfg.gamma_max is not None else GAMMA_RANGE_DEFAULT[1]
    return lo, hi


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str] | None, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload) -> None:
    """Write payload as JSON, refusing NaN and Infinity before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"{path} would hold a number that is not finite: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8", newline="")


def _write_figure(out: Path, kind: str, name: str, columns: list[tuple[str, str]], rows) -> None:
    """A figure's CSV, headed by the names of its (name, description) columns, and its schema."""
    _write_csv(out / name, [n for n, _ in columns], rows)
    _write_json(
        out / f"{kind}.schema.json",
        {"figure": kind, "columns": [{"name": n, "description": d} for n, d in columns]},
    )


def export_matrix_csv(path: Path, shape: tuple[int, int], cells) -> None:
    """Row-major headerless CSV dump, with 17 significant digits, of a matrix given as its stored cells.

    ``cells`` holds the rows, columns and values of the stored cells, in
    row-major order and each once, as ``Laplacian.cells`` gives them; every
    other cell of the shape is +0.0.  Written a row at a time.  Each distinct
    bit pattern of a stored value is formatted once, so -0.0 keeps its own
    text, and the +0.0 cells between stored ones are written as runs.  Each
    row reaches _write_csv as one pre-joined cell, which skips its per-cell
    type check.
    """
    rows, cols, values = cells
    keys = np.ascontiguousarray(values, dtype=float).view(np.int64)
    ends = np.searchsorted(rows, np.arange(shape[0] + 1)).tolist()
    zero = _fmt(0.0) + ","
    text: dict[int, str] = {}

    def lines():
        for lo, hi in zip(ends, ends[1:]):
            row, before = [], -1
            for j, key in zip(cols[lo:hi].tolist(), keys[lo:hi].tolist()):
                cell = text.get(key)
                if cell is None:
                    cell = text[key] = _fmt(np.int64(key).view(float)) + ","
                row.append(zero * (j - before - 1) + cell)
                before = j
            # every cell ends in a comma, and the last one's is dropped
            yield [("".join(row) + zero * (shape[1] - before - 1))[:-1]]

    _write_csv(path, None, lines())


# ---------------------------------------------------------------------------
# subcommands


def run_spectrum(cfg: ExperimentConfig, out: Path) -> None:
    lap, solver = _build_graph(cfg, _single_p(cfg, "spectrum"))
    g, measure = lap.graph, lap.measure
    _write_csv(
        out / "laplacian_spectrum.csv",
        ["index", "eigenvalue"],
        enumerate(solver.laplacian_spectrum),
    )
    rows = []
    for gamma, energies in zip(cfg.spectrum_gammas, solver.hamiltonian_spectra(cfg.spectrum_gammas)):
        rows.extend([gamma, i, e] for i, e in enumerate(energies))
    _write_csv(out / "hamiltonian_spectrum.csv", ["gamma", "index", "eigenvalue"], rows)
    export_matrix_csv(out / "laplacian.csv", (g.n, g.n), lap.cells())

    profile = interior_measure_profile(lap)
    _write_json(
        out / "summary.json",
        {
            "family": cfg.family,
            "vertices": g.n,
            "volume": measure.volume,
            "measure_min": float(measure.mu.min()),
            "measure_max": float(measure.mu.max()),
            "interior_min": profile.interior_min,
            "interior_max": profile.interior_max,
            "interior_constant": profile.interior_constant,
            "homogeneous": profile.homogeneous,
        },
    )


def _critical_and_optimum(
    cfg: ExperimentConfig, p: float | None, solver: SecularSolver, scan_points: int, gamma_points: int
) -> tuple[GammaCriticalPoints, SearchOptimum]:
    """The one crit -> optimum pipeline, for ``tables``, the timeseries figure and ``optimize``.

    A scan_points scan of the scan range gives the critical couplings, and a
    note on stderr names each one with no root there.  The optimizer then
    searches the ``_optimum_window`` of gamma_E on gamma_points couplings.
    """
    from .search import _optimum_window, gamma_critical_points, optimize_search

    scan = _scan_range(cfg)
    crit = gamma_critical_points(solver, scan, grid_points=scan_points)
    graph = f"p={p}" if p is not None else f"N={cfg.n_complete}"
    for name, value in (("gamma_s", crit.gamma_s), ("gamma_w", crit.gamma_w), ("gamma_E", crit.gamma_E)):
        if value is None:
            print(f"note: {graph}: no {name} root in [{scan[0]}, {scan[1]}]", file=sys.stderr)
    opt = optimize_search(
        solver, _optimum_window(crit.gamma_E, scan),
        gamma_points=gamma_points,
        t_points=cfg.t_points,
    )
    return crit, opt


def compute_table_row(cfg: ExperimentConfig, p: float) -> dict[str, float | None]:
    """The summary line of one parameter value, its critical couplings and optimum, keyed by ``TABLE_COLUMNS``."""
    lap, solver = _build_graph(cfg, p)
    crit, opt = _critical_and_optimum(
        cfg, p, solver, cfg.gamma_points or SCAN_POINTS_DEFAULT, OPT_GAMMA_POINTS_DEFAULT
    )
    measure, w = lap.measure, solver.target
    cells = (  # in the order of TABLE_COLUMNS
        p, crit.gamma_s, crit.gamma_w, crit.gamma_E, opt.gamma_opt, opt.e0, opt.e1,
        float(np.sqrt(measure.mu[w] / measure.volume)), opt.t_opt,
        float(np.pi / 2.0 * np.sqrt(measure.volume / measure.mu[w])),
    )
    row = dict(zip(TABLE_COLUMNS, cells, strict=True))
    _certify_row(row, solver)
    return row


def _certify_row(row: dict[str, float | None], solver: SecularSolver) -> None:
    """Certify every derived cell by residual bounds from the solver's axis; reject on any miss.

    One ``certify_low_pairs`` call covers the roots and gamma_opt.  At each
    root the certified crossing value plus its bound must stay within 1e-9,
    and at gamma_opt |E_a - row| plus the residual bound within 1e-12, so
    the true crossings and energies are within those limits.  sqrt(mu/vol)
    must be the axis measure's product over w's coordinates to 1e-15.
    """
    roots = [(which, root) for which in "swE" if (root := row[f"gamma_{which}"]) is not None]
    *at_roots, at_opt = solver.certify_low_pairs([root for _, root in roots] + [row["gamma_opt"]])
    for (which, root), cert in zip(roots, at_roots):
        value, bound = cert.crossing(which)
        if abs(value) + bound > 1e-9:
            raise NumericalFailure(f"gamma_{which}={root} fails its defining equation")
    energies = (at_opt.report.e0, at_opt.report.e1)
    for e, cell, r in zip(energies, (row["E0"], row["E1"]), at_opt.residuals):
        if abs(e - cell) + r > 1e-12:
            raise NumericalFailure("E0/E1 at gamma_opt do not reproduce under recomputation")
    axis_mu = solver.axis.sqrt_mu**2 / (solver.axis.sqrt_mu**2).sum()
    if abs(row["sqrt_mu_over_vol"] - np.sqrt(np.prod(axis_mu[list(solver._axis_target)]))) > 1e-15:
        raise NumericalFailure("sqrt(mu/vol) cell does not reproduce")
    s, e, w = row["gamma_s"], row["gamma_E"], row["gamma_w"]
    if None not in (s, e, w) and not (s <= e + 1e-6 and e <= w + 1e-6):
        raise NumericalFailure(f"critical couplings out of order at p={row['p']}: {s}, {e}, {w}")


def run_tables(cfg: ExperimentConfig, out: Path) -> None:
    if cfg.family != "path-power":
        raise ConfigError("graph.family: tables require the 'path-power' family")
    rows = [compute_table_row(cfg, p) for p in cfg.p_values]
    if cfg.out_format == "json":
        _write_json(out / "tables.json", rows)
    else:
        _write_csv(out / "tables.csv", TABLE_COLUMNS, (r.values() for r in rows))


def _figure_overlaps(cfg: ExperimentConfig, out: Path) -> None:
    columns = [
        ("gamma", "Laplacian coupling"),
        ("s_psi0", "squared overlap of the initial state with the ground state"),
        ("w_psi0", "squared overlap of the target state with the ground state"),
        ("s_psi1", "squared overlap of the initial state with the first excited state"),
        ("w_psi1", "squared overlap of the target state with the first excited state"),
    ]
    for p in cfg.p_values:
        _, solver = _build_graph(cfg, p)
        grid = np.linspace(*_scan_range(cfg), cfg.gamma_points or SCAN_POINTS_DEFAULT)
        reports = [spec.low_pair() for spec in solver.solve_many(grid)]
        rows = [[gamma, r.s_psi0, r.w_psi0, r.s_psi1, r.w_psi1] for gamma, r in zip(grid, reports)]
        _write_figure(out, "overlaps", f"overlaps_p{p:g}.csv", columns, rows)


def _figure_contour(cfg: ExperimentConfig, out: Path) -> None:
    from .search import _grid_curve, _time_ceiling

    columns = [("t", "evolution time"), ("gamma", "Laplacian coupling"), ("pi", "success probability at (t, gamma)")]
    for p in cfg.p_values:
        _, solver = _build_graph(cfg, p)
        grid = np.linspace(*_scan_range(cfg), cfg.gamma_points or SCAN_POINTS_DEFAULT)
        spectra = solver.solve_many(grid)
        reports = [spec.low_pair() for spec in spectra]
        t_max = _time_ceiling(solver.volume, min(abs(r.e1 - r.e0) for r in reports))
        rows = []
        for gamma, spec in zip(grid, spectra):
            times, curve = _grid_curve(spec.energies, spec.amplitudes, t_max, cfg.t_points)
            rows.extend([t, gamma, pi] for t, pi in zip(times, curve))
        _write_figure(out, "contour", f"contour_p{p:g}.csv", columns, rows)


def _figure_timeseries(cfg: ExperimentConfig, out: Path) -> None:
    from .search import _grid_curve

    columns = [("t", "evolution time"), ("pi", "success probability at the optimal coupling")]
    for p in cfg.p_values:
        _, solver = _build_graph(cfg, p)
        _, opt = _critical_and_optimum(
            cfg, p, solver, cfg.gamma_points or SCAN_POINTS_DEFAULT, OPT_GAMMA_POINTS_DEFAULT
        )
        spec = solver.solve(opt.gamma_opt)
        times, curve = _grid_curve(spec.energies, spec.amplitudes, 1.25 * opt.t_opt, cfg.t_points)
        _write_figure(out, "timeseries", f"timeseries_p{p:g}.csv", columns, zip(times, curve))
        _write_json(
            out / f"timeseries_p{p:g}.meta.json",
            {
                "p": p,
                "gamma_opt": opt.gamma_opt,
                "t_opt": opt.t_opt,
                "pi_max": opt.pi_max,
                "E0": opt.e0,
                "E1": opt.e1,
                "truncated": opt.truncated,
            },
        )


def _figure_volume(cfg: ExperimentConfig, out: Path) -> None:
    ps = np.linspace(cfg.volume_p_min, cfg.volume_p_max, cfg.volume_p_points)
    rows = [[p, np.sqrt(_product_measure(path_graph(float(p)), cfg.d).volume)] for p in ps]
    columns = [("p", "path bias parameter"), ("sqrt_volume", "square root of the lattice volume")]
    _write_figure(out, "volume", "volume.csv", columns, rows)


_FIGURES = {
    "overlaps": _figure_overlaps,
    "contour": _figure_contour,
    "timeseries": _figure_timeseries,
    "volume": _figure_volume,
}


def run_figure_data(cfg: ExperimentConfig, out: Path) -> None:
    figure = cfg.figure
    if figure is None:
        raise ConfigError("figure.kind: required (or pass --figure)")
    if cfg.family != "path-power":
        raise ConfigError(f"graph.family: figure '{figure}' requires the 'path-power' family")
    _FIGURES[figure](cfg, out)


def run_optimize(cfg: ExperimentConfig, out: Path) -> None:
    from .search import optimize_search

    p = _single_p(cfg, "optimize")
    _, solver = _build_graph(cfg, p)
    gamma_points = cfg.gamma_points or OPT_GAMMA_POINTS_DEFAULT
    # either configured end fixes the window (a missing end takes its default);
    # with neither, the window is centred on the gamma_E of a default scan
    if cfg.gamma_min is not None or cfg.gamma_max is not None:
        opt = optimize_search(solver, _scan_range(cfg), gamma_points=gamma_points, t_points=cfg.t_points)
    else:
        _, opt = _critical_and_optimum(cfg, p, solver, SCAN_POINTS_DEFAULT, gamma_points)
    payload = {
        "t_opt": opt.t_opt,
        "gamma_opt": opt.gamma_opt,
        "pi_max": opt.pi_max,
        "E0": opt.e0,
        "E1": opt.e1,
        "gamma_range": list(opt.gamma_range),
        "gamma_points": opt.gamma_points,
        "t_points": opt.t_points,
        "truncated": opt.truncated,
        "refined_gamma_step": opt.refined_gamma_step,
    }
    if cfg.out_format == "json":
        _write_json(out / "optimum.json", payload)
    else:
        columns = ["t_opt", "gamma_opt", "pi_max", "E0", "E1", "truncated"]
        # the JSON's values, a boolean spelled as JSON spells it
        row = [json.dumps(v) if isinstance(v, bool) else v for v in map(payload.get, columns)]
        _write_csv(out / "optimum.csv", columns, [row])


# ---------------------------------------------------------------------------
# entry point


# each subcommand's help line and what it runs
_COMMANDS = {
    "spectrum": ("export Laplacian and Hamiltonian spectra plus a summary", run_spectrum),
    "tables": ("critical couplings and search optima per parameter value", run_tables),
    "figures": ("grid data behind the overlap/contour/timeseries/volume plots", run_figure_data),
    "optimize": ("locate the optimal coupling and time", run_optimize),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsearch",
        description="Quantum-walk search experiments on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a flat JSON config")
        # a flag whose dest is a dotted config key replaces that key before validation
        cmd.add_argument("--out", dest="output.path", help="output directory (overrides output.path)")
        cmd.add_argument(
            "--threads", type=int,
            help="accepted for compatibility and validated (>= 1); has no effect",
        )
        cmd.add_argument("--gamma-min", type=float, dest="sweep.gamma_min")
        cmd.add_argument("--gamma-max", type=float, dest="sweep.gamma_max")
        cmd.add_argument("--gamma-points", type=int, dest="sweep.gamma_points")
        cmd.add_argument("--t-points", type=int, dest="sweep.t_points")
        if name == "figures":
            cmd.add_argument(
                "--figure", dest="figure.kind",
                help=f"which figure data to emit, one of {', '.join(FIGURE_KINDS)}",
            )
    return parser


def _with_flags(raw, args: argparse.Namespace):
    """The config mapping with each given key-valued flag in place of its key."""
    if not isinstance(raw, dict):
        return raw
    return raw | {k: v for k, v in vars(args).items() if "." in k and v is not None}


@functools.cache
def _freeze_at_exit() -> None:
    """Freeze the collector at exit, once per process.

    The interpreter's collections at shutdown would traverse every object the
    imports left behind; frozen, those objects are skipped.  Until exit the
    collector runs as usual.
    """
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_at_exit()
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(_with_flags(raw, args))
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        out = Path(cfg.out_path)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command][1](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
