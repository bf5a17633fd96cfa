import ast
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qwsearch
from qwsearch import cli, search, spectral
from qwsearch.errors import ConfigError, ConvergenceFailure, NumericalFailure
from qwsearch.cli import parse_config
from qwsearch.graphs import (
    COMPLETE_SIZE_CAP,
    Laplacian,
    TransitionGraph,
    VertexMeasure,
    cartesian_power,
    complete_graph,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.search import optimize_search
from qwsearch.spectral import _CROSSINGS, SearchHamiltonian, decompose, overlaps_direct

# the row certificate itself, for tests that replace it in cli while rows are computed
CERTIFY_ROW = cli._certify_row


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_path_config(out, **extra):
    payload = {
        "graph.family": "path-power",
        "graph.p": 0.5,
        "graph.d": 1,
        "output.path": str(out),
    }
    payload.update(extra)
    return payload


def test_parse_config_minimal():
    cfg = parse_config({"graph.family": "complete", "graph.N": 4})
    assert cfg.n_complete == 4
    assert cfg.target == "corner"
    assert cfg.out_format == "csv"


@pytest.mark.parametrize(
    "payload,key",
    [
        ({"graph.family": "ring"}, "graph.family"),
        ({"graph.family": "path-power", "graph.p": 1.2, "graph.d": 1}, "graph.p"),
        ({"graph.family": "path-power", "graph.p": [], "graph.d": 1}, "graph.p"),
        ({"graph.family": "path-power", "graph.p": 0.5}, "graph.d"),
        ({"graph.family": "path-power", "graph.p": 0.5, "graph.d": 0}, "graph.d"),
        ({"graph.family": "complete"}, "graph.N"),
        ({"graph.family": "complete", "graph.N": 1}, "graph.N"),
        ({"graph.family": "complete", "graph.N": 4, "target.vertex": 1.5}, "target.vertex"),
        ({"graph.family": "complete", "graph.N": 4, "sweep.gamma_min": -1}, "sweep.gamma_min"),
        ({"graph.family": "complete", "graph.N": 4, "sweep.gamma_points": 1}, "sweep.gamma_points"),
        ({"graph.family": "complete", "graph.N": 4, "output.format": "xml"}, "output.format"),
        ({"graph.family": "complete", "graph.N": 4, "figure.kind": "pie"}, "figure.kind"),
        ({"graph.family": "complete", "graph.N": 4, "nonsense.key": 1}, "nonsense.key"),
        # with gamma_max defaulted to 3.0 the range would be (5.0, 3.0)
        ({"graph.family": "complete", "graph.N": 4, "sweep.gamma_min": 5.0}, "sweep.gamma_min"),
        ({"graph.family": "complete", "graph.N": 4, "sweep.gamma_max": "3"}, "sweep.gamma_max"),
        ({"graph.family": "complete", "graph.N": 4, "sweep.t_points": 1}, "sweep.t_points"),
        ({"graph.family": "complete", "graph.N": 4, "output.path": ""}, "output.path"),
        ({"graph.family": "complete", "graph.N": 4, "spectrum.gamma_values": []}, "spectrum.gamma_values"),
        ({"graph.family": "complete", "graph.N": 4, "volume.p_min": 0}, "volume.p_min"),
        ({"graph.family": "complete", "graph.N": 4, "volume.p_max": 1.5}, "volume.p_max"),
        ({"graph.family": "complete", "graph.N": 4, "volume.p_points": 0}, "volume.p_points"),
        # of several faults, the first in checking order: the coupling range
        # right after sweep.gamma_max, spectrum.gamma_values right after
        # figure.kind, and the order of the volume range right after volume.p_max
        ({"graph.family": "complete", "graph.N": 4, "sweep.gamma_max": 0.01, "output.format": "xml"},
         "sweep.gamma_min"),
        ({"graph.family": "complete", "graph.N": 4, "volume.p_min": 0.9, "volume.p_max": 0.1, "volume.p_points": 0},
         "volume.p_min"),
        ({"graph.family": "complete", "graph.N": 4, "figure.kind": "pie", "spectrum.gamma_values": []},
         "figure.kind"),
        ({"graph.family": "complete", "graph.N": 4, "spectrum.gamma_values": [0], "volume.p_min": 2},
         "spectrum.gamma_values"),
    ],
)
def test_parse_config_names_offending_key(payload, key):
    with pytest.raises(ConfigError) as err:
        parse_config(payload)
    assert str(err.value).startswith(f"{key}: ")


def test_cli_invalid_p_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | {"graph.p": 1.2})
    code = cli.main(["spectrum", "--config", cfg])
    assert code == 2
    assert "graph.p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,extra",
    [
        (["tables", "--gamma-min", "0"], {}),
        (["optimize", "--gamma-min", "-1", "--gamma-max", "1.5"], {}),
        (["tables"], {"sweep.gamma_min": 5.0}),
    ],
)
def test_gamma_range_errors_exit_2(tmp_path, capsys, args, extra):
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | extra)
    assert cli.main([args[0], "--config", cfg, *args[1:]]) == 2
    assert "sweep.gamma_min" in capsys.readouterr().err


def test_graph_d_above_cap_exits_2(tmp_path, capsys):
    # 4^7 vertices would need 2 GiB per dense matrix; nothing is built
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | {"graph.d": 7})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "graph.d" in capsys.readouterr().err
    assert parse_config(base_path_config(tmp_path / "out") | {"graph.d": 6}).d == 6


@pytest.mark.parametrize(
    "command,extra,flags,key",
    [
        ("spectrum", {"spectrum.gamma_values": [float("nan")]}, [], "spectrum.gamma_values"),
        ("spectrum", {"spectrum.gamma_values": [1.0, float("inf")]}, [], "spectrum.gamma_values"),
        ("tables", {"sweep.gamma_max": float("inf")}, [], "sweep.gamma_max"),
        ("tables", {"sweep.gamma_min": float("nan")}, [], "sweep.gamma_min"),
        ("optimize", {}, ["--gamma-max", "inf"], "sweep.gamma_max"),
        ("optimize", {}, ["--gamma-min", "nan"], "sweep.gamma_min"),
    ],
)
def test_non_finite_floats_exit_2_with_one_line(tmp_path, capsys, command, extra, flags, key):
    # json reads the literals NaN and Infinity, and argparse's float reads "inf" and "nan"
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | extra)
    if extra:
        assert "NaN" in Path(cfg).read_text() or "Infinity" in Path(cfg).read_text()
    assert cli.main([command, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: ")


@pytest.mark.parametrize("n", [COMPLETE_SIZE_CAP + 1, 100000])
def test_graph_n_above_cap_exits_2_before_any_build(tmp_path, capsys, monkeypatch, n):
    monkeypatch.setattr(cli, "complete_graph", lambda *args: pytest.fail("a graph was built"))
    cfg = write_config(tmp_path, {"graph.family": "complete", "graph.N": n, "output.path": str(tmp_path / "out")})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: graph.N: ")
    assert err[0].endswith(f"from 2 to the cap {COMPLETE_SIZE_CAP}, got {n}")
    assert parse_config({"graph.family": "complete", "graph.N": COMPLETE_SIZE_CAP}).n_complete == COMPLETE_SIZE_CAP


@pytest.mark.parametrize("command", ["spectrum", "optimize"])
def test_single_graph_commands_reject_p_list(tmp_path, capsys, command):
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | {"graph.p": [0.4, 0.5]})
    assert cli.main([command, "--config", cfg]) == 2
    assert f"graph.p: {command} expects a single value" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--figure", "pie"]])
def test_figure_kind_missing_or_unknown_exits_2(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out"))
    assert cli.main(["figures", "--config", cfg, *flags]) == 2
    assert "figure.kind" in capsys.readouterr().err


def test_figure_flag_replaces_config_kind(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out) | {"graph.d": 2, "figure.kind": "overlaps", "volume.p_points": 3},
    )
    assert cli.main(["figures", "--config", cfg, "--figure", "volume"]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["volume.csv", "volume.schema.json"]


def test_cli_missing_config_exits_4(tmp_path):
    assert cli.main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 4


@pytest.mark.parametrize(
    "command, key",
    [(["figures", "--figure", "volume"], "volume.p_points"), (["figures", "--figure", "overlaps"], "sweep.gamma_points")],
    ids=["volume-points", "gamma-points"],
)
def test_cli_memory_error_exits_4_with_one_line(tmp_path, capsys, command, key):
    # a grid of 10^16 points, 80 PB, which no address space holds, so numpy
    # refuses it before allocating anything whatever the overcommit setting
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | {key: 10**16})
    assert cli.main([*command, "--config", cfg]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("out of memory: "), err


def test_graph_d_of_a_billion_exits_2_at_once(tmp_path, capsys):
    # 4**d is never formed: at d = 10^8 it took 1.6 s and a 25 MB integer
    config = base_path_config(tmp_path / "out") | {"graph.d": 10**9}
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="graph.d"):
        parse_config(config)
    assert cli.main(["tables", "--config", write_config(tmp_path, config)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: graph.d: expected an integer from 1 to 6")


def test_cli_numerical_failure_exits_3(tmp_path, monkeypatch):
    from qwsearch.errors import DegenerateLowStates

    def boom(*args, **kwargs):
        raise DegenerateLowStates("forced")

    monkeypatch.setattr(spectral, "SecularSolver", boom)
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out"))
    assert cli.main(["spectrum", "--config", cfg]) == 3


def test_spectrum_unsolvable_coupling_exits_3_with_one_line(tmp_path, capsys):
    # an extreme coupling either solves to finite cells or fails typed, in one
    # line; a numpy warning is an error here, so none may reach the user
    cases = [
        *(("spectrum", {"spectrum.gamma_values": [gamma]})
          for gamma in (5e-324, 1e-310, 1e-300, 1e-155, 1e300, 1e308, 1.7976931348623157e308)),
        ("tables", {"sweep.gamma_max": 1e308}),
    ]
    for i, (command, extra) in enumerate(cases):
        out = tmp_path / f"out{i}"
        cfg = write_config(tmp_path, base_path_config(out, **{"graph.d": 2}) | extra, name=f"config{i}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", cfg])
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == [], extra
            for path in out.glob("*.csv"):
                cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
                assert np.isfinite(np.array(cells, dtype=float)).all(), (extra, path.name)
        else:
            assert code == 3, extra
            assert len(err) == 1 and err[0].startswith("numerical failure: "), (extra, err)


def test_spectrum_path_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_path_config(out))
    assert cli.main(["spectrum", "--config", cfg]) == 0

    rows = (out / "laplacian_spectrum.csv").read_text().splitlines()
    assert rows[0] == "index,eigenvalue"
    evals = sorted(float(r.split(",")[1]) for r in rows[1:])
    np.testing.assert_allclose(evals, [0.0, 0.5, 1.5, 2.0], atol=1e-10)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["volume"] == pytest.approx(6.0)
    assert summary["homogeneous"] is True

    matrix = np.array(
        [[float(v) for v in line.split(",")]
         for line in (out / "laplacian.csv").read_text().splitlines()]
    )
    np.testing.assert_allclose(
        matrix,
        [[1, -1, 0, 0], [-0.5, 1, -0.5, 0], [0, -0.5, 1, -0.5], [0, 0, -1, 1]],
        atol=0,
    )


def test_laplacian_csv_matches_identity_minus_transition(tmp_path):
    # laplacian.csv, written from the Laplacian's cells, is the dense I - P as
    # the per-row formatter writes it, with +0.0 off the edges: a negated zero
    # would print "-0"
    runs = [({"graph.d": d, "graph.p": p}, cartesian_power(path_graph(p), d)[0])
            for d in (1, 2, 3, 4) for p in (0.05, 0.4, 0.91, 0.123456)]
    runs += [({"graph.family": "complete", "graph.N": n}, complete_graph(n)) for n in (2, 3, 7, 50)]
    for i, (config, g) in enumerate(runs):
        out = tmp_path / f"out{i}"
        cfg = write_config(tmp_path, base_path_config(out) | config)
        assert cli.main(["spectrum", "--config", cfg]) == 0
        per_row_matrix_csv(tmp_path / "oracle.csv", np.eye(g.n) - g.transition_matrix())
        text = (out / "laplacian.csv").read_bytes()
        assert text == (tmp_path / "oracle.csv").read_bytes(), config
        assert b"-0," not in text and b"-0\n" not in text
    # no command builds a product of a lazy axis, whose vertices hold self-loops
    # of summed weights next to diagonal cells of 1.0
    lazy3 = TransitionGraph.from_weights(
        3, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.3, (1, 1): 0.2, (1, 2): 0.5, (2, 1): 1.0}, "custom"
    )
    for d in (1, 2, 3):
        g, lap, _ = cartesian_power(lazy3, d)
        cli.export_matrix_csv(tmp_path / "lazy.csv", (g.n, g.n), lap.cells())
        per_row_matrix_csv(tmp_path / "oracle.csv", np.eye(g.n) - g.transition_matrix())
        assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes(), d


def test_spectrum_complete_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {"graph.family": "complete", "graph.N": 4, "output.path": str(out)},
    )
    assert cli.main(["spectrum", "--config", cfg]) == 0
    rows = (out / "laplacian_spectrum.csv").read_text().splitlines()[1:]
    evals = sorted(float(r.split(",")[1]) for r in rows)
    np.testing.assert_allclose(evals, [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-10)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_spectrum_k2_writes_null_for_its_empty_interior(tmp_path):
    # K_2 has no interior vertex; summary.json must stay JSON, with no NaN
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"graph.family": "complete", "graph.N": 2, "output.path": str(out)})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["interior_min"] is None and summary["interior_max"] is None


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_a_number_that_is_not_finite(tmp_path, value):
    path = tmp_path / "summary.json"
    with pytest.raises(NumericalFailure, match="summary.json"):
        cli._write_json(path, {"ok": 1.0, "bad": [value]})
    assert not path.exists()


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_path_config(out) | {"graph.p": 1.0 / 3.0})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    text = (out / "laplacian.csv").read_text()
    assert "0.33333333333333331" in text  # 17 significant digits
    assert "\r" not in text


def test_tables_single_axis(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out)
        | {"sweep.gamma_max": 5.0, "sweep.gamma_points": 200, "sweep.t_points": 800},
    )
    assert cli.main(["tables", "--config", cfg]) == 0
    lines = (out / "tables.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.TABLE_COLUMNS)
    cells = lines[1].split(",")
    row = dict(zip(cli.TABLE_COLUMNS, cells))
    assert float(row["p"]) == 0.5
    gamma_s, gamma_E, gamma_w = (
        float(row["gamma_s"]), float(row["gamma_E"]), float(row["gamma_w"])
    )
    assert gamma_s <= gamma_E <= gamma_w
    assert float(row["sqrt_mu_over_vol"]) == pytest.approx(1 / np.sqrt(6), rel=1e-12)
    assert float(row["half_pi_sqrt_vol"]) == pytest.approx(np.pi / 2 * np.sqrt(6), rel=1e-12)
    assert float(row["E0"]) < 0 < float(row["E1"])


def test_tables_missing_roots_leave_empty_cells(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out)
        | {
            "sweep.gamma_min": 0.05,
            "sweep.gamma_max": 0.1,
            "sweep.gamma_points": 20,
            "sweep.t_points": 400,
        },
    )
    assert cli.main(["tables", "--config", cfg]) == 0
    line = (out / "tables.csv").read_text().splitlines()[1]
    row = dict(zip(cli.TABLE_COLUMNS, line.split(",")))
    assert row["gamma_s"] == "" and row["gamma_w"] == "" and row["gamma_E"] == ""
    assert row["gamma_opt"] != ""
    assert "no gamma_s root" in capsys.readouterr().err
    assert cli.main(["figures", "--config", cfg, "--figure", "timeseries"]) == 0
    assert "no gamma_s root" in capsys.readouterr().err


def test_tables_reject_complete_family(tmp_path):
    cfg = write_config(
        tmp_path,
        {"graph.family": "complete", "graph.N": 4, "output.path": str(tmp_path / "o")},
    )
    assert cli.main(["tables", "--config", cfg]) == 2


def test_figure_volume_matches_formula(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "graph.family": "path-power",
            "graph.p": 0.5,
            "graph.d": 5,
            "output.path": str(out),
            "figure.kind": "volume",
            "volume.p_points": 10,
        },
    )
    assert cli.main(["figures", "--config", cfg]) == 0
    lines = (out / "volume.csv").read_text().splitlines()
    assert lines[0] == "p,sqrt_volume"
    previous = 0.0
    for line in lines[1:]:
        p, sqrt_vol = (float(v) for v in line.split(","))
        assert sqrt_vol == pytest.approx((2 + 2 / (1 - p)) ** 2.5, rel=1e-10)
        assert sqrt_vol > previous
        previous = sqrt_vol
    schema = json.loads((out / "volume.schema.json").read_text())
    assert [c["name"] for c in schema["columns"]] == ["p", "sqrt_volume"]

    for d in (1, 2, 3):
        out_d = tmp_path / f"out_d{d}"
        cfg = write_config(
            tmp_path,
            {
                "graph.family": "path-power",
                "graph.p": 0.5,
                "graph.d": d,
                "output.path": str(out_d),
                "figure.kind": "volume",
                "volume.p_points": 7,
            },
            name=f"config_d{d}.json",
        )
        assert cli.main(["figures", "--config", cfg]) == 0
        for line in (out_d / "volume.csv").read_text().splitlines()[1:]:
            p, sqrt_vol = (float(v) for v in line.split(","))
            _, _, measure = cli.cartesian_power(cli.path_graph(p), d)
            assert sqrt_vol == np.sqrt(measure.volume)


def test_figure_overlaps_crossing_near_gamma_s(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out)
        | {
            "figure.kind": "overlaps",
            "sweep.gamma_min": 0.3,
            "sweep.gamma_max": 1.2,
            "sweep.gamma_points": 181,
        },
    )
    assert cli.main(["figures", "--config", cfg]) == 0
    lines = (out / "overlaps_p0.5.csv").read_text().splitlines()
    assert lines[0] == "gamma,s_psi0,w_psi0,s_psi1,w_psi1"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    diff = data[:, 1] - data[:, 3]  # s overlaps cross where gamma_s lives
    sign_change = np.nonzero(np.diff(np.sign(diff)))[0]
    assert sign_change.size == 1
    crossing = data[sign_change[0], 0]
    from qwsearch.search import find_gamma_critical

    solver = spectral.SecularSolver(probabilistic_laplacian(path_graph(0.5)), 0)
    expected = find_gamma_critical(solver, "s", (0.3, 1.2))
    assert crossing == pytest.approx(expected, abs=0.01)


def test_figure_timeseries_and_contour(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out)
        | {
            "sweep.gamma_min": 1.0,
            "sweep.gamma_max": 1.6,
            "sweep.gamma_points": 13,
            "sweep.t_points": 101,
        },
    )
    assert cli.main(["figures", "--config", cfg, "--figure", "timeseries"]) == 0
    lines = (out / "timeseries_p0.5.csv").read_text().splitlines()
    assert lines[0] == "t,pi"
    meta = json.loads((out / "timeseries_p0.5.meta.json").read_text())
    assert meta["pi_max"] <= 1.0 + 1e-12
    curve = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert curve[:, 1].max() == pytest.approx(meta["pi_max"], abs=0.05)

    assert cli.main(["figures", "--config", cfg, "--figure", "contour"]) == 0
    lines = (out / "contour_p0.5.csv").read_text().splitlines()
    assert lines[0] == "t,gamma,pi"
    assert len(lines) == 1 + 13 * 101


@pytest.mark.parametrize("kind", cli.FIGURE_KINDS)
def test_figure_schema_names_the_csv_header(tmp_path, kind):
    out = tmp_path / "out"
    extra = {"graph.d": 2, "sweep.gamma_points": 12, "sweep.t_points": 50, "volume.p_points": 3}
    cfg = write_config(tmp_path, base_path_config(out, **extra))
    assert cli.main(["figures", "--config", cfg, "--figure", kind]) == 0
    schema = json.loads((out / f"{kind}.schema.json").read_text())
    assert schema["figure"] == kind
    names = ",".join(c["name"] for c in schema["columns"])
    [csv] = out.glob("*.csv")
    assert csv.read_text().splitlines()[0] == names


def test_timeseries_meta_matches_tables_row(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out) | {"graph.d": 2, "sweep.gamma_points": 60, "sweep.t_points": 300},
    )
    assert cli.main(["tables", "--config", cfg]) == 0
    assert cli.main(["figures", "--config", cfg, "--figure", "timeseries"]) == 0
    line = (out / "tables.csv").read_text().splitlines()[1]
    row = {k: float(v) for k, v in zip(cli.TABLE_COLUMNS, line.split(","))}
    meta = json.loads((out / "timeseries_p0.5.meta.json").read_text())
    for key in ("gamma_opt", "t_opt", "E0", "E1"):
        assert meta[key] == row[key]
    # pi_max is not a table column: rerun the optimizer on the row's gamma_E window
    _, lap, _ = cli.cartesian_power(cli.path_graph(0.5), 2)
    gamma_e = row["gamma_E"]
    opt = optimize_search(spectral.SecularSolver(lap, 0), (0.8 * gamma_e, 1.2 * gamma_e), t_points=300)
    assert (opt.gamma_opt, opt.t_opt) == (row["gamma_opt"], row["t_opt"])
    assert meta["pi_max"] == opt.pi_max


def test_optimize_complete_graph_json(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "graph.family": "complete",
            "graph.N": 4,
            "output.path": str(out),
            "output.format": "json",
            "sweep.gamma_points": 60,
            "sweep.t_points": 600,
        },
    )
    assert cli.main(["optimize", "--config", cfg]) == 0
    data = json.loads((out / "optimum.json").read_text())
    assert data["gamma_opt"] == pytest.approx(0.75, abs=2e-3)
    assert data["t_opt"] == pytest.approx(np.pi, rel=5e-3)
    assert data["pi_max"] == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize(
    "extra,expected",
    [({"sweep.gamma_min": 2.0}, [2.0, 3.0]), ({"sweep.gamma_max": 0.9}, [0.05, 0.9])],
)
def test_optimize_one_sided_range(tmp_path, extra, expected):
    # the missing end takes its default instead of the window around gamma_E
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out)
        | extra
        | {"output.format": "json", "sweep.gamma_points": 40, "sweep.t_points": 400},
    )
    assert cli.main(["optimize", "--config", cfg]) == 0
    data = json.loads((out / "optimum.json").read_text())
    assert data["gamma_range"] == expected
    assert expected[0] <= data["gamma_opt"] <= expected[1]


def test_flag_overrides_config(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(
        tmp_path,
        base_path_config(out_a)
        | {"figure.kind": "volume", "graph.d": 2, "volume.p_points": 3},
    )
    assert cli.main(["figures", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_b / "volume.csv").exists()
    assert not (out_a / "volume.csv").exists()


def test_determinism_across_thread_counts(tmp_path):
    results = {}
    for threads, name in ((1, "one"), (3, "three")):
        out = tmp_path / name
        cfg = write_config(
            tmp_path,
            {
                "graph.family": "path-power",
                "graph.p": [0.4, 0.6],
                "graph.d": 2,
                "output.path": str(out),
                "sweep.gamma_points": 90,
                "sweep.t_points": 400,
            },
            name=f"cfg_{name}.json",
        )
        assert cli.main(["tables", "--config", cfg, "--threads", str(threads)]) == 0
        assert cli.main(
            ["figures", "--config", cfg, "--figure", "overlaps", "--threads", str(threads)]
        ) == 0
        results[name] = (
            (out / "tables.csv").read_bytes(),
            (out / "overlaps_p0.4.csv").read_bytes(),
            (out / "overlaps_p0.6.csv").read_bytes(),
        )
    assert results["one"] == results["three"]


def run_python(code: str) -> str:
    """Stdout of a fresh interpreter that runs code against this package."""
    src = str(Path(qwsearch.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env=os.environ | {"PYTHONPATH": src},
    )
    return result.stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package must run without it
    code = "import sys, qwsearch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python(code).strip() == "[]"


@pytest.mark.parametrize(
    "command, loaded",
    [
        (None, []),  # the import alone
        (["figures", "--figure", "volume"], []),
        (["spectrum"], ["qwsearch.spectral"]),
        (["tables"], ["qwsearch.search", "qwsearch.spectral"]),
    ],
)
def test_each_command_loads_only_the_layers_it_calls(tmp_path, command, loaded):
    code = "import sys\nfrom qwsearch import cli\n"
    if command is not None:
        cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | {"volume.p_points": 3})
        code += f"assert cli.main({command + ['--config', cfg]!r}) == 0\n"
    code += "print(sorted(m for m in sys.modules if m in ('qwsearch.search', 'qwsearch.spectral')))"
    assert run_python(code).strip() == repr(loaded)


def test_public_names_resolve_on_first_access():
    code = (
        "import sys, qwsearch\n"
        "print(sorted(m for m in sys.modules if m.startswith('qwsearch.')))\n"
        "missing = [n for n in qwsearch.__all__ if n not in dir(qwsearch)]\n"
        "print(missing, len(qwsearch.__all__) == len(set(qwsearch.__all__)))\n"
        "print(all(getattr(qwsearch, n) is getattr(sys.modules[getattr(qwsearch, n).__module__], n)"
        " for n in qwsearch.__all__))\n"
    )
    assert run_python(code).splitlines() == ["[]", "[] True", "True"]
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qwsearch.not_a_name


def test_main_leaves_the_collector_as_it_was(tmp_path):
    import atexit
    import gc

    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | {"volume.p_points": 3})
    argv = ["figures", "--config", cfg, "--figure", "volume"]
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(argv) == 0
    handlers = atexit._ncallbacks()
    assert cli.main(argv) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert atexit._ncallbacks() == handlers  # one exit freeze per process


def test_cli_process_freezes_the_collector_at_exit(tmp_path):
    # atexit runs its handlers last in, first out: this probe runs after the freeze
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out") | {"volume.p_points": 3})
    argv = ["figures", "--config", cfg, "--figure", "volume"]
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
        "from qwsearch import cli\n"
        "print('running', gc.get_freeze_count())\n"
        f"assert cli.main({argv!r}) == 0\n"
    )
    (running, at_start), (frozen, at_exit) = (line.split() for line in run_python(code).splitlines())
    assert (running, int(at_start)) == ("running", 0)
    assert frozen == "frozen" and int(at_exit) > 0


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exits_2(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out"))
    assert cli.main(["tables", "--config", cfg, "--threads", threads]) == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err


def count_eigh(monkeypatch) -> list[int]:
    """Patch np.linalg.eigh to record the order of every matrix it is given."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_tables_row_eigendecomposes_the_laplacian_once(tmp_path, monkeypatch):
    # one secular set-up, from the 4 x 4 axis, serves the scan, the optimizer
    # and the row's certificate, which makes no n x n solve
    calls = count_eigh(monkeypatch)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out) | {"graph.p": 0.4, "graph.d": 2, "sweep.gamma_points": 60, "sweep.t_points": 200},
    )
    assert cli.main(["tables", "--config", cfg]) == 0
    row = dict(zip(cli.TABLE_COLUMNS, (out / "tables.csv").read_text().splitlines()[1].split(",")))
    assert all(row[k] for k in ("gamma_s", "gamma_w", "gamma_E"))
    assert calls == [4]


def test_tables_d4_row_work_counts(tmp_path, monkeypatch):
    # the benchmark's tables-d4 seed-0 row: one 4 x 4 eigh and no n x n one,
    # few solve_many calls (40 with bisection and a separate check), and pi(t)
    # curves for few of the optimizer's 242 couplings
    eighs = count_eigh(monkeypatch)
    solves, curves = [], []
    solve_many, grid_curve = spectral.SecularSolver.solve_many, search._grid_curve

    def counted_solves(self, gammas):
        solves.append(len(gammas))
        return solve_many(self, gammas)

    def counted_curve(*args):
        curves.append(args[3])
        return grid_curve(*args)

    monkeypatch.setattr(spectral.SecularSolver, "solve_many", counted_solves)
    monkeypatch.setattr(search, "_grid_curve", counted_curve)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out) | {"graph.p": 0.91, "graph.d": 4, "sweep.gamma_points": 60, "sweep.t_points": 500},
    )
    assert cli.main(["tables", "--config", cfg]) == 0
    assert eighs == [4]
    assert len(solves) <= 15
    assert len(curves) <= 10 and set(curves) == {500}


@pytest.mark.parametrize("target", ["corner", 21])
def test_tables_row_symmetrizes_and_decomposes_only_the_axis(monkeypatch, target):
    # set-up, scan, optimizer and certificate of a d=3 row (64 vertices)
    # symmetrize and eigh the 4 x 4 axis Laplacian alone, once each
    eighs = count_eigh(monkeypatch)
    symmetrized = []
    symmetrize = spectral.symmetrize

    def recorded(op):
        lap = op.laplacian if isinstance(op, SearchHamiltonian) else op
        symmetrized.append(lap.matrix.shape)
        return symmetrize(op)

    monkeypatch.setattr(spectral, "symmetrize", recorded)
    cfg = parse_config(path_tables(3, [0.4], **{"target.vertex": target, "sweep.gamma_points": 60, "sweep.t_points": 300}))
    cli.compute_table_row(cfg, 0.4)
    assert symmetrized == [(4, 4)]
    assert eighs == [4]


def dense_revalidate(row, lap, w):
    """The dense row check that the certificate replaced, kept as its oracle for d <= 5."""
    for which in "swE":
        root = row[f"gamma_{which}"]
        if root is None:
            continue
        if abs(_CROSSINGS[which](overlaps_direct(SearchHamiltonian(root, w, lap)))) > 1e-9:
            raise NumericalFailure(f"gamma_{which}={root} fails its defining equation")
    sd = decompose(SearchHamiltonian(row["gamma_opt"], w, lap))
    if abs(sd.eigenvalues[0] - row["E0"]) > 1e-12 or abs(sd.eigenvalues[1] - row["E1"]) > 1e-12:
        raise NumericalFailure("E0/E1 at gamma_opt do not reproduce under recomputation")


def verdict(check, *args) -> str | None:
    try:
        check(*args)
    except NumericalFailure as exc:
        return str(exc)
    return None


def uncertified_rows(monkeypatch, config):
    """Every (row, solver) a tables run would certify, computed without the certificate.

    Each comes with the row's Laplacian and target, for the dense oracle.
    """
    seen = []
    monkeypatch.setattr(cli, "_certify_row", lambda *args: seen.append(args))
    cfg = parse_config(config)
    rows = []
    for p in cfg.p_values:
        cli.compute_table_row(cfg, p)
        lap, solver = cli._build_graph(cfg, p)
        rows.append((*seen[-1], lap, solver.target))
    return rows


def path_tables(d, ps, **extra):
    return {"graph.family": "path-power", "graph.d": d, "graph.p": ps, "target.vertex": "corner"} | extra


# the golden listing's tables runs, and d=4 rows across the bias range
CERTIFIED_CONFIGS = [
    path_tables(2, [0.4, 0.91], **{"sweep.gamma_points": 120, "sweep.t_points": 400}),
    path_tables(2, [0.91]),
    path_tables(2, [0.4], **{"sweep.gamma_min": 0.05, "sweep.gamma_max": 0.1,
                             "sweep.gamma_points": 20, "sweep.t_points": 200}),
    path_tables(4, [0.91, 0.5, 0.4, 0.1], **{"sweep.gamma_points": 60, "sweep.t_points": 500}),
]


@pytest.mark.parametrize("config", CERTIFIED_CONFIGS)
def test_certificate_agrees_with_the_dense_oracle(monkeypatch, config):
    rows = uncertified_rows(monkeypatch, config)
    for row, solver, lap, w in rows:
        assert verdict(CERTIFY_ROW, row, solver) is None, row["p"]
        assert verdict(dense_revalidate, row, lap, w) is None, row["p"]


def mutate_engine(monkeypatch, mutation):
    """Break the secular engine as a scratch check of the engine once did."""
    if mutation == "invisible levels dropped":
        init = spectral.SecularSolver.__init__

        def dropped(self, lap, w):
            init(self, lap, w)
            self._invisible = self._invisible[:0]

        monkeypatch.setattr(spectral.SecularSolver, "__init__", dropped)
        return
    solve_batch = spectral.SecularSolver._solve_batch

    def mutated(self, gammas):
        spectra = []
        for spec in solve_batch(self, gammas):
            if mutation == "amplitudes scaled by 1 + 1e-9 a":
                scale = 1.0 + 1e-9 * np.arange(spec.amplitudes.size)
                spec = dataclasses.replace(spec, amplitudes=spec.amplitudes * scale)
            else:
                visible = spec.level_index >= 0
                spec = dataclasses.replace(
                    spec,
                    energies=spec.energies * (1.0 + 1e-9),
                    levels=np.where(visible, spec.levels * (1.0 + 1e-9), spec.levels),
                )
            spectra.append(spec)
        return spectra

    monkeypatch.setattr(spectral.SecularSolver, "_solve_batch", mutated)


@pytest.mark.parametrize(
    "mutation, rejected",
    [
        # pi(t) and the third level are outside both checks' reach: the
        # optimizer's and the degeneracy tests' business
        ("amplitudes scaled by 1 + 1e-9 a", False),
        ("invisible levels dropped", False),
        ("visible levels shifted by 1e-9 relative", True),
    ],
)
def test_certificate_rejects_what_the_dense_oracle_rejects(monkeypatch, mutation, rejected):
    mutate_engine(monkeypatch, mutation)
    rows = uncertified_rows(monkeypatch, path_tables(4, [0.91, 0.5, 0.1], **{"sweep.gamma_points": 60, "sweep.t_points": 500}))
    rows += uncertified_rows(monkeypatch, CERTIFIED_CONFIGS[0])
    for row, solver, lap, w in rows:
        dense = verdict(dense_revalidate, row, lap, w)
        certificate = verdict(CERTIFY_ROW, row, solver)
        assert (dense is not None) == rejected, (row["p"], dense)
        assert (certificate is not None) == rejected, (row["p"], certificate)


def test_certificate_bounds_hold_against_dense_eigh():
    # the certified intervals contain the dense energies and crossings, on
    # lattices (one at an interior target, vertex 102 = (1, 2, 1, 2), one at
    # the p = 0.91 resonance), on a product of a lazy axis (one with a
    # self-loop) and on graphs that are not products, their own 1-fold powers
    lazy = TransitionGraph.from_weights(2, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0}, "custom")
    lazy3 = TransitionGraph.from_weights(3, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 2): 0.5, (2, 1): 1.0}, "custom")
    inputs = [
        (cartesian_power(path_graph(0.5), 3)[1], 0, [0.4, 1.0, 1.2, 2.5]),
        (cartesian_power(path_graph(0.4), 4)[1], 102, [0.4, 1.0, 1.2, 2.5]),
        (cartesian_power(path_graph(0.91), 4)[1], 0, [0.4, 1.0197, 1.2, 2.5]),
        (cartesian_power(lazy, 3)[1], 0, [0.4, 1.0, 1.2, 2.5]),
        (probabilistic_laplacian(lazy3), 1, [0.4, 1.0, 1.2, 2.5]),
        (probabilistic_laplacian(complete_graph(16)), 0, [0.5, 0.9375, 2.0]),
    ]
    for lap, w, gammas in inputs:
        solver = spectral.SecularSolver(lap, w)
        for cert in solver.certify_low_pairs(gammas):
            dense = overlaps_direct(SearchHamiltonian(cert.gamma, w, lap))
            assert abs(dense.e0 - cert.report.e0) <= cert.residuals[0]
            assert abs(dense.e1 - cert.report.e1) <= cert.residuals[1]
            assert max(cert.residuals) < 1e-13
            for which in ("s", "w", "E"):
                value, bound = cert.crossing(which)
                assert abs(_CROSSINGS[which](dense) - value) <= bound + 1e-15, which


def test_certificate_sees_a_laplacian_it_does_not_stand_for(monkeypatch):
    # the residual runs on the solver's own axis matrix, not on the spectra it
    # is handed, so the spectra of another bias show in the residuals, and far
    # enough off in the ordering (at gamma = 1 the p = 0.6 energies still
    # order, with r0 near 0.05; at gamma = 0.5 they do not)
    _, lap, _ = cartesian_power(path_graph(0.5), 2)
    solver = spectral.SecularSolver(lap, 0)

    def spectra_of(p):
        other = spectral.SecularSolver(cartesian_power(path_graph(p), 2)[1], 0)
        monkeypatch.setattr(solver, "solve_many", other.solve_many)

    spectra_of(0.5 + 1e-6)
    assert min(solver.certify_low_pairs([1.0])[0].residuals) > 1e-7
    spectra_of(0.6)
    with pytest.raises(ConvergenceFailure, match="cannot certify"):
        solver.certify_low_pairs([0.5])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_engine_builds_no_dense_laplacian_of_a_product(d):
    # the set-up, the scan, the optimizer and the row certificate read the
    # graph's edges and its axis; at d = 6 one dense Delta alone is 134 MB
    _, lap, _ = cartesian_power(path_graph(0.91), d)
    tracemalloc.start()
    try:
        solver = spectral.SecularSolver(lap, 0)
        crit = search.gamma_critical_points(solver, grid_points=30)
        opt = optimize_search(solver, (0.8 * crit.gamma_E, 1.2 * crit.gamma_E), gamma_points=20, t_points=200)
        solver.certify_low_pairs([crit.gamma_s, crit.gamma_w, crit.gamma_E, opt.gamma_opt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "matrix" not in lap.__dict__
    assert peak < 32e6


def test_spectrum_builds_no_dense_laplacian(tmp_path, monkeypatch):
    # laplacian.csv is written from the Laplacian's cells: at the d = 6 cap the
    # dense Delta alone would be 134 MB
    built = []
    build = cli._build_graph
    monkeypatch.setattr(cli, "_build_graph", lambda *args: built.append(build(*args)) or built[-1])
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out", **{"graph.d": 6}))
    tracemalloc.start()
    try:
        assert cli.main(["spectrum", "--config", cfg]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [(lap, _)] = built
    assert "matrix" not in lap.__dict__
    assert peak < 32e6


def test_certificate_checks_sqrt_mu_over_vol_against_the_axis(monkeypatch):
    # a measure 5e-11 relative off at the target passes the set-up, whose
    # tolerance is 1e-10, and the row reads its sqrt(mu/vol) cell from it
    cfg = parse_config(path_tables(2, [0.4], **{"sweep.gamma_points": 60, "sweep.t_points": 300}))
    lap, solver = cli._build_graph(cfg, 0.4)
    g, measure, w = lap.graph, lap.measure, solver.target
    mu = measure.mu.copy()
    mu[w] *= 1.0 + 5e-11
    shifted = Laplacian(g, VertexMeasure(mu, measure.volume))
    built = shifted, spectral.SecularSolver(shifted, w)
    monkeypatch.setattr(cli, "_build_graph", lambda *args: built)
    with pytest.raises(NumericalFailure, match=r"sqrt\(mu/vol\) cell"):
        cli.compute_table_row(cfg, 0.4)


@pytest.mark.parametrize(
    "config, expected",
    [
        ({"graph.family": "path-power", "graph.p": 0.4, "graph.d": 2}, [4]),
        ({"graph.family": "path-power", "graph.p": 0.91, "graph.d": 3, "target.vertex": 21}, [4]),
        ({"graph.family": "complete", "graph.N": 8}, [8]),
    ],
)
def test_spectrum_eigendecomposes_no_hamiltonian(tmp_path, monkeypatch, config, expected):
    # a lattice takes its spectra from the 4 x 4 axis, with no n x n eigh; the
    # complete graph takes one of its Laplacian; no Hamiltonian is decomposed
    calls = count_eigh(monkeypatch)
    extra = {"output.path": str(tmp_path / "out"), "spectrum.gamma_values": [0.5, 1.0, 2.0]}
    cfg = write_config(tmp_path, config | extra)
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert calls == expected


def test_export_matrix_csv_formats_every_cell_as_alone(tmp_path):
    # cells are formatted once per bit pattern: -0.0 must keep its own text
    matrix = np.array(
        [[0.0, -0.0, 1.0 / 3.0, 0.0], [-0.0, 1e-300, 1.0 / 3.0, -1.5], [np.nan, np.inf, -np.inf, 0.0]]
    )
    cli.export_matrix_csv(tmp_path / "m.csv", matrix.shape, stored_cells(matrix))
    expected = "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in matrix)
    assert (tmp_path / "m.csv").read_text() == expected
    assert expected.startswith("0,-0,0.33333333333333331,0\n-0,")


def stored_cells(matrix):
    """Rows, columns and values of the cells of a dense matrix whose bits are not +0.0's, in row-major order."""
    rows, cols = np.nonzero(np.ascontiguousarray(matrix, dtype=float).view(np.int64))
    return rows, cols, matrix[rows, cols]


def per_row_matrix_csv(path, matrix):
    """The per-row formatter export_matrix_csv replaced: one np.unique per row."""
    text = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in matrix:
            bits = np.ascontiguousarray(row, dtype=float).view(np.int64)
            keys, inverse = np.unique(bits, return_inverse=True)
            for key, value in zip(keys.tolist(), keys.view(float).tolist()):
                text.setdefault(key, format(value, ".17g"))
            cells = np.array([text[key] for key in keys.tolist()], dtype=object)
            fh.write(",".join(cells[inverse].tolist()) + "\n")


@pytest.mark.parametrize("kind", ["lattice", "lattice d5", "signed zeros", "dense"])
def test_export_matrix_csv_matches_the_per_row_formatter(tmp_path, kind):
    rng = np.random.default_rng(3)
    if kind == "lattice":
        matrix = cartesian_power(path_graph(0.91), 3)[1].matrix
    elif kind == "lattice d5":
        matrix = cartesian_power(path_graph(0.5), 5)[1].matrix
    elif kind == "signed zeros":
        matrix = np.array([[0.0, -0.0, 0.0, -0.0, 2.5, -0.0], [-0.0, 0.0, -0.0, 0.0, 0.0, 0.0]])
    else:
        matrix = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-300, 300, (40, 40))
    cli.export_matrix_csv(tmp_path / "sparse.csv", matrix.shape, stored_cells(matrix))
    per_row_matrix_csv(tmp_path / "per_row.csv", matrix)
    assert (tmp_path / "sparse.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()


def test_golden_script_lists_every_run():
    # every change's sameness check is this listing: each config must still
    # validate and write at least one file
    script = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    listed = {line.split()[1].split("/")[0] for line in result.stdout.splitlines()}
    runs = next(
        node.value
        for node in ast.parse(script.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "RUNS"
    )
    assert listed == {run.elts[0].value for run in runs.elts}
