import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwsearch
from qwsearch import cli
from qwsearch.errors import ConfigError
from qwsearch.cli import parse_config
from qwsearch.graphs import cartesian_power, path_graph
from qwsearch.search import optimize_search


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
    ],
)
def test_parse_config_names_offending_key(payload, key):
    with pytest.raises(ConfigError) as err:
        parse_config(payload)
    assert key in str(err.value)


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


def test_cli_numerical_failure_exits_3(tmp_path, monkeypatch):
    from qwsearch.errors import DegenerateLowStates

    def boom(*args, **kwargs):
        raise DegenerateLowStates("forced")

    monkeypatch.setattr(cli, "decompose", boom)
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out"))
    assert cli.main(["spectrum", "--config", cfg]) == 3


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
    # I - P written with +0.0 off the edges: a negated zero would print "-0"
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_path_config(out) | {"graph.p": 0.4, "graph.d": 2})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    g, _, _ = cartesian_power(path_graph(0.4), 2)
    cli.export_matrix_csv(tmp_path / "oracle.csv", np.eye(g.n) - g.transition_matrix())
    text = (out / "laplacian.csv").read_bytes()
    assert text == (tmp_path / "oracle.csv").read_bytes()
    assert b"-0," not in text and b"-0\n" not in text


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

    expected = find_gamma_critical(cli.path_graph(0.5), 0, "s", (0.3, 1.2))
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
    g, lap, _ = cli.cartesian_power(cli.path_graph(0.5), 2)
    gamma_e = row["gamma_E"]
    opt = optimize_search(g, 0, (0.8 * gamma_e, 1.2 * gamma_e), t_points=300, lap=lap)
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package must run without it
    src = str(Path(qwsearch.__file__).resolve().parents[1])
    code = "import sys, qwsearch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env=os.environ | {"PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exits_2(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, base_path_config(tmp_path / "out"))
    assert cli.main(["tables", "--config", cfg, "--threads", threads]) == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err


def test_tables_row_eigendecomposes_the_laplacian_once(tmp_path, monkeypatch):
    # one secular set-up serves the scan and the optimizer; the other dense
    # solves are the revalidation's three roots and its E0/E1 check
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_path_config(out) | {"graph.p": 0.4, "graph.d": 2, "sweep.gamma_points": 60, "sweep.t_points": 200},
    )
    assert cli.main(["tables", "--config", cfg]) == 0
    row = dict(zip(cli.TABLE_COLUMNS, (out / "tables.csv").read_text().splitlines()[1].split(",")))
    assert all(row[k] for k in ("gamma_s", "gamma_w", "gamma_E"))
    assert calls == [16] * 5


def test_export_matrix_csv_formats_every_cell_as_alone(tmp_path):
    # cells are formatted once per bit pattern: -0.0 must keep its own text
    matrix = np.array(
        [[0.0, -0.0, 1.0 / 3.0, 0.0], [-0.0, 1e-300, 1.0 / 3.0, -1.5], [np.nan, np.inf, -np.inf, 0.0]]
    )
    cli.export_matrix_csv(tmp_path / "m.csv", matrix)
    expected = "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in matrix)
    assert (tmp_path / "m.csv").read_text() == expected
    assert expected.startswith("0,-0,0.33333333333333331,0\n-0,")
