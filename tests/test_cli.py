"""Command-line surface tests: emission schema, determinism, exit codes,
sweeps, and the verification suites."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fluctdyn import verify
from fluctdyn.cli import CSV_COLUMNS, main, series_csv
from fluctdyn.scenarios import ConfigError, ScenarioConfig, default_config, run_scenario

EX1 = {
    "name": "example1",
    "params": {"omega0": 1.0, "nu0": 1.0, "a": "t"},
    "grid": {"t0": 0.0, "t1": 5.0, "n_steps": 500},
}

EX3 = {
    "name": "example3",
    "params": {"alpha": [2.0, 1.0], "z": [0.5, 0.5], "s": 20},
    "grid": {"t0": 0.0, "t1": 6.283185307179586, "n_steps": 400},
}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_example1_emits_fixed_schema(tmp_path):
    cfg = write_config(tmp_path, EX1)
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "example1_series.csv")
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 501
    cols = {name: i for i, name in enumerate(header)}
    for row in rows:
        if row[cols["degenerate"]] == "1":
            assert row[cols["sigma_dot"]] == ""
            assert row[cols["residual_r2"]] == ""
            assert row[cols["lhs_sq_sum"]] == ""
        else:
            assert row[cols["tight"]] == "1"
    report = json.loads((tmp_path / "example1_report.json").read_text())
    assert report["summary"]["tight_fraction"] == 1.0
    assert not report["failed"]
    manifest = json.loads((tmp_path / "example1_manifest.json").read_text())
    assert len(manifest["files"]) == 2
    for f in manifest["files"]:
        assert f.endswith(("_series.csv", "_report.json"))


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_series_csv_cells_are_the_series_values(name):
    # Stock grids: example1 has a degenerate point at t = 0, and both have
    # points where numpy's mu_dot**2 + sigma_dot**2 is one ulp off the
    # Python-float sum the CSV carries.
    report = run_scenario(default_config(name))
    s = report.series
    header, *rows = [line.split(",") for line in series_csv(report).splitlines()]
    assert header == list(CSV_COLUMNS) and len(rows) == len(s.t)
    degenerate = s.degenerate.tolist()
    assert any(degenerate) == (name == "example1")
    lhs = [m**2 + d**2 for m, d in zip(s.mu_dot.tolist(), s.sigma_dot.tolist())]
    for column, cells in zip(header, zip(*rows)):
        blank = [cell == "" for cell in cells]
        if column in ("sigma_dot", "lhs_sq_sum", "residual_r2"):
            assert blank == degenerate, column
        else:
            assert not any(blank), column
        if column in ("tight", "degenerate"):
            assert list(cells) == ["1" if x else "0" for x in getattr(s, column).tolist()]
            continue
        field = "v2_mean" if column == "rhs_v2" else column
        expected = lhs if column == "lhs_sq_sum" else getattr(s, field).tolist()
        for cell, value in zip(cells, expected):
            assert cell == "" or float(cell) == value, column


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, EX1)
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert main(["run", "--config", cfg, "--output-dir", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--output-dir", str(out2)]) == 0
    for stem in ("example1_series.csv", "example1_report.json"):
        assert (out1 / stem).read_bytes() == (out2 / stem).read_bytes()


def test_run_example3_norm_defect_column(tmp_path):
    cfg = write_config(tmp_path, EX3)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "example3_series.csv")
    k = header.index("norm_defect")
    worst = max(float(row[k]) for row in rows)
    assert worst <= 1e-9


def test_run_missing_required_param_exits_2(tmp_path, capsys):
    raw = {"name": "example1", "params": {"nu0": 1.0, "a": "t"}, "grid": {"t1": 5.0, "n_steps": 10}}
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "params.omega0" in err


NAN, INF = float("nan"), float("inf")

CUSTOM = {
    "name": "custom",
    "params": {
        "dim": 2,
        "hamiltonian": {"constant": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
        "observable": {"constant": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
        "psi0": [[1.0, 0.0], [0.0, 0.0]],
    },
    "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 10},
}


def _with(raw, section, **fields):
    return dict(raw, **{section: dict(raw.get(section, {}), **fields)})


@pytest.mark.parametrize(
    "raw,path",
    [
        # NaN passes "value <= 0" and would mark every point not tight.
        pytest.param(_with(EX1, "tolerances", tight_tol=NAN), "tolerances.tight_tol", id="nan_tolerance"),
        # JSON true is a Python int; it must not pass as s = 1 or t0 = 1.0.
        pytest.param(_with(EX3, "params", s=True), "params.s", id="bool_cutoff"),
        pytest.param(_with(EX1, "grid", t0=True), "grid.t0", id="bool_t0"),
        pytest.param(_with(EX1, "grid", n_steps=2.7), "grid.n_steps", id="fractional_step_count"),
        pytest.param(_with(EX1, "grid", t1=INF), "grid.t1", id="inf_t1"),
        pytest.param(_with(EX1, "params", omega0=INF), "params.omega0", id="inf_omega0"),
        pytest.param(_with(EX1, "params", omega0=10**400), "params.omega0", id="int_beyond_float_omega0"),
        pytest.param(_with(EX1, "params", a={"fn": "t", "scale": NAN}), "params.a.scale", id="nan_coefficient_scale"),
        pytest.param(_with(EX3, "params", alpha=[NAN, 1.0]), "params.alpha[0]", id="nan_alpha"),
        pytest.param(
            _with(CUSTOM, "params", observable={"constant": [[[0.0, 0.0], [1.0, NAN]], [[1.0, 0.0], [0.0, 0.0]]]}),
            "params.observable.constant[0][1][1]",
            id="nan_matrix_entry",
        ),
        pytest.param(_with(CUSTOM, "params", psi0=[[1.0, 0.0], [NAN, 0.0]]), "params.psi0[1][0]", id="nan_psi0"),
        # JSON true and numeric strings must not pass as 1.0 and 0.0.
        pytest.param(_with(CUSTOM, "params", psi0=[[True, 0.0], [0.0, 0.0]]), "params.psi0[0][0]", id="bool_psi0"),
        pytest.param(
            _with(CUSTOM, "params", hamiltonian={"constant": [[[1.0, 0.0], ["0", 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}),
            "params.hamiltonian.constant[0][1][0]",
            id="string_matrix_entry",
        ),
    ],
)
def test_run_invalid_number_exits_2(tmp_path, capsys, raw, path):
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(raw)
    assert info.value.path == path
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error at {path}" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{raw['name']}_series.csv").exists()


def test_run_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 2


def test_run_invariant_failure_exits_3(tmp_path, capsys):
    raw = dict(EX1)
    raw["tolerances"] = {"overlay_tol": 1e-16}
    cfg = write_config(tmp_path, raw)
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path)])
    assert code == 3
    # files still emitted (flags recorded), exit code carries the failure
    assert (tmp_path / "example1_report.json").exists()
    report = json.loads((tmp_path / "example1_report.json").read_text())
    assert report["failed"] and report["flags"]


@pytest.mark.parametrize(
    "raw",
    [
        # a = t^2 overflows beyond t ~ 1.3e154, so A has no finite value there.
        pytest.param(_with(_with(EX1, "params", a="t2"), "grid", t1=1e200), id="overflowing_observable"),
        # hbar * omega0 = 1e309 overflows at every midpoint of H.
        pytest.param(_with(EX1, "params", omega0=1e308, hbar=10.0), id="overflowing_hamiltonian"),
    ],
)
def test_run_numeric_breakdown_exits_3(tmp_path, capsys, raw):
    cfg = write_config(tmp_path, dict(raw, method="midpoint"))
    out = tmp_path / "out"
    args = ["sweep", "--config", cfg, "--param", "params.nu0", "--values", "1.0", "2.0", "--output-dir", str(out)]
    # Record every warning, as a user's stderr would show it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numeric breakdown: coefficient value inf is not a finite real number at t = " in err
        assert main(args) == 3
        err += capsys.readouterr().err
        assert "numeric breakdown for params.nu0=1.0: coefficient value inf" in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists() or not any(out.iterdir())


def test_sweep_example3_cutoffs(tmp_path):
    raw = json.loads(json.dumps(EX3))
    raw["grid"]["n_steps"] = 150
    cfg = write_config(tmp_path, raw)
    code = main(
        [
            "sweep",
            "--config",
            cfg,
            "--param",
            "params.s",
            "--values",
            "10",
            "15",
            "20",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "example3_params_s_sweep.csv")
    assert header == ["value", "min_residual", "tight_fraction", "max_norm_defect"]
    assert [r[0] for r in rows] == ["10", "15", "20"]
    for row in rows:
        assert float(row[1]) >= -1e-8
        assert float(row[3]) <= 1e-9


def test_sweep_example1_frequencies_all_tight(tmp_path):
    cfg = write_config(tmp_path, EX1)
    code = main(
        [
            "sweep",
            "--config",
            cfg,
            "--param",
            "params.nu0",
            "--values",
            "0.5",
            "1",
            "2",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "example1_params_nu0_sweep.csv")
    for row in rows:
        assert float(row[2]) == 1.0  # tight fraction per value


def test_sweep_empty_values_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    assert main(["sweep", "--config", cfg, "--param", "params.nu0", "--values"]) == 2


def test_verify_subcommand_all_green(verify_all):
    code, payload = verify_all
    assert code == 0
    assert payload["failed"] == 0
    suites = {c["suite"] for c in payload["checks"]}
    assert suites == {"algebra", "bounds", "bloch", "truncation"}


def test_verify_single_suite_stdout(capsys):
    code = main(["verify", "truncation"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in payload["checks"]]
    assert "mean_excitation_error_s20" in names


@pytest.mark.parametrize("seed", [995202943, 2043792527])
def test_verify_algebra_passes_at_rounding_limited_seeds(seed):
    # Seeds where herm_expm_additive, normalized by max(1, ||e^{(s1+s2) h}||),
    # read 3.4e-10 and 1.2e-10 against its 1e-10 limit.
    failed = [r for r in verify.algebra_suite(seed) if not r.passed]
    assert not failed


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "fluctdyn.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fluctdyn" in proc.stdout
