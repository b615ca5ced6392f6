"""Command-line surface tests: emission schema, determinism, exit codes,
sweeps, and the verification suites."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import fluctdyn
from fluctdyn import verify
from fluctdyn.cli import CSV_COLUMNS, ROWS_PER_BLOCK, main, series_csv
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


def _reference_series_csv(report):
    """The series CSV with each numeric cell formatted on its own as ``repr(float(x))``."""
    s = report.series
    fmt = lambda x: repr(float(x))
    lines = [",".join(CSV_COLUMNS)]
    for k in range(len(s.t)):
        deg = bool(s.degenerate[k])
        rate = lambda x: "" if deg else fmt(x)
        lhs = "" if deg else fmt(float(s.mu_dot[k]) ** 2 + float(s.sigma_dot[k]) ** 2)
        cells = [fmt(s.t[k]), fmt(s.mu[k]), fmt(s.sigma[k]), fmt(s.mu_dot[k]), rate(s.sigma_dot[k])]
        cells += [fmt(s.sigma_v[k]), fmt(s.v2_mean[k]), lhs, fmt(s.v2_mean[k]), rate(s.residual_r2[k])]
        cells += [fmt(s.cs_residual[k]), "1" if s.tight[k] else "0", "1" if deg else "0", fmt(s.norm_defect[k])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_series_csv_matches_per_value_reference(name):
    report = run_scenario(default_config(name))
    got, want = series_csv(report).splitlines(), _reference_series_csv(report).splitlines()
    assert len(got) == len(want)
    # Name the first differing line: pytest's diff of the whole text is slow.
    bad = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert series_csv(report).endswith("\n")


@pytest.mark.parametrize(
    "rows", [2, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 2 * ROWS_PER_BLOCK + 1]
)
def test_series_file_written_in_blocks_matches_per_value_reference(tmp_path, rows):
    raw = _with(EX1, "grid", n_steps=rows - 1)
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    report = run_scenario(ScenarioConfig.from_dict(raw))
    want = _reference_series_csv(report)
    assert series_csv(report) == want
    assert (tmp_path / "example1_series.csv").read_text() == want


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
        # A misspelt tolerance would otherwise leave its default in force.
        pytest.param(_with(EX1, "tolerances", tight_tl=1e-3), "tolerances.tight_tl", id="misspelt_tolerance"),
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
        pytest.param(
            _with(CUSTOM, "params", hamiltonian={"constant": [[[1.0, 0.0], [1e-11, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}),
            "params.hamiltonian.constant",
            id="non_hermitian_matrix",
        ),
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
    err = capsys.readouterr().err
    assert f"config error at {path}: " in err and err.count(path) == 1
    assert not (tmp_path / "out" / f"{raw['name']}_series.csv").exists()


def test_run_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing_file", "invalid_json"])
def test_an_unreadable_config_is_reported_alike_by_run_and_sweep(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    sweep = ["--param", "params.nu0", "--values", "1"] if command == "sweep" else []
    assert main([command, "--config", str(path), *sweep, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at <file>: ") and err.count("<file>") == 1 and str(path) in err
    assert not (tmp_path / "out").exists()


def test_a_misspelt_tolerance_lists_every_known_name(tmp_path, capsys):
    cfg = write_config(tmp_path, _with(EX1, "tolerances", norm_budgt=1e-8))
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    names = "('tight_tol', 'sigma_floor', 'norm_budget', 'overlay_tol', 'residual_tol')"
    assert capsys.readouterr().err == f"config error at tolerances.norm_budgt: unknown tolerance; expected one of {names}\n"


SIGMA_Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


@pytest.mark.parametrize(
    "raw,path",
    [
        pytest.param(dict(EX1, methd="midpoint"), "methd", id="methd"),
        # No scenario draws random numbers; verify --seed is the CLI's seed.
        pytest.param(dict(EX1, seed=5), "seed", id="seed"),
        pytest.param(_with(EX1, "grid", nsteps=9), "grid.nsteps", id="grid.nsteps"),
        pytest.param(_with(EX1, "params", omgea0=3.0), "params.omgea0", id="params.omgea0"),
        # b(t) is example2's; example1 would run with A = a(t) sx alone.
        pytest.param(_with(EX1, "params", b="t2"), "params.b", id="params.b_on_example1"),
        pytest.param(_with(EX1, "params", a={"fn": "t", "scal": 2.0}), "params.a.scal", id="params.a.scal"),
        # Once silenced example3's below-recommended-cutoff warning.
        pytest.param(_with(EX3, "params", allow_small_s=True), "params.allow_small_s", id="params.allow_small_s"),
        pytest.param(
            _with(CUSTOM, "params", hamiltonian={"constant": SIGMA_Z, "constnt": SIGMA_Z}),
            "params.hamiltonian.constnt",
            id="params.hamiltonian.constnt",
        ),
        pytest.param(
            _with(
                dict(CUSTOM, method="midpoint"), "params", observable={"constant": SIGMA_Z, "samples": [SIGMA_Z] * 11}
            ),
            "params.observable",
            id="constant_and_samples",
        ),
    ],
)
def test_an_undeclared_key_exits_2(tmp_path, capsys, raw, path):
    # Each was once ignored: the run went ahead without it and exited 0.
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_a_sweep_over_an_undeclared_key_exits_2(tmp_path, capsys):
    # Once seven files whose summary rows were identical: params.omgea0 was ignored.
    config = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs", "example1.json")
    out = tmp_path / "out"
    out.mkdir()
    args = ["sweep", "--config", config, "--param", "params.omgea0", "--values", "1", "2", "--output-dir", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at params.omgea0: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_a_run_over_its_norm_budget_exits_3(tmp_path, capsys):
    # The exact propagator is unitary to rounding; a budget below it flags the run.
    cfg = write_config(tmp_path, _with(EX1, "tolerances", norm_budget=1e-300))
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 3
    report = json.loads((tmp_path / "out" / "example1_report.json").read_text())
    assert report["failed"] and report["flags"] == ["norm_budget_exceeded:2.220e-16"]
    assert (tmp_path / "out" / "example1_series.csv").exists()
    assert "invariant flags: ['norm_budget_exceeded:2.220e-16']" in capsys.readouterr().err


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


# a = t^2 overflows beyond t ~ 1.3e154, so A has no finite value there.
OVERFLOWING_OBSERVABLE = _with(_with(EX1, "params", a="t2"), "grid", t1=1e200)
# hbar * omega0 = 1e309 overflows at every midpoint of H, and the primitive
# hbar (omega0 / nu0) sin(nu0 t) that exact_commuting reads is inf * 0 at t0.
OVERFLOWING_HAMILTONIAN = _with(EX1, "params", omega0=1e308, hbar=10.0)


@pytest.mark.parametrize(
    "raw,method,breakdown",
    [
        pytest.param(OVERFLOWING_OBSERVABLE, "midpoint", "coefficient value inf", id="overflowing_observable"),
        pytest.param(OVERFLOWING_HAMILTONIAN, "midpoint", "coefficient value inf", id="overflowing_hamiltonian"),
        pytest.param(
            OVERFLOWING_OBSERVABLE, "exact_commuting", "coefficient value inf", id="overflowing_observable_exact"
        ),
        pytest.param(
            OVERFLOWING_HAMILTONIAN, "exact_commuting", "coefficient integral nan", id="overflowing_hamiltonian_exact"
        ),
    ],
)
def test_run_numeric_breakdown_exits_3(tmp_path, capsys, raw, method, breakdown):
    cfg = write_config(tmp_path, dict(raw, method=method))
    out = tmp_path / "out"
    args = ["sweep", "--config", cfg, "--param", "params.nu0", "--values", "1.0", "2.0", "--output-dir", str(out)]
    # Record every warning, as a user's stderr would show it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric breakdown: {breakdown} is not a finite real number at t = ")
        assert err.count("\n") == 1
        assert main(args) == 3
        err += capsys.readouterr().err
        assert f"numeric breakdown for params.nu0=1.0: {breakdown}" in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists() or not any(out.iterdir())


def test_a_grid_whose_span_overflows_is_a_config_error(tmp_path, capsys):
    # t1 - t0 = 2e308 overflowed inside np.linspace, which warned twice and
    # gave a grid of NaN: the run broke down with exit 3.
    cfg = write_config(tmp_path, _with(EX1, "grid", t0=-1e308, t1=1e308, n_steps=10))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at grid: ") and err.count("\n") == 1
    assert caught == []
    assert not out.exists()


def test_each_config_is_built_once(tmp_path, count_builds):
    builds = count_builds("example1")
    cfg = write_config(tmp_path, _with(EX1, "grid", n_steps=50))
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "run")]) == 0
    assert len(builds) == 1
    args = ["sweep", "--config", cfg, "--param", "params.nu0", "--values", "1", "2", "3"]
    assert main(args + ["--output-dir", str(tmp_path / "sweep")]) == 0
    # The base config, then one config per value.
    assert len(builds) == 1 + 4


def test_sweep_breaking_down_after_a_completed_value_leaves_no_files(tmp_path, capsys):
    # omega0 = 1.0 completes; hbar * omega0 = 1e309 overflows at every midpoint of H.
    cfg = write_config(tmp_path, dict(_with(EX1, "params", hbar=10.0), method="midpoint"))
    out = tmp_path / "out"
    args = ["sweep", "--config", cfg, "--param", "params.omega0", "--values", "1.0", "1e308", "--output-dir", str(out)]
    assert main(args) == 3
    assert "numeric breakdown for params.omega0=1e+308: " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sweep_memory_does_not_grow_with_the_number_of_values(tmp_path):
    cfg = write_config(tmp_path, EX3)

    def peak(values):
        args = ["sweep", "--config", cfg, "--param", "params.omega", "--values", *values]
        tracemalloc.start()
        try:
            assert main(args + ["--output-dir", str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(["1.0"])  # imports and first-call caches
    two = peak(["1.0", "1.1"])
    six = peak(["1.0", "1.1", "1.2", "1.3", "1.4", "1.5"])
    assert six <= 1.25 * two, (two, six)


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


@pytest.mark.parametrize(
    "param,value,node",
    [("params.a.fn", '"cos"', "params.a"), ("params.omega0.x", "1", "params.omega0")],
    ids=["through_a_string", "through_a_number"],
)
def test_a_sweep_path_through_a_non_object_exits_2(tmp_path, capsys, param, value, node):
    # Once a TypeError traceback (exit 1) from assigning into the string or number.
    cfg = write_config(tmp_path, EX1)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--param", param, "--values", value, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {node}: ") and err.count("\n") == 1 and err.count(node + ":") == 1
    assert not out.exists()


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


def test_verify_creates_the_output_directory(tmp_path):
    out = tmp_path / "missing" / "deeper" / "verify.json"
    assert main(["verify", "truncation", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["failed"] == 0


@pytest.mark.parametrize(
    "command,output,taken",
    [
        # A file where an output directory has to be.
        pytest.param("verify", "blocker/verify.json", None, id="verify_dir"),
        pytest.param("run", "blocker", None, id="run_dir"),
        pytest.param("sweep", "blocker", None, id="sweep_dir"),
        # A directory where an output file has to be: its temp file is written first.
        pytest.param("verify", "out/verify.json", "out/verify.json", id="verify_file"),
        pytest.param("run", "out", "out/example1_report.json", id="run_file"),
        pytest.param("sweep", "out", "out/example1_params_nu0_2_manifest.json", id="sweep_file"),
        pytest.param("sweep", "out", "out/example1_params_nu0_sweep.csv", id="sweep_summary"),
    ],
)
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, command, output, taken):
    cfg = write_config(tmp_path, _with(EX1, "grid", n_steps=50))
    (tmp_path / "blocker").write_text("")
    if taken:
        (tmp_path / taken).mkdir(parents=True)
    options = {
        "verify": ["truncation", "--output"],
        "run": ["--config", cfg, "--output-dir"],
        "sweep": ["--config", cfg, "--param", "params.nu0", "--values", "1", "2", "--output-dir"],
    }
    assert main([command, *options[command], str(tmp_path / output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    # The error names the path asked for, never a temp file.
    assert ".tmp_" not in err and (taken is None or err.endswith(f"'{tmp_path / taken}'\n"))
    assert list(tmp_path.rglob(".tmp_*")) == []
    # No output file is left in place: a command writes all of its files or none.
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["blocker", "config.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["algebra", "--seed", "-1"],
        ["bounds", "--seed", "-1"],
        ["bloch", "--seed", "-1"],
        ["truncation", "--seed", "-1"],
        ["all", "--seed", "-5"],
    ],
    ids=["algebra", "bounds", "bloch", "truncation", "all"],
)
def test_verify_rejects_a_negative_seed(capsys, argv):
    # numpy's generators raised ValueError (a traceback, exit 1) or, where
    # the suite draws nothing, the seed was ignored (exit 0).
    with pytest.raises(SystemExit) as info:
        main(["verify", *argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "argument --seed: expected a non-negative integer" in err


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


def _fluctdyn_process(args, timeout=60, options=("-c",)):
    """``python <options> args`` with this fluctdyn on the path, ``python -c <code> args`` by default."""
    src = os.path.dirname(os.path.dirname(fluctdyn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *options, *args], capture_output=True, text=True, env=env, timeout=timeout)


# Runs one command, then prints the fluctdyn modules it loaded as its last line.
FOOTPRINT = (
    "import sys; from fluctdyn.cli import main; code = main(sys.argv[1:]); "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'fluctdyn')); sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["verify", "truncation"], ["cli", "hilbert", "linops", "verify"]),
        (["verify", "algebra"], ["cli", "dynamics", "fluctuation", "linops", "verify"]),
    ],
    ids=["truncation", "algebra"],
)
def test_verify_imports_only_its_suite(tmp_path, argv, modules):
    proc = _fluctdyn_process([FOOTPRINT, *argv, "--output", str(tmp_path / "verify.json")])
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip().splitlines()[-1]
    assert loaded == str(["fluctdyn"] + [f"fluctdyn.{m}" for m in modules])


def test_run_does_not_import_the_speed_limits(tmp_path):
    cfg = write_config(tmp_path, EX1)
    proc = _fluctdyn_process([FOOTPRINT, "run", "--config", cfg, "--output-dir", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip().splitlines()[-1]
    assert "'fluctdyn.scenarios'" in loaded and "fluctdyn.bounds" not in loaded


def test_package_names_load_on_first_use():
    proc = _fluctdyn_process(
        [
            "import sys, fluctdyn; before = sorted(m for m in sys.modules if m.startswith('fluctdyn')); "
            "names = [getattr(fluctdyn, n) for n in fluctdyn.__all__]; "
            "print(before, fluctdyn.propagate is fluctdyn.dynamics.propagate, 'fluctdyn.bounds' in sys.modules)"
        ]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['fluctdyn']", "True", "True"]
    assert set(fluctdyn.__all__) <= set(dir(fluctdyn))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fluctdyn.nonexistent


@pytest.mark.parametrize("method", ["exact_commuting", "midpoint"])
def test_run_with_a_tiny_hbar_breaks_down_without_a_warning(tmp_path, method):
    # 1j / hbar is infinite at hbar = 1e-309: v_A's commutator bases and the
    # exact route's phase exponent came out NaN with RuntimeWarnings, which
    # -W error turned into a traceback.
    cfg = write_config(tmp_path, dict(_with(EX1, "params", hbar=1e-309), method=method))
    args = ["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]
    proc = _fluctdyn_process(args, options=("-W", "error", "-m", "fluctdyn.cli"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric breakdown: ") and proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "params",
    [
        {"mass": 5e-324},
        {"mass": 5e-324, "omega": 5e-324},
        {"hbar": 1e308, "omega": 1e308},
        {"alpha": [1e308, 0.5]},
        {"z": [1e308, 0.0]},
    ],
    ids=["tiny_mass", "tiny_mass_and_omega", "huge_hbar_omega", "huge_alpha", "huge_z"],
)
def test_an_oscillator_beyond_the_float_range_is_a_config_error(tmp_path, capsys, params):
    # Each number is valid, but together they take a matrix entry out of the
    # float range: once a RuntimeWarning, or a ZeroDivisionError or
    # OverflowError traceback.
    cfg = write_config(tmp_path, _with(EX3, "params", **params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at params: hbar, mass, omega, alpha and z leave the float range (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("alpha", [30.0, 1e3, 1e10, 1e154])
def test_a_large_displacement_ends_in_bounded_time(tmp_path, alpha):
    # The recommended cutoff was the unchecked seed of a search whose terms
    # overflowed past |alpha|^2 of about 709, and at alpha = 1e10 the search
    # walked one level per step and did not end.
    cfg = write_config(tmp_path, _with(_with(EX3, "params", alpha=[alpha, 0.0]), "grid", n_steps=200))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert code in (0, 2, 3) and time.perf_counter() - start < 5.0


def test_a_midpoint_step_beyond_the_float_range_breaks_down(tmp_path, capsys):
    # dt / hbar = 1 / 1e-309 is infinite: herm_expm once raised a ValueError traceback.
    raw = dict(_with(_with(EX1, "params", hbar=1e-309), "grid", n_steps=5), method="midpoint")
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numeric breakdown: herm_expm scale -infj is not finite\n"


def test_a_midpoint_step_whose_exponent_overflows_breaks_down(tmp_path, capsys):
    # dt = 1e307 is finite, but dt times an eigenvalue of H is not: the step
    # exponential warned twice before the run broke down on its statistics.
    raw = dict(_with(EX3, "grid", t1=1e308, n_steps=10), method="midpoint")
    cfg = write_config(tmp_path, raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numeric breakdown: herm_expm exponent is not finite at t = 5e+306\n"
    assert caught == []


def _run_huge_frequency(tmp_path, method):
    """Stock example1 at omega0 = 1e10 in a fresh process (at most 10 s), with no traceback or warning."""
    raw = dict(EX1, grid={"t0": 0.0, "t1": 5.0, "n_steps": 5000}, method=method)
    cfg = write_config(tmp_path, _with(raw, "params", omega0=1e10))
    console = "import sys; from fluctdyn.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _fluctdyn_process([console, "run", "--config", cfg, "--output-dir", str(tmp_path)], timeout=10)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    return proc


def test_run_with_a_huge_frequency_follows_the_exact_phase(tmp_path):
    # The 2e10-rad phase is the primitive itself, written as the overlays
    # write it; a coefficient quadrature once flagged overlay_deviation here.
    proc = _run_huge_frequency(tmp_path, "exact_commuting")
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads((tmp_path / "example1_report.json").read_text())
    assert report["flags"] == []
    gaps = report["summary"]["max_overlay_deviation"]
    assert gaps["mu"] <= 1e-12 and gaps["sigma"] <= 1e-12


def test_run_with_a_huge_frequency_ends_with_flags(tmp_path):
    # Midpoint's phase error at 1e10 rad/s is of order one: the run says so.
    proc = _run_huge_frequency(tmp_path, "midpoint")
    assert proc.returncode == 3
    assert "invariant flags: ['overlay_deviation:mu:" in proc.stderr


@pytest.mark.parametrize(
    "params,breakdown",
    [
        pytest.param({"omega0": 1e155}, "rate statistics are not finite at t = ", id="omega0_1e155"),
        pytest.param({"omega0": 1e300}, "rate statistics are not finite at t = 0.001", id="omega0_1e300"),
        # Only var * sigma_v^2, of degree four in A, overflows; it once passed as inf and nan.
        pytest.param(
            {"a": {"fn": "const", "scale": 1e150}},
            "Cauchy-Schwarz residuals are not finite at t = 0.0\n",
            id="observable_1e150",
        ),
    ],
)
def test_run_with_an_overflowing_frequency_ends_without_a_traceback(tmp_path, params, breakdown):
    # Once numpy warnings and then an OverflowError traceback (exit 1); now a
    # numeric breakdown (exit 3) named on stderr, and nothing else there.
    raw = dict(EX1, grid={"t0": 0.0, "t1": 5.0, "n_steps": 5000})
    cfg = write_config(tmp_path, _with(raw, "params", **params))
    console = "import sys; from fluctdyn.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _fluctdyn_process([console, "run", "--config", cfg, "--output-dir", str(tmp_path)], timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"numeric breakdown: {breakdown}") and proc.stderr.count("\n") == 1


def test_run_with_a_large_observable_exits_0(tmp_path, capsys):
    # <1e8 sz> on |+> is 0 with an imaginary part of rounding, 3.7e-9 at
    # t = 0.3, that once failed a check scaled by |<A>| alone (exit 1).
    raw = _with(CUSTOM, "params", psi0=[[2**-0.5, 0.0], [2**-0.5, 0.0]])
    raw["params"]["observable"] = {"constant": [[[1e8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e8, 0.0]]]}
    raw = dict(raw, grid={"t0": 0.0, "t1": 5.0, "n_steps": 100}, method="midpoint")
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "custom_report.json").read_text())["flags"] == []


def test_run_with_a_huge_frequency_and_a_tiny_amplitude_exits_0(tmp_path):
    # Every statistic is finite, and omega0 a = 1 although omega0^2 overflows.
    raw = dict(EX1, grid={"t0": 0.0, "t1": 5.0, "n_steps": 5000})
    cfg = write_config(tmp_path, _with(raw, "params", omega0=1e200, a={"fn": "const", "scale": 1e-200}))
    console = "import sys; from fluctdyn.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _fluctdyn_process([console, "run", "--config", cfg, "--output-dir", str(tmp_path)], timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "example1_report.json").read_text())["flags"] == []
