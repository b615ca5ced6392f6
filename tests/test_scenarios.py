"""Scenario-level tests: overlays, classifications, continuity between the
two qubit scenarios, the oscillator run, representation equivalence, and
config validation."""

import json
import os

import numpy as np
import pytest

from fluctdyn.dynamics import TimeGrid, propagate
from fluctdyn.linops import NumericBreakdown
from fluctdyn.scenarios import (
    ConfigError,
    ScenarioConfig,
    default_config,
    picture_equivalence_check,
    run_scenario,
    snr_comparison,
)

DEMO_CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "configs")


def test_example1_defaults_tight_everywhere():
    rep = run_scenario(default_config("example1"))
    assert not rep.failed
    assert max(rep.overlay_dev.values()) <= 1e-7
    s = rep.series
    assert np.all(s.tight[~s.degenerate])
    assert rep.tight_fraction == 1.0
    # t = 0 has sigma = 0: degenerate flag with the division-free
    # certificate still evaluated.
    assert s.degenerate[0]
    assert s.cs_residual[0] >= -1e-12
    assert np.isnan(s.sigma_dot[0])


@pytest.mark.parametrize("omega0", [1e3, 1e4])
def test_example1_verdict_independent_of_units(omega0):
    # The residual grows as omega0^2 in absolute terms (-1.9e-8 at 1e3) but
    # stays at rounding relative to <v_A^2>; the run must not fail.
    cfg = ScenarioConfig.from_dict(
        {
            "name": "example1",
            "params": {"omega0": omega0, "nu0": 1.0, "a": "t"},
            "grid": {"t0": 0.0, "t1": 5.0, "n_steps": 5000},
        }
    )
    rep = run_scenario(cfg)
    assert not rep.failed, rep.flags
    s = rep.series
    nondeg = ~s.degenerate
    assert np.min(s.residual_r2[nondeg] / np.maximum(1.0, s.v2_mean[nondeg])) >= -1e-14


def test_example1_constant_coefficient():
    cfg = ScenarioConfig.from_dict(
        {
            "name": "example1",
            "params": {"omega0": 1.0, "nu0": 1.0, "a": {"fn": "const", "scale": 1.3}},
            "grid": {"t0": 0.0, "t1": 5.0, "n_steps": 2000},
        }
    )
    s = run_scenario(cfg).series
    nondeg = ~s.degenerate
    lhs = s.mu_dot[nondeg] ** 2 + s.sigma_dot[nondeg] ** 2
    assert lhs == pytest.approx(4.0 * 1.3**2 * np.cos(s.t[nondeg]) ** 2, abs=1e-8)


def test_example2_defaults_loose():
    rep = run_scenario(default_config("example2"))
    assert not rep.failed
    assert max(rep.overlay_dev.values()) <= 1e-7
    s = rep.series
    assert np.min(s.residual_r2[~s.degenerate]) >= -1e-8
    # Strict gap at the generic point t = 1, equal to the overlay value.
    idx = int(np.argmin(np.abs(rep.series.t - 1.0)))
    assert not s.tight[idx]
    assert s.residual_r2[idx] > 5e-3


def test_example2_special_points_residual():
    rep = run_scenario(default_config("example2"))
    # 2 sin t = 0 at t = pi: residual collapses to 4 w0^2 a^2 cos^2 t.
    idx = int(np.argmin(np.abs(rep.series.t - np.pi)))
    t = rep.series.t[idx]
    assert rep.series.residual_r2[idx] == pytest.approx(4.0 * t**2 * np.cos(t) ** 2, abs=1e-4)


def test_example2_converges_to_example1_as_b_vanishes():
    rep1 = run_scenario(default_config("example1"))
    cfg2 = ScenarioConfig.from_dict(
        {
            "name": "example2",
            "params": {
                "omega0": 1.0,
                "nu0": 1.0,
                "a": "t",
                "b": {"fn": "const", "scale": 1e-8},
            },
            "grid": {"t0": 0.0, "t1": 5.0, "n_steps": 5000},
        }
    )
    rep2 = run_scenario(cfg2)
    both = ~rep1.series.degenerate & ~rep2.series.degenerate
    worst = max(
        float(np.max(np.abs(getattr(rep1.series, ch)[both] - getattr(rep2.series, ch)[both])))
        for ch in ("mu", "sigma", "mu_dot", "sigma_dot", "v2_mean", "residual_r2")
    )
    assert worst <= 1e-6


def test_example3_defaults():
    rep = run_scenario(default_config("example3"))
    assert not rep.failed
    assert not rep.series.degenerate.any()  # squeezed state never degenerate
    assert np.min(rep.series.residual_r2) >= -1e-8
    assert rep.max_norm_defect <= 1e-9
    # Mandated default cutoff sits below the 1e-6 recommendation and has a
    # fat squeezed tail; both are recorded as warnings, not failures.
    assert any(w.startswith("truncation_below_recommended") for w in rep.warnings)
    assert any(w.startswith("truncation_tail_mass") for w in rep.warnings)
    assert rep.tail_mass > 1e-8


def test_example3_beyond_every_searched_cutoff_warns():
    # The recommendation was once an unchecked seed; no cutoff up to 2^20
    # brings |alpha|^2 = 1e20 to a 1e-6 truncation error.
    raw = {
        "name": "example3",
        "params": {"alpha": [1e10, 0.0], "z": [0.5, 0.5], "s": 20},
        "grid": {"t0": 0.0, "t1": 6.283185307179586, "n_steps": 50},
    }
    warnings = run_scenario(ScenarioConfig.from_dict(raw)).warnings
    assert warnings[0] == "truncation_below_recommended: s=20 < recommended above 1048576 for |alpha|^2=1e+20"


def test_example3_vacuum_limit():
    raw = {
        "name": "example3",
        "params": {"alpha": [0.0, 0.0], "z": [0.0, 0.0], "s": 20},
        "grid": {"t0": 0.0, "t1": 6.283185307179586, "n_steps": 800},
    }
    s = run_scenario(ScenarioConfig.from_dict(raw)).series
    assert s.mu == pytest.approx(0.0, abs=1e-12)
    assert s.sigma == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
    assert s.sigma_dot == pytest.approx(0.0, abs=1e-10)
    # Residual equals <v^2> = (theta_dot + omega)^2 / 2 for the vacuum.
    expected = (-np.sin(s.t) + 1.0) ** 2 / 2.0
    assert s.v2_mean == pytest.approx(expected, abs=1e-10)
    assert s.residual_r2 == pytest.approx(expected, abs=1e-10)


def test_example3_channels_respond_to_cutoff():
    # The s = 20 squeezed default is not converged at the 1e-8 level; the
    # recorded channels shift at the 1e-2 scale when the cutoff doubles.
    rep20 = run_scenario(default_config("example3", n_steps=200))
    raw = {
        "name": "example3",
        "params": {"alpha": [2.0, 1.0], "z": [0.5, 0.5], "s": 40},
        "grid": {"t0": 0.0, "t1": 6.283185307179586, "n_steps": 200},
    }
    rep40 = run_scenario(ScenarioConfig.from_dict(raw))
    drift = float(np.max(np.abs(rep20.series.v2_mean - rep40.series.v2_mean)))
    assert 1e-4 < drift < 1.0


def test_exact_commuting_reports_grid_independent():
    # The closed-form propagation route evaluates each output time
    # independently, so refining the grid leaves shared-time reports alone.
    coarse = run_scenario(default_config("example1", n_steps=500))
    fine = run_scenario(default_config("example1", n_steps=5000))
    k = np.arange(0, 501, 50)
    assert coarse.series.mu[k] == pytest.approx(fine.series.mu[10 * k], abs=1e-12)
    assert coarse.series.v2_mean[k] == pytest.approx(fine.series.v2_mean[10 * k], abs=1e-12)


def test_midpoint_reports_converge_to_exact():
    base = default_config("example1", n_steps=1000)
    exact = run_scenario(base)

    def midpoint_rep(n):
        raw = {
            "name": "example1",
            "params": {"omega0": 1.0, "nu0": 1.0, "a": "t"},
            "grid": {"t0": 0.0, "t1": 5.0, "n_steps": n},
            "method": "midpoint",
        }
        return run_scenario(ScenarioConfig.from_dict(raw))

    def gap(rep, stride):
        k = np.arange(0, 1001, 100)
        return float(np.max(np.abs(rep.series.mu[k * stride] - exact.series.mu[k])))

    g1 = gap(midpoint_rep(1000), 1)
    g2 = gap(midpoint_rep(2000), 2)
    assert g2 < g1 / 2.5  # second-order stepping


def test_picture_equivalence_examples():
    for name in ("example1", "example2"):
        rep = run_scenario(default_config(name, n_steps=500))
        defect = picture_equivalence_check(
            rep.pieces.observable, rep.pieces.hamiltonian, rep.trajectory, rep.config.method
        )
        assert defect <= 1e-10

    rep3 = run_scenario(default_config("example3", n_steps=300))
    defect3 = picture_equivalence_check(
        rep3.pieces.observable, rep3.pieces.hamiltonian, rep3.trajectory, rep3.config.method
    )
    assert defect3 <= 1e-9


def test_picture_equivalence_detects_corruption():
    rep = run_scenario(default_config("example1", n_steps=200))
    traj = rep.trajectory
    traj.states = traj.states.copy()
    traj.states[100:] = traj.states[99]  # the state stops at step 99
    defect = picture_equivalence_check(
        rep.pieces.observable, rep.pieces.hamiltonian, traj, rep.config.method
    )
    assert defect > 1e-3


def test_picture_equivalence_names_a_non_finite_state():
    # A NaN defect once dropped out of the running maximum.
    rep = run_scenario(default_config("example1", n_steps=200))
    traj = rep.trajectory
    traj.states = traj.states.copy()
    traj.states[150] = np.nan
    message = f"picture-equivalence defects are not finite at t = {traj.grid.times[150]}$"
    with pytest.raises(NumericBreakdown, match=message):
        picture_equivalence_check(rep.pieces.observable, rep.pieces.hamiltonian, traj, rep.config.method)


def test_snr_comparison_ratios_in_unit_interval():
    rep1 = run_scenario(default_config("example1"))
    rep2 = run_scenario(default_config("example2"))
    comp = snr_comparison(rep1, rep2)
    snr_ratio = comp["snr_ratio"][comp["snr_valid"]]
    v2_ratio = comp["v2_ratio"][comp["v2_valid"]]
    assert np.all(snr_ratio >= -1e-12) and np.all(snr_ratio <= 1.0 + 1e-12)
    assert np.all(v2_ratio >= -1e-12) and np.all(v2_ratio <= 1.0 + 1e-12)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match=r"params\.omega0"):
        ScenarioConfig.from_dict(
            {"name": "example1", "params": {"nu0": 1.0, "a": "t"}, "grid": {"t1": 5.0, "n_steps": 10}}
        )
    with pytest.raises(ConfigError, match="whitelist"):
        ScenarioConfig.from_dict(
            {
                "name": "example1",
                "params": {"omega0": 1.0, "nu0": 1.0, "a": "exp"},
                "grid": {"t1": 5.0, "n_steps": 10},
            }
        )
    with pytest.raises(ConfigError, match=r"params\.alpha"):
        ScenarioConfig.from_dict(
            {
                "name": "example3",
                "params": {"alpha": [1.0], "z": [0.0, 0.0], "s": 10},
                "grid": {"t1": 5.0, "n_steps": 10},
            }
        )
    with pytest.raises(ConfigError, match="positive"):
        ScenarioConfig.from_dict(
            {
                "name": "example1",
                "params": {"omega0": -2.0, "nu0": 1.0, "a": "t"},
                "grid": {"t1": 5.0, "n_steps": 10},
            }
        )
    with pytest.raises(ConfigError, match="name"):
        ScenarioConfig.from_dict({"name": "example9", "grid": {"t1": 1.0, "n_steps": 2}})


def test_custom_scenario_tabulated():
    n = 400
    grid = {"t0": 0.0, "t1": 2.0, "n_steps": n}
    times = np.linspace(0.0, 2.0, n + 1)

    def herm_json(mat):
        return [[[c.real, c.imag] for c in row] for row in mat]

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    samples = [herm_json(np.cos(t) * sx) for t in times]
    raw = {
        "name": "custom",
        "params": {
            "dim": 2,
            "hamiltonian": {"constant": herm_json(sz)},
            "observable": {"samples": samples},
            "psi0": [[1.0, 0.0], [1.0, 0.0]],
        },
        "grid": grid,
        "method": "midpoint",
    }
    rep = run_scenario(ScenarioConfig.from_dict(raw))
    assert not rep.failed
    # Under constant sz from |+>, <sx>(t) = cos(2t); A = cos(t) sx.
    k = np.arange(0, n + 1, 40)
    assert rep.series.mu[k] == pytest.approx(np.cos(times[k]) * np.cos(2 * times[k]), abs=1e-3)
    assert np.min(rep.series.residual_r2[~rep.series.degenerate]) >= -1e-6  # FD-derivative budget


def test_custom_scenario_rejects_exact_for_tabulated_h():
    raw = {
        "name": "custom",
        "params": {
            "dim": 2,
            "hamiltonian": {"samples": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]] * 3},
            "observable": {"constant": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
            "psi0": [[1.0, 0.0], [0.0, 0.0]],
        },
        "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 2},
        "method": "exact_commuting",
    }
    with pytest.raises(ConfigError, match="midpoint"):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_demo_configs_are_the_stock_configs(name):
    # The stock parameters live both in demos/configs and in default_config.
    with open(os.path.join(DEMO_CONFIGS, f"{name}.json")) as fh:
        demo = ScenarioConfig.from_dict(json.load(fh))
    stock = default_config(name)
    fields = ("name", "params", "grid", "method", "tolerances")
    assert [getattr(demo, f) for f in fields] == [getattr(stock, f) for f in fields]
