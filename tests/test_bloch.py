"""Geometric-engine tests.

The rotation ODE has closed-form solutions for constant fields, and every
qubit scenario can be cross-checked against the full matrix pipeline; both
oracles are used here.  The grid-wide checks (matrix-oracle equivalence,
span membership and its coupling to tightness, the random geometric
residual sweep) are the ``bloch`` suite of ``fluctdyn verify``, asserted
by acceptance criterion 07 and by the ``verify all`` test of test_cli.py.
"""

import numpy as np
import pytest

from fluctdyn.bloch import BlochModel, bloch_evolve, bloch_stats, geometric_residual, tightness_span_test
from fluctdyn.dynamics import TimeGrid, propagate
from fluctdyn.hilbert import pauli
from fluctdyn.scenarios import default_config, run_scenario

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")


def test_constant_field_rotation():
    # a_dot = 2 h x a with h = (0, 0, w): a(t) = (cos 2wt, sin 2wt, 0).
    w = 0.9
    model = BlochModel(
        a=lambda t: np.array([1.0, 0.0, 0.0]),
        h=lambda t: np.array([0.0, 0.0, w]),
        m=lambda t: np.array([1.0, 0.0, 0.0]),
        m_dot=lambda t: np.zeros(3),
    )
    grid = TimeGrid(0.0, 3.0, 3000)
    evo = bloch_evolve(model, grid)
    expected = np.stack(
        [np.cos(2 * w * grid.times), np.sin(2 * w * grid.times), np.zeros_like(grid.times)],
        axis=1,
    )
    assert np.abs(evo.vectors - expected).max() < 1e-9
    assert not evo.flagged


def test_parallel_field_freezes_vector():
    a0 = np.array([0.0, 0.0, 1.0])
    model = BlochModel(
        a=lambda t: a0,
        h=lambda t: 1.7 * a0,
        m=lambda t: a0,
    )
    evo = bloch_evolve(model, TimeGrid(0.0, 2.0, 200))
    assert np.abs(evo.vectors - a0[None, :]).max() < 1e-12


def test_evolution_matches_matrix_trajectory():
    # Same problem through the state-vector pipeline, mapped to Bloch
    # coordinates via the Pauli expectations.
    omega0 = 1.0
    nu0 = 1.0
    from fluctdyn.dynamics import TimeDepOperator
    from fluctdyn.hilbert import qubit_plus

    h_mat = TimeDepOperator.scaled(
        lambda t: omega0 * np.cos(nu0 * t), lambda t: -omega0 * nu0 * np.sin(nu0 * t), SZ
    )
    grid = TimeGrid(0.0, 5.0, 2000)
    traj = propagate(h_mat, qubit_plus(), grid, method="exact_commuting")
    bloch_from_matrix = np.stack(
        [
            [np.vdot(s, SX @ s).real for s in traj.states],
            [np.vdot(s, SY @ s).real for s in traj.states],
            [np.vdot(s, SZ @ s).real for s in traj.states],
        ],
        axis=1,
    )
    model = BlochModel(
        a=lambda t: np.array([1.0, 0.0, 0.0]),
        h=lambda t: np.array([0.0, 0.0, omega0 * np.cos(nu0 * t)]),
        m=lambda t: np.array([1.0, 0.0, 0.0]),
    )
    evo = bloch_evolve(model, grid, a0=bloch_from_matrix[0])
    assert np.abs(evo.vectors - bloch_from_matrix).max() <= 1e-8


def test_coarse_grid_is_flagged():
    model = BlochModel(
        a=lambda t: np.array([1.0, 0.0, 0.0]),
        h=lambda t: np.array([0.0, 0.0, 5.0]),
        m=lambda t: np.array([1.0, 0.0, 0.0]),
    )
    evo = bloch_evolve(model, TimeGrid(0.0, 10.0, 20))
    assert evo.flagged


def test_stats_aligned_configuration():
    unit = np.array([0.0, 0.0, 1.0])
    model = BlochModel(
        a=lambda t: unit,
        h=lambda t: 0.4 * unit,
        m=lambda t: 2.5 * unit,
        m_dot=lambda t: np.zeros(3),
    )
    st = bloch_stats(model, 0.3)
    assert st.mean == pytest.approx(2.5)
    assert st.sigma_sq == pytest.approx(0.0, abs=1e-14)
    assert st.v_mean == pytest.approx(0.0, abs=1e-14)
    assert st.v2_mean == pytest.approx(0.0, abs=1e-14)


def test_stats_match_scenario_closed_forms():
    # Example-1 mapping: mean a(t) cos(phi), deviation^2 a^2 sin^2(phi).
    rep = run_scenario(default_config("example1", n_steps=400))
    model = rep.pieces.bloch_model
    for t in (0.5, 1.0, 2.9, 4.4):
        st = bloch_stats(model, t)
        phi = 2.0 * np.sin(t)
        assert st.mean == pytest.approx(t * np.cos(phi), abs=1e-9)
        assert st.sigma_sq == pytest.approx(t**2 * np.sin(phi) ** 2, abs=1e-9)
        assert st.v2_mean == pytest.approx(1.0 + 4.0 * t**2 * np.cos(t) ** 2, abs=1e-9)

    rep2 = run_scenario(default_config("example2", n_steps=400))
    model2 = rep2.pieces.bloch_model
    for t in (0.5, 1.7, 3.3):
        st = bloch_stats(model2, t)
        assert st.v2_mean == pytest.approx(2.0 + 4.0 * t**2 * np.cos(t) ** 2, abs=1e-9)


def test_geometric_residual_scenarios():
    rep1 = run_scenario(default_config("example1", n_steps=500))
    model1 = rep1.pieces.bloch_model
    for t in (0.5, 1.3, 2.8, 4.7):
        res, degenerate = geometric_residual(model1, t)
        assert not degenerate
        assert abs(res) <= 1e-9

    rep2 = run_scenario(default_config("example2", n_steps=500))
    model2 = rep2.pieces.bloch_model
    for t in (0.5, 1.0, 2.0):
        res, degenerate = geometric_residual(model2, t)
        assert not degenerate
        assert res > 1e-3


def test_geometric_residual_degenerate_flag():
    unit = np.array([1.0, 0.0, 0.0])
    model = BlochModel(
        a=lambda t: unit,
        h=lambda t: np.array([0.0, 0.2, 0.0]),
        m=lambda t: 3.0 * unit,  # m parallel to a: zero dispersion
        m_dot=lambda t: np.array([0.0, 1.0, 0.0]),
    )
    res, degenerate = geometric_residual(model, 0.0)
    w = np.array([0.0, 1.0, 0.0]) + 2.0 * np.cross(3.0 * unit, np.array([0.0, 0.2, 0.0]))
    expected_rhs = float(w @ w) - float(unit @ w) ** 2
    assert degenerate
    assert res == pytest.approx(expected_rhs)


def test_span_test_exact_member():
    model = BlochModel(
        a=lambda t: np.array([0.0, 0.0, 1.0]),
        h=lambda t: np.array([0.0, 0.7, 0.0]),
        m=lambda t: np.array([1.0, 0.0, 0.0]),
        m_dot=lambda t: np.cross(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.7, 0.0])),
    )
    member, defect = tightness_span_test(model, 0.0)
    assert member and defect <= 1e-14
