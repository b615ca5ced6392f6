"""Geometric-engine tests.

The rotation ODE has closed-form solutions for constant fields, and every
qubit scenario can be cross-checked against the full matrix pipeline; both
oracles are used here.  The grid-wide checks (matrix-oracle equivalence,
span membership and its coupling to tightness, the random geometric
residual sweep) are the ``bloch`` suite of ``fluctdyn verify``, asserted
by acceptance criterion 07 and by the ``verify all`` test of test_cli.py.
The array-of-times functions are pinned here to a per-point reference
(``np.cross`` and ``np.linalg.lstsq``) on those grids, on random draws and
on degenerate and rank-deficient cases.
"""

import numpy as np
import pytest

from fluctdyn.bloch import (
    PERP_FLOOR,
    SPAN_TOL,
    BlochModel,
    bloch_evolve,
    bloch_stats,
    geometric_residual,
    tightness_span_test,
)
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
        h=lambda t: np.outer(omega0 * np.cos(nu0 * t), [0.0, 0.0, 1.0]),
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


# -- per-point reference ---------------------------------------------------
# Evaluates one time at a time with the formulas the array functions batch:
# ``np.cross`` for the cross products and ``np.linalg.lstsq`` for the span fit.
# Two stable least-squares solvers agree on the fit's defect only to within
# rounding times the condition number of the span basis, so the defect is
# compared at PARITY * cond (about 3e4 on example1's grid).
PARITY = 1e-13


def _at(f, t):
    return np.broadcast_to(np.asarray(f(np.array([t])), dtype=float), (1, 3))[0]


def reference_point(model, t):
    """``(mean, sigma_sq, v_mean, v2_mean, residual, degenerate, member, defect, cond)`` at ``t``."""
    a, h, m, md = (_at(f, t) for f in (model.a, model.h, model.m, model.m_dot))
    w = md + 2.0 * np.cross(m, h)
    am = a @ m
    w_perp = w - (a @ w) * a
    m_perp = m - am * a
    mp_sq = m_perp @ m_perp
    degenerate = mp_sq <= PERP_FLOOR
    residual = w_perp @ w_perp - (0.0 if degenerate else (w @ m_perp) ** 2 / mp_sq)
    basis = np.column_stack([np.cross(m, h), a])
    coeffs = np.linalg.lstsq(basis, md, rcond=None)[0]
    defect = np.linalg.norm(md - basis @ coeffs)
    member = defect <= SPAN_TOL * max(1.0, np.linalg.norm(md))
    sv = np.linalg.svd(basis, compute_uv=False)
    # lstsq's cutoff: a singular value it drops does not count.
    cond = sv[0] / sv[1] if sv[1] > 3 * np.finfo(float).eps * sv[0] else 1.0
    return am, m @ m - am * am, a @ w, w @ w, residual, degenerate, member, defect, cond


def assert_defects(defect, ref):
    assert np.all(np.abs(defect - ref[7]) <= PARITY * np.maximum(1.0, ref[8]))


def assert_parity(model, times):
    ref = np.array([reference_point(model, t) for t in times]).T
    st = bloch_stats(model, times)
    residual, degenerate = geometric_residual(model, times)
    member, defect = tightness_span_test(model, times)
    for name, got, want in zip(
        ("mean", "sigma_sq", "v_mean", "v2_mean", "residual"),
        (st.mean, st.sigma_sq, st.v_mean, st.v2_mean, residual),
        ref[:5],
    ):
        assert got.shape == (len(times),), name
        assert np.abs(got - want).max() <= PARITY, name
    assert_defects(defect, ref)
    assert np.array_equal(degenerate, ref[5].astype(bool))
    assert np.array_equal(member, ref[6].astype(bool))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_array_functions_match_per_point_reference_on_scenario_grids(name):
    rep = run_scenario(default_config(name, n_steps=1000))
    assert_parity(rep.pieces.bloch_model, rep.series.t)


def test_array_functions_match_per_point_reference_on_random_draws():
    # The random residual sweep of the bloch suite: one (n, 4, 3) draw.
    vecs = np.random.default_rng(7).normal(size=(300, 4, 3))
    a = vecs[:, 0] / np.linalg.norm(vecs[:, 0], axis=1, keepdims=True)
    model = BlochModel(a=lambda t: a, h=lambda t: vecs[:, 1], m=lambda t: vecs[:, 2], m_dot=lambda t: vecs[:, 3])
    # The reference reads row k at "time" k.
    per_row = BlochModel(*(lambda t, v=v: v[int(t[0])] for v in (a, vecs[:, 1], vecs[:, 2], vecs[:, 3])))
    ref = np.array([reference_point(per_row, k) for k in range(len(vecs))]).T
    residual, degenerate = geometric_residual(model, np.zeros(len(vecs)))
    member, defect = tightness_span_test(model, np.zeros(len(vecs)))
    assert np.abs(residual - ref[4]).max() <= PARITY
    assert_defects(defect, ref)
    assert np.array_equal(degenerate, ref[5].astype(bool)) and np.array_equal(member, ref[6].astype(bool))


def test_array_functions_match_per_point_reference_on_special_cases():
    # Rows: m parallel to a (degenerate dispersion); h = 0 and h parallel to
    # m (m x h = 0, rank one); m x h parallel to a (rank one); a zero basis
    # (a = 0, h = 0); and a generic row.
    a = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 1.0], [0, 0, 1.0], [0, 0, 0], [0.6, 0.8, 0]])
    h = np.array([[0, 0.2, 0], [0, 0, 0], [2.0, 0, 0], [0, 0.7, 0], [0, 0, 0], [0.3, -0.1, 0.5]])
    m = np.array([[3.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [1.0, 2.0, 0], [0.2, 0.4, -1.0]])
    md = np.array([[0, 1.0, 0], [0, 0.5, 0], [0, 0, 2.0], [0, 0, 0.3], [0, 1.0, 0], [1.0, 1.0, 1.0]])
    model = BlochModel(a=lambda t: a, h=lambda t: h, m=lambda t: m, m_dot=lambda t: md)
    per_row = BlochModel(*(lambda t, v=v: v[int(t[0])] for v in (a, h, m, md)))
    ref = np.array([reference_point(per_row, k) for k in range(len(a))]).T
    residual, degenerate = geometric_residual(model, np.zeros(len(a)))
    member, defect = tightness_span_test(model, np.zeros(len(a)))
    assert np.abs(residual - ref[4]).max() <= PARITY
    assert_defects(defect, ref)
    assert np.array_equal(degenerate, ref[5].astype(bool)) and np.array_equal(member, ref[6].astype(bool))
    assert degenerate.tolist() == [True, False, False, False, False, False]
    # Rank one: m_dot = 2 a is in span{a}; m_dot along z is in span{m x h, a} = span{a}.
    assert member[2] and member[3] and not member[1] and not member[4]


def test_one_time_is_a_batch_of_one():
    rep = run_scenario(default_config("example2", n_steps=400))
    model = rep.pieces.bloch_model
    grid = bloch_stats(model, rep.series.t)
    k = 123
    one = bloch_stats(model, float(rep.series.t[k]))
    assert one.mean.shape == (1,)
    for field in ("mean", "sigma_sq", "v_mean", "v2_mean"):
        assert getattr(one, field)[0] == getattr(grid, field)[k]


def test_model_vectors_must_be_rows_of_three():
    model = BlochModel(
        a=lambda t: np.zeros((len(t), 2)),
        h=lambda t: np.zeros(3),
        m=lambda t: np.zeros(3),
        m_dot=lambda t: np.zeros(3),
    )
    with pytest.raises(ValueError, match=r"shape \(3,\) or \(4, 3\)"):
        bloch_stats(model, np.zeros(4))


def test_evolution_matches_per_step_loop():
    # RK4 with h sampled at each stage time inside the loop, as before the
    # stage times were sampled with one call.
    rep = run_scenario(default_config("example1", n_steps=200))
    model = rep.pieces.bloch_model
    grid = TimeGrid(0.0, 5.0, 300)
    a = _at(model.a, grid.t0)
    rhs = lambda t, v: 2.0 * np.cross(_at(model.h, t), v)
    dt = grid.dt
    expected = [a]
    for t in grid.times[:-1]:
        k1 = rhs(t, a)
        k2 = rhs(t + dt / 2.0, a + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, a + dt / 2.0 * k2)
        k4 = rhs(t + dt, a + dt * k3)
        a = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(a)
    assert np.array_equal(bloch_evolve(model, grid).vectors, np.array(expected))
