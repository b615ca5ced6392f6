"""Propagation tests.

Oracles: closed-form phase evolution for scalar commuting families and
for a two-term commuting family, refinement invariance of the closed-form
route, the midpoint stepper's measured convergence order against the
closed form, and a per-step exponential loop for the chunked midpoint
stepper.
"""

import numpy as np
import pytest

from fluctdyn.dynamics import (
    TimeDepOperator,
    TimeGrid,
    adaptive_simpson,
    propagate,
    time_chunks,
)
from fluctdyn.hilbert import FockSpace, number_op, oscillator_hamiltonian, pauli, qubit_plus
from fluctdyn.linops import herm_expm, random_hermitian


def example1_hamiltonian(omega0=1.0, nu0=1.0):
    return TimeDepOperator.scaled(
        lambda t: omega0 * np.cos(nu0 * t),
        lambda t: -omega0 * nu0 * np.sin(nu0 * t),
        pauli("z"),
    )


def example1_state(t, omega0=1.0, nu0=1.0):
    theta = (omega0 / nu0) * np.sin(nu0 * t)
    return np.array([np.exp(-1j * theta), np.exp(1j * theta)]) / np.sqrt(2.0)


def test_adaptive_simpson_scalar_and_matrix():
    val = adaptive_simpson(np.cos, 0.0, 3.0)
    assert val == pytest.approx(np.sin(3.0), abs=1e-12)
    mat = adaptive_simpson(lambda t: np.array([[np.cos(t), 0.0], [0.0, t**3]]), 0.0, 2.0)
    assert mat[0, 0] == pytest.approx(np.sin(2.0), abs=1e-12)
    assert mat[1, 1] == pytest.approx(4.0, abs=1e-12)


def test_zero_hamiltonian_freezes_state():
    h = TimeDepOperator.stationary(np.zeros((2, 2), dtype=complex))
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 3.0, 50), method="exact_commuting")
    assert np.allclose(traj.states, qubit_plus()[None, :])
    assert traj.norm_defects.max() < 1e-15


def test_exact_commuting_matches_closed_form_phases():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 5.0, 500)
    traj = propagate(h, qubit_plus(), grid, method="exact_commuting")
    expected = np.stack([example1_state(t) for t in grid.times])
    assert np.abs(traj.states - expected).max() < 1e-12


def test_stationary_phase_on_number_state():
    space = FockSpace(s=6, omega=1.7)
    h = TimeDepOperator.stationary(oscillator_hamiltonian(space))
    n = 3
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[n] = 1.0
    grid = TimeGrid(0.0, 2.0, 40)
    traj = propagate(h, psi0, grid, method="exact_commuting")
    for k, t in enumerate(grid.times):
        expected = np.exp(-1j * space.omega * (n + 0.5) * t)
        assert traj.states[k][n] == pytest.approx(expected, abs=1e-12)


def test_commuting_non_scalar_family():
    # H(t) = cos(t) P + 0.5 Q with commuting projectors P, Q: not a scalar
    # multiple of one matrix, so the bases share one eigenbasis.  In a
    # rotated frame that eigenbasis is not the standard one.
    grid = TimeGrid(0.0, 4.0, 80)
    c, s = np.cos(0.7), np.sin(0.7)
    for frame in (np.eye(2), np.array([[c, -s], [s, c]], dtype=complex)):
        p = frame @ np.diag([1.0, 0.0]) @ frame.conj().T
        q = frame @ np.diag([0.0, 1.0]) @ frame.conj().T
        h = TimeDepOperator.linear([(np.cos, lambda t: -np.sin(t), p), (lambda t: 0.5, lambda t: 0.0, q)])
        psi0 = frame @ np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        traj = propagate(h, psi0, grid, method="exact_commuting")
        for k, t in enumerate(grid.times):
            expected = frame @ np.array([np.exp(-1j * np.sin(t)), np.exp(-1j * 0.5 * t)]) / np.sqrt(2.0)
            assert np.abs(traj.states[k] - expected).max() < 1e-11


def test_midpoint_vs_exact_self_consistency():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 5.0, 5000)  # dt = 1e-3
    exact = propagate(h, qubit_plus(), grid, method="exact_commuting")
    stepped = propagate(h, qubit_plus(), grid, method="midpoint")
    assert np.abs(exact.states - stepped.states).max() <= 1e-6


def test_exact_commuting_refinement_invariant():
    h = example1_hamiltonian()
    coarse = propagate(h, qubit_plus(), TimeGrid(0.0, 5.0, 100), method="exact_commuting")
    fine = propagate(h, qubit_plus(), TimeGrid(0.0, 5.0, 1000), method="exact_commuting")
    assert np.abs(coarse.states[::1] - fine.states[::10]).max() <= 1e-10


def test_midpoint_second_order_convergence():
    h = example1_hamiltonian()
    errs = []
    for n in (250, 500, 1000):
        grid = TimeGrid(0.0, 5.0, n)
        stepped = propagate(h, qubit_plus(), grid, method="midpoint")
        expected = np.stack([example1_state(t) for t in grid.times])
        errs.append(np.abs(stepped.states - expected).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_midpoint_composition():
    h = example1_hamiltonian()
    full = propagate(h, qubit_plus(), TimeGrid(0.0, 2.0, 400), method="midpoint")
    first = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 200), method="midpoint")
    second = propagate(h, first.states[-1] / np.linalg.norm(first.states[-1]), TimeGrid(1.0, 2.0, 200), method="midpoint")
    assert np.abs(second.states[-1] - full.states[-1]).max() <= 1e-9


def test_propagators_are_stored_and_consistent():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 3.0, 120)
    for method in ("exact_commuting", "midpoint"):
        traj = propagate(h, qubit_plus(), grid, method=method, store_propagators=True)
        assert traj.propagators.shape == (121, 2, 2)
        recon = np.einsum("kij,j->ki", traj.propagators, qubit_plus())
        assert np.abs(recon - traj.states).max() < 1e-12


def test_propagate_preconditions():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="not normalized"):
        propagate(h, np.array([1.0, 1.0]), grid)
    noncomm = TimeDepOperator(
        value=lambda t: np.cos(t) * pauli("z") + np.sin(t) * pauli("x"), dim=2
    )
    with pytest.raises(ValueError, match="commuting_family"):
        propagate(noncomm, qubit_plus(), grid, method="exact_commuting")
    with pytest.raises(ValueError, match="method"):
        propagate(h, qubit_plus(), grid, method="rk4")
    with pytest.raises(ValueError, match="t1 > t0"):
        TimeGrid(1.0, 1.0, 5)


def test_midpoint_chunked_matches_per_step_loop():
    # d = 21 fits 37 steps per chunk, so 100 steps span three chunks.  The
    # batched exponentials must reproduce a per-step loop bit for bit.
    rng = np.random.default_rng(5)
    h0, h1 = random_hermitian(21, rng), random_hermitian(21, rng)
    h = TimeDepOperator(value=lambda t: h0 + np.cos(3.0 * t) * h1, dim=21)
    grid = TimeGrid(0.0, 1.5, 100)
    assert len(list(time_chunks(grid.n_steps, 21))) == 3
    psi0 = np.zeros(21, dtype=complex)
    psi0[[0, 7]] = 1.0 / np.sqrt(2.0)
    traj = propagate(h, psi0, grid, method="midpoint", hbar=0.8, store_propagators=True)
    psi, prop = psi0, np.eye(21)
    for k, t in enumerate(grid.times[:-1]):
        u = herm_expm(h.value(t + grid.dt / 2.0), scale=-1j * grid.dt / 0.8)
        psi, prop = u @ psi, u @ prop
        assert np.array_equal(traj.states[k + 1], psi)
        assert np.array_equal(traj.propagators[k + 1], prop)


def test_midpoint_rejects_non_hermitian_h_at_its_time():
    grid = TimeGrid(0.0, 1.0, 10)
    h = TimeDepOperator(value=lambda t: pauli("x") + (1j * pauli("z") if t > 0.5 else 0.0), dim=2)
    first_bad = grid.times[5] + grid.dt / 2.0
    with pytest.raises(ValueError, match=f"not Hermitian .* at t = {first_bad}$"):
        propagate(h, qubit_plus(), grid, method="midpoint")


def test_norm_budget_flags_trajectory():
    # A midpoint run is unitary to machine accuracy; force a tiny budget to
    # exercise the flag rather than faking a defect.
    h = example1_hamiltonian()
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 10), norm_budget=1e-17)
    assert traj.flagged


def test_time_dep_operator_fd_fallback():
    op = TimeDepOperator(value=lambda t: np.cos(t) * pauli("x"), dim=2)
    analytic = -np.sin(1.2) * pauli("x")
    assert np.abs(op.deriv(1.2) - analytic).max() < 1e-9
