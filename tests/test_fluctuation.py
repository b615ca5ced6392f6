"""Statistics-engine tests.

The rate computations are checked three independent ways: closed-form
derivatives of the known mean/deviation curves, finite differences of the
statistics along exactly-known states, and the geometric decompositions.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from fluctdyn import dynamics, linops
from fluctdyn.dynamics import TimeDepOperator, TimeGrid, Trajectory, propagate
from fluctdyn.fluctuation import (
    HERM_ASSERT_TOL,
    bound_series,
    checked_moments,
    higher_order_chain,
    inner_re,
    rate_columns,
    velocity,
    velocity_observable,
    walk_grid,
)
from fluctdyn.hilbert import pauli, qubit_plus
from fluctdyn.scenarios import default_config

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")


def h_op(omega0=1.0, nu0=1.0):
    return TimeDepOperator.scaled(
        lambda t: omega0 * np.cos(nu0 * t),
        lambda t: -omega0 * nu0 * np.sin(nu0 * t),
        SZ,
        lambda t: (omega0 / nu0) * np.sin(nu0 * t),
    )


def a_op_linear():
    # A(t) = t * sx with analytic derivative.
    return TimeDepOperator.scaled(lambda t: t + 0.0, lambda t: np.ones_like(np.asarray(t, float)), SX)


def evolved_plus(t, omega0=1.0, nu0=1.0):
    theta = (omega0 / nu0) * np.sin(nu0 * t)
    return np.array([np.exp(-1j * theta), np.exp(1j * theta)]) / np.sqrt(2.0)


def exact_trajectory(t0, t1, n_steps):
    """The closed-form states ``evolved_plus`` on a grid, as a trajectory."""
    grid = TimeGrid(t0, t1, n_steps)
    states = np.stack([evolved_plus(t) for t in grid.times])
    return Trajectory(grid=grid, states=states, norm_defects=np.abs(np.linalg.norm(states, axis=1) - 1.0))


def moments(a, psi):
    """Mean, variance and centered image of one matrix and one state: a batch of one."""
    means, centered = checked_moments(a, psi)
    return means[0], inner_re(centered, centered)[0], centered


def test_expectation_eigenstate():
    plus = qubit_plus()
    mean_x, var_x, _ = moments(SX, plus)
    mean_z, var_z, _ = moments(SZ, plus)
    assert mean_x == pytest.approx(1.0)
    assert var_x == pytest.approx(0.0, abs=1e-15)
    assert mean_z == pytest.approx(0.0)
    assert np.sqrt(var_z) == pytest.approx(1.0)


def test_expectation_validates_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        checked_moments(np.array([[0, 1], [0, 0]], dtype=complex), qubit_plus())
    with pytest.raises(ValueError, match="normalized"):
        checked_moments(SX, np.array([1.0, 1.0]))


def test_sigma_closed_form_unit_coefficient():
    # With A = sx (constant) the deviation is |sin(2 sin t)| on this drive;
    # checked at times where the closed form is positive.
    for t in (0.4, 1.0, 1.3):
        psi = evolved_plus(t)
        expected = np.sin(2.0 * np.sin(t))
        assert np.sqrt(moments(SX, psi)[1]) == pytest.approx(abs(expected), abs=1e-12)


def test_covariance_definition_and_bounds():
    # cov(A, B) = Re <(A - <A>) psi | (B - <B>) psi>: symmetric, cov(A, A)
    # is the variance <A^2> - <A>^2, and |cov| <= sigma_A sigma_B.
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.choice([2, 3, 4, 8]))
        a = linops.random_hermitian(dim, rng)
        b = linops.random_hermitian(dim, rng)
        psi = linops.random_state(dim, rng)
        mean_a, var_a, da = moments(a, psi)
        _, var_b, db = moments(b, psi)
        cov_ab = inner_re(da, db)[0]
        assert cov_ab == pytest.approx(inner_re(db, da)[0], abs=1e-12)
        assert var_a == pytest.approx(np.vdot(psi, a @ a @ psi).real - mean_a**2, rel=1e-10, abs=1e-12)
        bound = np.sqrt(var_a) * np.sqrt(var_b)
        assert abs(cov_ab) <= bound + 1e-10 * max(1.0, bound)


def test_covariance_pauli_zero():
    _, _, dx = moments(SX, qubit_plus())
    _, _, dy = moments(SY, qubit_plus())
    assert inner_re(dx, dy)[0] == pytest.approx(0.0, abs=1e-15)


def test_velocity_observable_closed_forms():
    h = h_op()
    a = a_op_linear()
    for t in (0.0, 0.7, 2.4):
        v = velocity_observable(a, h, t)
        expected = SX - 2.0 * t * np.cos(t) * SY
        assert np.abs(v - expected).max() < 1e-12

    b = TimeDepOperator.linear([(lambda t: t + 0.0, lambda t: 1.0, SX), (lambda t: t**2, lambda t: 2.0 * t, SZ)])
    for t in (0.5, 1.9):
        v = velocity_observable(b, h, t)
        expected = SX + 2.0 * t * SZ - 2.0 * t * np.cos(t) * SY
        assert np.abs(v - expected).max() < 1e-12


def test_velocity_observable_stationary_hamiltonian():
    h = TimeDepOperator.stationary(1.3 * SZ)
    v = velocity_observable(h, h, 0.9)
    assert np.abs(v).max() < 1e-15


def test_velocity_differentiates_coefficient_rates_by_richardson():
    # v_A = dA/dt under H = 0 (its zero commutator adds no term); the
    # derivative of dc is a Richardson difference (a plain central
    # difference at the same 1e-3 step is off by 6.0e-8).
    h = TimeDepOperator.stationary(np.zeros((2, 2)))
    a = TimeDepOperator.scaled(np.cos, lambda t: -np.sin(t), SX)
    v = velocity(a, h)
    assert len(v.bases) == 1
    assert np.abs(v.value(1.2) + np.sin(1.2) * SX).max() == 0.0
    assert np.abs(v.dvalue(1.2) + np.cos(1.2) * SX).max() < 1e-11


def test_sigma_dot_against_analytic_derivative():
    # d/dt [ t sin(2 sin t) ] = sin(2 sin t) + 2 t cos(2 sin t) cos t;
    # frozen value at t = 1 from that formula.
    t = 1.0
    analytic = np.sin(2 * np.sin(t)) + 2.0 * t * np.cos(2 * np.sin(t)) * np.cos(t)
    assert analytic == pytest.approx(0.8727870236300611, abs=1e-15)
    s = bound_series(a_op_linear(), h_op(), exact_trajectory(0.0, 2.0, 2))
    assert s.t[1] == t
    assert s.sigma_dot[1] == pytest.approx(analytic, abs=1e-8)


def test_sigma_dot_degenerate_is_nan():
    # sigma = 0 at t = 0: the rate is undefined there and the point is
    # flagged, with the division-free certificate in its place.
    s = bound_series(a_op_linear(), h_op(), exact_trajectory(0.0, 1.0, 2))
    assert s.sigma[0] == 0.0 and s.degenerate[0] and not s.tight[0]
    assert np.isnan(s.sigma_dot[0]) and np.isnan(s.residual_r2[0])
    assert s.cs_residual[0] == 0.0
    assert not s.degenerate[1:].any()


def test_sigma_dot_stationary_zero():
    h = TimeDepOperator.stationary(0.8 * SZ)
    a = TimeDepOperator.stationary(SZ)
    psi0 = np.array([np.sqrt(0.81), np.sqrt(0.19)], dtype=complex)
    traj = propagate(h, psi0, TimeGrid(0.0, 1.1, 11), method="exact_commuting")
    s = bound_series(a, h, traj)
    assert not s.degenerate.any()
    assert np.abs(s.sigma_dot).max() <= 1e-12


def test_sigma_dot_matches_finite_difference_of_sigma():
    h = h_op()
    a = a_op_linear()
    step = 1e-5
    for t in (0.5, 1.0, 2.0, 4.5):
        s = bound_series(a, h, exact_trajectory(t - step, t + step, 2))
        fd = (s.sigma[2] - s.sigma[0]) / (2.0 * step)
        assert s.sigma_dot[1] == pytest.approx(fd, abs=1e-6)


def test_mu_dot_matches_finite_difference_of_mu():
    h = h_op()
    a = a_op_linear()
    step = 1e-5
    for t in (0.3, 1.7, 3.9):
        s = bound_series(a, h, exact_trajectory(t - step, t + step, 2))
        fd = (s.mu[2] - s.mu[0]) / (2.0 * step)
        assert s.mu_dot[1] == pytest.approx(fd, abs=1e-6)


@pytest.fixture(scope="module")
def example1_run():
    h = h_op()
    a = a_op_linear()
    grid = TimeGrid(0.0, 5.0, 1000)
    traj = propagate(h, qubit_plus(), grid, method="exact_commuting")
    return a, h, traj, bound_series(a, h, traj)


def test_bound_report_tight_on_linear_coefficient(example1_run):
    _, _, _, series = example1_run
    nondeg = ~series.degenerate
    assert nondeg.any()
    assert np.all(np.abs(series.residual_r2[nondeg]) <= 1e-6 * np.maximum(1.0, series.v2_mean[nondeg]))
    assert np.all(series.tight[nondeg])


def test_bound_report_internal_invariants(example1_run):
    _, _, _, s = example1_run
    decomposition = s.sigma_v**2 + s.mu_dot**2
    assert decomposition == pytest.approx(s.v2_mean, rel=1e-9, abs=1e-12)
    # sigma_v^2 - sigma_dot^2 is algebraically the residual_r2 column.
    nondeg = ~s.degenerate
    residual_r1 = s.sigma_v[nondeg] ** 2 - s.sigma_dot[nondeg] ** 2
    assert residual_r1 == pytest.approx(s.residual_r2[nondeg], rel=1e-9, abs=1e-12)
    assert np.all(residual_r1 >= -1e-8)
    assert np.all(s.cs_residual >= -1e-10 * np.maximum(1.0, s.sigma**2 * s.sigma_v**2))


def test_mu_dot_matches_trajectory_finite_difference(example1_run):
    _, _, traj, series = example1_run
    fd = (series.mu[2:] - series.mu[:-2]) / (2.0 * traj.grid.dt)
    assert series.mu_dot[1:-1] == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_mu_dot_and_decomposition_at_stated_tolerance():
    # <v_A> = d mu / dt within 1e-8 relative needs an FD step ~1e-5 for the
    # central-difference oracle along the trajectory; run a dense short
    # window and check both identities there.
    h = h_op()
    a = a_op_linear()
    grid = TimeGrid(1.0, 1.01, 1000)  # dt = 1e-5
    psi0 = evolved_plus(1.0)
    traj = propagate(h, psi0, grid, method="exact_commuting")
    s = bound_series(a, h, traj)
    fd = (s.mu[2:] - s.mu[:-2]) / (2.0 * grid.dt)
    k = np.arange(1, len(s.t) - 1, 50)
    assert s.mu_dot[k] == pytest.approx(fd[k - 1], rel=1e-8)
    assert s.v2_mean[k] == pytest.approx(s.sigma_v[k] ** 2 + s.mu_dot[k] ** 2, rel=1e-8)


def test_bound_report_identity_observable(example1_run):
    _, h, traj, _ = example1_run
    ident = TimeDepOperator.stationary(np.eye(2, dtype=complex))
    s = bound_series(ident, h, traj)
    assert s.mu[500] == pytest.approx(1.0)
    assert s.sigma[500] == pytest.approx(0.0, abs=1e-12)
    assert s.degenerate[500]
    assert s.mu_dot[500] == pytest.approx(0.0, abs=1e-12)
    assert s.cs_residual[500] >= -1e-12


def test_bound_report_loose_observable_at_special_points():
    # A = a sx + b sz with a = b = t: at times where 2 sin t = n pi the
    # residual collapses to 4 w0^2 a^2 cos^2(t).
    h = h_op()
    a2 = TimeDepOperator.linear([(lambda t: t + 0.0, lambda t: 1.0, SX), (lambda t: t + 0.0, lambda t: 1.0, SZ)])
    grid = TimeGrid(0.0, 5.0, 5000)
    traj = propagate(h, qubit_plus(), grid, method="exact_commuting")
    t_special = np.pi  # 2 sin(pi) = 0 = 0 * pi
    idx = int(np.argmin(np.abs(grid.times - t_special)))
    residual = bound_series(a2, h, traj).residual_r2[idx]
    t = grid.times[idx]
    assert residual == pytest.approx(4.0 * t**2 * np.cos(t) ** 2, abs=1e-4)


def variance_rate_defects(a, h, traj):
    """``| d(sigma_A^2)/dt - 2 cov(A, v_A) |`` at every grid point.

    The derivative side differentiates the ``var`` column of
    ``rate_columns`` along the trajectory (central in the interior,
    one-sided at the ends); the covariance side is that call's ``cov``.
    """
    _, var, _, _, _, cov = rate_columns(a, h, traj)
    return np.abs(np.gradient(var, traj.grid.dt) - 2.0 * cov)


def test_variance_rate_identity_defect(example1_run):
    a, h, traj, _ = example1_run
    n = len(traj.grid.times) - 1
    defects = variance_rate_defects(a, h, traj)
    # dt = 5e-3 here; the defect is pure finite-difference truncation,
    # bounded by (dt^2 / 6) * max |d^3(sigma^2)/dt^3| ~= 1.4e-3 on [0, 5].
    assert defects[1:n:7].max() <= 1.5e-3
    assert defects[0] < 0.1  # one-sided end


def test_variance_rate_identity_defect_fine_grid():
    # Truncation bound (dt^2 / 6) * max |d^3(sigma^2)/dt^3|: the third
    # derivative of t^2 sin^2(2 sin t) peaks at ~342 on [0, 5], so reaching
    # a 1e-5 defect everywhere needs dt <= 4.2e-4.
    h = h_op()
    a = a_op_linear()
    grid = TimeGrid(0.0, 5.0, 12500)
    traj = propagate(h, qubit_plus(), grid, method="exact_commuting")
    assert variance_rate_defects(a, h, traj)[1:12500:97].max() <= 1e-5

    coarse = TimeGrid(0.0, 5.0, 5000)
    traj_c = propagate(h, qubit_plus(), coarse, method="exact_commuting")
    worst_c = variance_rate_defects(a, h, traj_c)[1:5000:97].max()
    assert worst_c <= 6e-5  # measured 5.54e-5, matching the dt^2 bound


def test_variance_rate_identity_stationary():
    h = TimeDepOperator.stationary(0.6 * SZ)
    a = TimeDepOperator.stationary(SZ)
    grid = TimeGrid(0.0, 1.0, 100)
    psi0 = np.array([0.8, 0.6], dtype=complex)
    traj = propagate(h, psi0, grid, method="exact_commuting")
    assert variance_rate_defects(a, h, traj)[50] <= 1e-12


def test_chain_stationary_collapses():
    h = TimeDepOperator.stationary(1.1 * SZ)
    chain = higher_order_chain(h, h, 2)
    assert np.abs(chain[1].value(0.7)).max() < 1e-12
    assert np.abs(chain[2].value(0.7)).max() < 1e-10


def test_chain_level1_matches_velocity_formula():
    h = h_op()
    a = a_op_linear()
    chain = higher_order_chain(a, h, 1)
    for t in (0.5, 2.2):
        expected = SX - 2.0 * t * np.cos(t) * SY
        assert np.abs(chain[1].value(t) - expected).max() < 1e-12


def test_chain_dual_construction_agreement():
    # Same chain assembled with analytic coefficient derivatives and with
    # none given (dc=None, so every derivative is a Richardson difference);
    # levels 1-3 must agree (measured 1.4e-9).  A plain central difference
    # in place of Richardson gives gaps of 1.6e-6 and 4.2e-6 at levels 2-3.
    h_analytic = h_op()
    a_analytic = a_op_linear()
    h_fd = TimeDepOperator.scaled(np.cos, None, SZ)
    a_fd = TimeDepOperator.scaled(lambda t: t + 0.0, None, SX)
    chain_an = higher_order_chain(a_analytic, h_analytic, 3)
    chain_fd = higher_order_chain(a_fd, h_fd, 3)
    worst = 0.0
    for t in np.linspace(0.2, 4.8, 12):
        for n in (1, 2, 3):
            worst = max(worst, np.abs(chain_an[n].value(t) - chain_fd[n].value(t)).max())
    assert worst <= 1e-8


def test_chain_inequality_three_levels(example1_run):
    a, h, traj, _ = example1_run
    chain = higher_order_chain(a, h, 3)
    for n in range(3):
        s = bound_series(chain[n], h, traj, sigma_floor=1e-6)
        assert (~s.degenerate).any()
        assert s.residual_r2[~s.degenerate].min() >= -1e-6


def test_velocity_of_large_operators_is_held_in_the_hermitian_basis():
    # Tabulated d = 4 operators have 16 terms each, so the bracket expansion
    # could have 16 * 17 terms: v_A is held in the 16 directions of the
    # Hermitian matrices, read off dA/dt + (i/hbar) [H, A].
    rng = np.random.default_rng(11)
    grid = TimeGrid(0.0, 2.0, 40)
    h0, h1, a0, a1 = (linops.random_hermitian(4, rng) for _ in range(4))
    h = TimeDepOperator.tabulated(grid.times, h0 + np.cos(grid.times)[:, None, None] * h1)
    a = TimeDepOperator.tabulated(grid.times, a0 + np.sin(grid.times)[:, None, None] * a1)
    v = velocity(a, h, hbar=0.7)
    assert [len(op.bases) for op in higher_order_chain(a, h, 3)] == [16, 16, 16, 16]
    t = grid.times[5:9] + 0.3 * grid.dt
    hm, am = h.sample(t), a.sample(t)
    direct = a.sample_deriv(t) + (1j / 0.7) * (hm @ am - am @ hm)
    sampled = v.sample(t)
    assert np.array_equal(sampled, sampled.conj().swapaxes(1, 2))
    assert np.abs(sampled - direct).max() <= 1e-14 * np.abs(direct).max()
    # Its derivative: d^2A/dt^2 + (i/hbar) ([dH/dt, A] + [H, dA/dt]), with
    # the tables' rates as dH/dt and dA/dt.
    dh, da = h.sample_deriv(t), a.sample_deriv(t)
    second = (a.sample_deriv(t + 1e-4) - a.sample_deriv(t - 1e-4)) / 2e-4  # dA/dt is linear here
    expected = second + (1j / 0.7) * (dh @ am - am @ dh + hm @ da - da @ hm)
    assert np.abs(v.sample_deriv(t) - expected).max() <= 1e-9 * np.abs(expected).max()
    # With analytic coefficients (3 * 2 commutators > 4 at d = 2) the
    # derivative is that of the samples: a central difference agrees.
    h = TimeDepOperator.linear([(np.cos, lambda t: -np.sin(t), SX), (lambda t: t * t, lambda t: 2.0 * t, SZ)])
    a = TimeDepOperator.linear([(np.sin, np.cos, SY), (np.exp, np.exp, SZ), (np.cos, lambda t: -np.sin(t), SX)])
    v = velocity(a, h)
    assert len(v.bases) == 4
    t = np.array([0.3, 1.1, 2.0])
    central = (v.sample(t + 1e-5) - v.sample(t - 1e-5)) / 2e-5
    assert np.abs(v.sample_deriv(t) - central).max() <= 1e-8 * np.abs(central).max()


def test_chain_skips_zero_commutators():
    # On example2, [sz, sz] = 0: levels 1 and 2 have 3 and 5 terms, 4 and 8
    # with the dead ones.  Level 3 could have 5 commutators, more than the 4
    # directions of the 2x2 Hermitian matrices: it is held in their basis.
    pieces = default_config("example2").build()
    chain = higher_order_chain(pieces.observable, pieces.hamiltonian, 3)
    assert [len(op.bases) for op in chain] == [2, 3, 5, 4]
    assert all(b.any() for op in chain for b in op.bases)


def test_velocity_samples_each_coefficient_once():
    # H on sz and sx, A on sy and sx + sz: all four commutators are nonzero,
    # yet one sample of v_A calls each coefficient function of A and H once.
    calls = Counter()

    def counted(name, f):
        def g(t):
            calls[name] += 1
            return f(t)

        return g

    h = TimeDepOperator.linear(
        [
            (counted("h0", np.cos), counted("dh0", lambda t: -np.sin(t)), SZ),
            (counted("h1", np.sin), counted("dh1", np.cos), SX),
        ]
    )
    a = TimeDepOperator.linear(
        [
            (counted("a0", lambda t: t * t), counted("da0", lambda t: 2.0 * t), SY),
            (counted("a1", np.exp), counted("da1", np.exp), SX + SZ),
        ]
    )
    v = velocity(a, h, hbar=0.7)
    assert len(v.bases) == 6
    t = np.linspace(0.0, 2.0, 7)
    calls.clear()
    sampled = v.sample(t)
    assert calls == {"h0": 1, "h1": 1, "a0": 1, "a1": 1, "da0": 1, "da1": 1}
    hm, am = h.sample(t), a.sample(t)
    direct = a.sample_deriv(t) + (1j / 0.7) * (hm @ am - am @ hm)
    assert np.abs(sampled - direct).max() <= 1e-14 * np.abs(direct).max()


def test_walk_grid_fills_every_chunk_and_names_the_first_bad_time(monkeypatch):
    # Chunks of 4 points: the walk must equal one evaluation over the grid,
    # and an overflow from the third chunk on is named at its first time.
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 4 * 16 * 2 * 2)
    times = np.linspace(0.0, 1.0, 11)
    states = np.stack([np.cos(times), np.sin(times)], axis=1)
    assert len(list(dynamics.time_chunks(len(times), 2))) == 3

    def columns(t, psi):
        return psi[0] * t, np.exp(1e3 * np.where(t > 0.75, 1.0, t))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(linops.NumericBreakdown, match=f"test columns are not finite at t = {times[8]}$"):
            walk_grid(times, (states,), columns, 2, "test columns", 2)
        first, second = walk_grid(times, (states,), lambda t, psi: columns(t / 2.0, psi), 2, "test columns", 2)
    assert np.array_equal(first, states[:, 0] * times / 2.0)
    assert np.array_equal(second, np.exp(1e3 * times / 2.0))


def test_an_overflowing_cauchy_schwarz_residual_breaks_down():
    # var * sigma_v^2 ~ 1e300 * 1e300, while every rate statistic is finite.
    traj = exact_trajectory(0.0, 1.0, 10)
    a = TimeDepOperator.stationary(1e150 * SX)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(linops.NumericBreakdown, match="Cauchy-Schwarz residuals are not finite at t = 0.0$"):
            bound_series(a, h_op(), traj)


def test_a_basis_off_hermitian_past_the_assert_tolerance_trips_the_imaginary_part_check():
    # The constructor takes its bases as they are: sx + i delta 1 gives <A>
    # the imaginary part delta on every state, while ||psi|| ||A psi|| ~ 1.
    skewed = SX + 2j * HERM_ASSERT_TOL * np.eye(2)
    a = TimeDepOperator(
        coeffs=lambda t: np.ones((len(t), 1)), rates=lambda t: np.zeros((len(t), 1)), bases=skewed[None]
    )
    breakdown = "expectation has non-negligible imaginary part 2.000e-10 at t = 0.0$"
    with pytest.raises(linops.NumericBreakdown, match=breakdown):
        bound_series(a, h_op(), exact_trajectory(0.0, 1.0, 10))
