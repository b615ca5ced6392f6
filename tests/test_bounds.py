"""Speed-limit bound tests.

The driven-qubit problem has closed forms for every quantity appearing
here (deviation of the generator, its rate, the overlap with the initial
state), which makes saturation cases exact oracles.
"""

import warnings

import numpy as np
import pytest

from fluctdyn import bounds
from fluctdyn.bounds import (
    SnrTrace,
    fs_kinematics,
    mt_integral_check,
    mt_ml_times,
    relative_uncertainty_rate,
    snr_trace,
)
from fluctdyn.dynamics import TimeDepOperator, TimeGrid, propagate
from fluctdyn.hilbert import pauli, qubit_basis, qubit_plus
from fluctdyn.linops import NumericBreakdown
from fluctdyn.scenarios import default_config, run_scenario

SZ = pauli("z")


def test_mt_ml_rabi_case():
    omega = 1.0
    rep = mt_ml_times(omega * SZ, qubit_plus())
    assert rep.delta_e == pytest.approx(omega)
    assert rep.mean_e == pytest.approx(0.0, abs=1e-15)
    assert rep.mt_defined and not rep.ml_defined
    assert rep.tau_mt == pytest.approx(np.pi / (2 * omega))
    assert rep.tau_unified == rep.tau_mt


def test_mt_ml_eigenstate_flags_infinite():
    rep = mt_ml_times(1.3 * SZ, qubit_basis(0))
    assert not rep.mt_defined
    assert rep.tau_mt == np.inf


def test_mt_ml_negative_mean_flagged():
    rep = mt_ml_times(1.3 * SZ, qubit_basis(1))  # <E> = -1.3
    assert not rep.ml_defined
    assert np.isnan(rep.tau_ml)


def test_mt_ml_unified_is_max():
    h = SZ + 2.0 * np.eye(2)  # delta = 1, mean = 2
    rep = mt_ml_times(h, qubit_plus())
    assert rep.ml_defined and rep.mt_defined
    assert rep.tau_unified == pytest.approx(max(rep.tau_mt, rep.tau_ml))
    assert rep.tau_mt == pytest.approx(np.pi / 2)
    assert rep.tau_ml == pytest.approx(np.pi / 4)


def test_mt_integral_zero_duration_element():
    h = TimeDepOperator.stationary(SZ)
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 10), method="exact_commuting")
    lhs, rhs, defect = mt_integral_check(h, traj)
    assert lhs[0] == 0.0
    # arcsin amplifies the ~1e-16 unit-overlap rounding to sqrt scale
    assert rhs[0] == pytest.approx(0.0, abs=1e-7)
    assert defect[0] == pytest.approx(0.0, abs=1e-7)


def test_mt_integral_rabi_saturation():
    # Orthogonality at t = pi/(2w): overlap cos(wt) hits 0 and the integral
    # equals pi/2 exactly; the bound is saturated.
    omega = 1.4
    h = TimeDepOperator.stationary(omega * SZ)
    t_star = np.pi / (2 * omega)
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, t_star, 500), method="exact_commuting")
    lhs, rhs, defect = mt_integral_check(h, traj)
    assert abs(defect[-1]) <= 1e-6
    assert lhs[-1] == pytest.approx(np.pi / 2, abs=1e-9)
    assert np.min(defect) >= -1e-6


def test_mt_integral_example1_trajectory():
    rep = run_scenario(default_config("example1"))
    lhs, rhs, defect = mt_integral_check(rep.pieces.hamiltonian, rep.trajectory)
    assert np.min(defect) >= -1e-6


def test_fs_kinematics_stationary():
    h = TimeDepOperator.stationary(0.9 * SZ)
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 2.0, 200), method="exact_commuting")
    s, v, a = fs_kinematics(h, traj)
    assert np.allclose(v, 2 * 0.9, atol=1e-12)
    assert np.allclose(a, 0.0, atol=1e-12)
    assert s[-1] == pytest.approx(2 * 0.9 * 2.0, abs=1e-9)


def test_fs_kinematics_example1_speed():
    # sigma_H on the equatorial trajectory is w0 |cos t|, so the factor-2
    # speed is 2 w0 |cos t| and the early path length is 2 sin t.
    rep = run_scenario(default_config("example1", n_steps=2000))
    s, v, a = fs_kinematics(rep.pieces.hamiltonian, rep.trajectory)
    times = rep.series.t
    assert np.abs(v - 2.0 * np.abs(np.cos(times))).max() < 1e-10
    k = int(np.argmin(np.abs(times - 1.0)))
    assert s[k] == pytest.approx(2.0 * np.sin(times[k]), abs=1e-6)


def test_fs_acceleration_limit_along_example1():
    # |d sigma_H / dt| <= sigma_{dH/dt}; for this drive the bound is
    # saturated wherever it is defined, so the residual is rounding-level.
    rep = run_scenario(default_config("example1", n_steps=2000))
    h = rep.pieces.hamiltonian
    traj = rep.trajectory
    _, _, accel = fs_kinematics(h, traj)  # factor2: accel = 2 d sigma_H/dt
    times = rep.series.t
    sigma_hdot = np.abs(np.sin(times))  # std of dH/dt on this trajectory
    ok = ~np.isnan(accel)
    residual = sigma_hdot[ok] ** 2 - (accel[ok] / 2.0) ** 2
    assert residual.min() >= -1e-8


def test_fs_acceleration_fd_fallback():
    h_no_deriv = TimeDepOperator.linear([(np.cos, None, SZ, np.sin)])
    traj = propagate(h_no_deriv, qubit_plus(), TimeGrid(0.2, 1.2, 500), method="exact_commuting")
    _, v, accel = fs_kinematics(h_no_deriv, traj)
    interior = slice(1, -1)
    fd = np.gradient(v, traj.grid.times)
    assert np.abs(accel[interior] - fd[interior]).max() < 1e-3


@pytest.mark.parametrize("trace", [mt_integral_check, fs_kinematics])
def test_an_overflowing_energy_spread_breaks_down(trace):
    # sigma_H^2 = 1e310 / 4 on |+>: once passed on as an infinite lhs or path length.
    traj = propagate(TimeDepOperator.stationary(SZ), qubit_plus(), TimeGrid(0.0, 1.0, 10))
    h = TimeDepOperator.scaled(np.cos, lambda t: -np.sin(t), 1e155 * (pauli("x") + SZ / 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericBreakdown, match="energy statistics are not finite at t = 0.0$"):
            trace(h, traj)


@pytest.mark.parametrize("trace", [mt_integral_check, fs_kinematics])
def test_a_tiny_hbar_breaks_down_inside_the_walk(trace):
    # sigma_H / hbar = 1e309 on |+> under sz: the quotient once overflowed
    # after the walk had checked sigma_H, with a RuntimeWarning.
    h = TimeDepOperator.stationary(SZ)
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericBreakdown, match="energy statistics are not finite at t = 0.0$"):
            trace(h, traj, hbar=1e-309)


@pytest.mark.parametrize(
    "trace,message",
    [
        (mt_integral_check, "sigma_H / hbar or its running integral is not finite at t = 0.1$"),
        (fs_kinematics, "speed or its running integral is not finite at t = 0.0$"),
    ],
)
def test_a_speed_near_the_float_limit_breaks_down_in_the_trapezoid(trace, message):
    # sigma_H / hbar = 1.1e308 on |+> under sz passes the walk; the trapezoid
    # sum and the speed 2 sigma_H / hbar once overflowed with a RuntimeWarning
    # and came back as an infinite lhs or path length.
    h = TimeDepOperator.stationary(SZ)
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericBreakdown, match=message):
            trace(h, traj, hbar=9e-309)


def test_an_acceleration_whose_doubled_covariance_overflows_is_finite():
    # cov(H, dH/dt) / hbar^2 = -1.5 sin(2t) 1e308 is finite, but twice it is
    # not from t = 0.4: the acceleration once came back -inf with a
    # RuntimeWarning, where 2 (cov / sigma) is about -3.5 sin(t) 1e154.
    h = TimeDepOperator.linear([(lambda t: np.sqrt(3.0) * np.cos(t), lambda t: -np.sqrt(3.0) * np.sin(t), SZ, np.sin)])
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, accel = fs_kinematics(h, traj, hbar=1e-154)
    expected = -2.0 * np.sqrt(3.0) * np.sin(traj.grid.times) / 1e-154
    assert np.allclose(accel, expected, rtol=1e-12, atol=0.0)


def test_an_overflowing_acceleration_breaks_down():
    # sigma_H / hbar = 1e-5 and cov(H, dH/dt) / hbar^2 = 1e305 on |+> are
    # finite, and their quotient is not: it once came back inf.
    h = TimeDepOperator.linear([(lambda t: 1e-15, lambda t: 1e300, SZ)])
    traj = propagate(TimeDepOperator.stationary(SZ), qubit_plus(), TimeGrid(0.0, 1.0, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericBreakdown, match="energy statistics are not finite at t = 0.0$"):
            fs_kinematics(h, traj, hbar=1e-10)


def test_snr_trace_floor_and_flags():
    rep = run_scenario(default_config("example1"))
    trace = snr_trace(rep.pieces.observable, rep.pieces.hamiltonian, rep.trajectory)
    assert not trace.mean_valid[0]  # mu(0) = 0 flagged
    mask = (trace.times >= 0.1) & trace.mean_valid & np.isfinite(trace.snr)
    gap = trace.snr[mask] - trace.snr_min[mask]
    # Floor saturated analytically on the early stretch; the deficit is the
    # trapezoid quadrature error of the 5000-step grid (measured -4.05e-5).
    assert gap.min() >= -1e-4
    assert np.all(trace.integrand >= 0.0)


def test_snr_min_monotone_in_budget():
    rep = run_scenario(default_config("example1", n_steps=500))
    trace = snr_trace(rep.pieces.observable, rep.pieces.hamiltonian, rep.trajectory)
    # Recompute the floor with an enlarged integral: it can only drop.
    times = trace.times
    enlarged = np.concatenate(
        [[0.0], np.cumsum((trace.integrand[1:] + trace.integrand[:-1]) / 2 * np.diff(times))]
    ) * 1.5 + 1e-6
    with np.errstate(divide="ignore"):
        floor_enlarged = rep.series.mu**2 / enlarged**2
    finite = np.isfinite(trace.snr_min)
    assert np.all(floor_enlarged[finite] <= trace.snr_min[finite] + 1e-12)


def test_relative_uncertainty_rate_cases():
    assert relative_uncertainty_rate(2.0, 0.5, 0.0, 0.0) == 0.0
    # mu sigma_dot > sigma mu_dot => positive rate
    assert relative_uncertainty_rate(1.5, 0.3, 0.1, 0.4) > 0.0
    with pytest.raises(ValueError, match="mu = 0"):
        relative_uncertainty_rate(0.0, 1.0, 0.0, 0.0)


def test_relative_uncertainty_rate_matches_finite_difference():
    # eps^2 = sigma^2 / mu^2 along the tight scenario, differentiated two
    # ways: the closed form fed with the pipeline rates, and a central
    # difference of eps^2 evaluated on the exact states.
    rep = run_scenario(default_config("example1", n_steps=2000))
    s = rep.series
    times = rep.series.t

    def eps_sq(t):
        theta = np.sin(t)
        psi = np.array([np.exp(-1j * theta), np.exp(1j * theta)]) / np.sqrt(2)
        mu = t * np.cos(2 * theta)
        var = t**2 - mu**2
        return var / mu**2

    step = 1e-5
    for t_probe in (0.4, 1.3, 2.6):
        k = int(np.argmin(np.abs(times - t_probe)))
        rate = relative_uncertainty_rate(s.mu[k], s.sigma[k], s.mu_dot[k], s.sigma_dot[k])
        fd = (eps_sq(times[k] + step) - eps_sq(times[k] - step)) / (2 * step)
        assert rate == pytest.approx(fd, rel=1e-5, abs=1e-6)
