"""Speed-limit style bounds derived from the same statistics.

Covers the orthogonalization-time bounds from energy uncertainty and mean
energy, the integral form of the uncertainty-time inequality along a
trajectory, projective-space transport speed/acceleration, the
signal-to-noise floor implied by the fluctuation rate bound, and the rate
of the squared relative uncertainty.

Integrals along trajectories use the trapezoid rule on the trajectory's own
grid; refinement is the caller's control (run on a finer grid for a sharper
quadrature).

The traces apply ``H``, ``dH/dt``, ``A`` and ``v_A`` to the states over the
grid with :meth:`TimeDepOperator.act` and reduce the images with the
batched moments kernel of :mod:`fluctdyn.fluctuation`, walking the grid
in :func:`~fluctdyn.fluctuation.walk_grid`, which names the first time
where a statistic overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .dynamics import TimeDepOperator, Trajectory
from .fluctuation import centered_moments, inner_re, rate_columns, walk_grid
from .linops import NumericBreakdown, at_time, require_hermitian, require_normalized


def _cumtrapz(y: np.ndarray, x: np.ndarray, what: str) -> np.ndarray:
    """The running trapezoid integral of ``y`` over ``x``; where ``y`` or it is first not finite, a breakdown."""
    out = np.empty_like(y)
    out[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum((y[1:] + y[:-1]) / 2.0 * np.diff(x), out=out[1:])
    if not (np.isfinite(y).all() and np.isfinite(out).all()):
        bad = ~(np.isfinite(y) & np.isfinite(out))
        raise NumericBreakdown(f"{what} or its running integral is not finite{at_time(x, int(np.argmax(bad)))}")
    return out


@dataclass(frozen=True)
class SpeedLimitReport:
    """Orthogonalization-time bounds from one (H, state) pair.

    ``tau_mt = pi hbar / (2 delta_e)`` needs ``delta_e > 0``; ``tau_ml =
    pi hbar / (2 mean_e)`` is only meaningful for positive mean energy.
    Undefined bounds carry ``inf`` / ``nan`` plus an explicit flag, and
    ``tau_unified`` is the max of whichever are defined.
    """

    delta_e: float
    mean_e: float
    tau_mt: float
    tau_ml: float
    tau_unified: float
    mt_defined: bool
    ml_defined: bool


def mt_ml_times(h: np.ndarray, psi: np.ndarray, hbar: float = 1.0) -> SpeedLimitReport:
    """Evaluate both orthogonalization-time bounds for ``(h, psi)``."""
    h = require_hermitian(h, what="Hamiltonian")
    psi = require_normalized(psi)
    means, centered = centered_moments((h @ psi)[:, None], psi[:, None])
    mean = float(means[0])
    delta = sqrt(float(inner_re(centered, centered)[0]))
    mt_defined = delta > 0.0
    ml_defined = mean > 0.0
    tau_mt = pi * hbar / (2.0 * delta) if mt_defined else float("inf")
    tau_ml = pi * hbar / (2.0 * mean) if ml_defined else float("nan")
    if ml_defined:
        tau_unified = max(tau_mt, tau_ml)
    else:
        tau_unified = tau_mt
    return SpeedLimitReport(
        delta_e=delta,
        mean_e=mean,
        tau_mt=tau_mt,
        tau_ml=tau_ml,
        tau_unified=tau_unified,
        mt_defined=mt_defined,
        ml_defined=ml_defined,
    )


def _energy_spread(h: TimeDepOperator, traj: Trajectory, hbar: float, with_accel: bool = False) -> tuple:
    """``(sigma_H / hbar,)`` at every grid point, or with the acceleration when ``with_accel``.

    The acceleration is ``2 cov(H, dH/dt) / (hbar sigma_H)``, NaN where
    ``sigma_H / hbar`` is at most ``1e-12``.  The divisions by ``hbar`` and
    ``sigma_H`` are part of the walk, so a quotient that overflows breaks
    down at its first time.
    """
    floor = 1e-12

    def columns(t, psi):
        _, dh = centered_moments(h.act(t, psi), psi, t)
        sig = np.sqrt(inner_re(dh, dh)) / hbar
        if not with_accel:
            return (sig,)
        _, dhd = centered_moments(h.act_deriv(t, psi), psi, t)
        # cov(H, dH/dt) / hbar^2, checked itself where the quotient is undefined.
        accel = inner_re(dh, dhd) / hbar / hbar
        ok = sig > floor
        accel[ok] = 2.0 * (accel[ok] / sig[ok])
        return sig, accel

    width = 2 if with_accel else 1
    out = walk_grid(traj.grid.times, [traj.states], columns, width, "energy statistics", h.dim, h.act_rows)
    if with_accel:
        out[1][out[0] <= floor] = np.nan
    return out


def mt_integral_check(
    h: TimeDepOperator, traj: Trajectory, hbar: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integral form of the uncertainty-time bound along a trajectory.

    Returns per-grid-point arrays ``(lhs, rhs, defect)`` where
    ``lhs[k] = Integral_0^{t_k} sigma_H / hbar`` (trapezoid),
    ``rhs[k] = pi/2 - arcsin |<psi(0)|psi(t_k)>|``, and
    ``defect = lhs - rhs`` (nonnegative up to quadrature error).
    """
    times = traj.grid.times
    (sig,) = _energy_spread(h, traj, hbar)
    lhs = _cumtrapz(sig, times, "sigma_H / hbar")
    overlaps = np.abs(traj.states @ traj.states[0].conj())
    rhs = pi / 2.0 - np.arcsin(np.clip(overlaps, 0.0, 1.0))
    return lhs, rhs, lhs - rhs


def fs_kinematics(
    h: TimeDepOperator,
    traj: Trajectory,
    hbar: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projective-space path length, transport speed, and acceleration.

    The Fubini-Study line element gives the speed ``v = 2 sigma_H / hbar``.
    The path length is the trapezoid integral of ``v``; the acceleration is
    ``2 cov(H, dH/dt) / (hbar sigma_H)``.  Instants where ``sigma_H / hbar``
    is at most ``1e-12`` get NaN acceleration (undefined there).
    """
    times = traj.grid.times
    sig, accel = _energy_spread(h, traj, hbar, with_accel=True)
    with np.errstate(over="ignore"):
        v = 2.0 * sig
    s = _cumtrapz(v, times, "speed")
    return s, v, accel


@dataclass
class SnrTrace:
    """Signal-to-noise ratio along a trajectory and its dynamic floor.

    ``snr = mu^2 / sigma^2`` (inf where ``sigma = 0`` with nonzero mean,
    flagged invalid where the mean vanishes), and ``snr_min`` divides the
    same ``mu^2`` by the squared integrated fluctuation budget
    ``(sigma(0) + Integral sqrt(<v^2> - mu_dot^2))^2``.  ``integrand`` is
    that square root, ``sigma_v``, taken from the centered image of ``v_A``
    (nonnegative, and free of the cancellation in ``<v^2> - mu_dot^2``).
    """

    times: np.ndarray
    snr: np.ndarray
    snr_min: np.ndarray
    integrand: np.ndarray
    mean_valid: np.ndarray


def snr_trace(
    a: TimeDepOperator, h: TimeDepOperator, traj: Trajectory, hbar: float = 1.0
) -> SnrTrace:
    """Per-grid-point SNR and its floor from the fluctuation rate bound."""
    times = traj.grid.times
    mu, var, _, _, sigma_v_sq, _ = rate_columns(a, h, traj, hbar=hbar)
    integrand = np.sqrt(sigma_v_sq)
    budget = np.sqrt(var[0]) + _cumtrapz(integrand, times, "sigma_v")
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(var > 0.0, mu**2 / np.where(var > 0.0, var, 1.0), np.inf)
        snr_min = np.where(budget > 0.0, mu**2 / np.where(budget > 0.0, budget, 1.0) ** 2, np.inf)
    return SnrTrace(
        times=times,
        snr=snr,
        snr_min=snr_min,
        integrand=integrand,
        mean_valid=mu != 0.0,
    )


def relative_uncertainty_rate(mu: float, sigma: float, mu_dot: float, sigma_dot: float) -> float:
    """Rate of the squared relative uncertainty ``(sigma/mu)^2``.

    ``d(sigma^2/mu^2)/dt = 2 (sigma / mu^3) (mu sigma_dot - sigma mu_dot)``;
    undefined at ``mu = 0``.
    """
    if mu == 0.0:
        raise ValueError("relative uncertainty rate undefined at mu = 0")
    return 2.0 * (sigma / mu**3) * (mu * sigma_dot - sigma * mu_dot)
