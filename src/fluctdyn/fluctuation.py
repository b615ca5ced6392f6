"""Statistics of observables along trajectories and the rate bounds.

For an observable ``A(t)`` carried by a unitarily evolving pure state, the
rates of the mean and of the standard deviation obey

    (d mu_A / dt)^2 + (d sigma_A / dt)^2  <=  < v_A^2 >,

equivalently ``|d sigma_A / dt| <= sigma_{v_A}``, where the velocity
observable ``v_A = dA/dt + (i/hbar) [H, A]`` satisfies
``<v_A> = d<A>/dt``.  This module computes all the ingredients
analytically (``d mu/dt = <v_A>`` and ``d sigma/dt = cov(A, v_A) / sigma``)
and returns them over a grid as :class:`BoundSeries`, one array per channel,
including the residuals of the inequality and a tight/loose classification.

Every statistic goes through one batched kernel, :func:`centered_moments`:
states ``(n, d)`` and operator stacks ``(n, d, d)`` in, means and centered
images ``(A_k - <A_k>) psi_k`` out, with variances and covariances as
row-wise inner products of the centered images (cancellation-free, so an
eigenstate gives exactly zero).  Grid functions sample their operators
with :meth:`TimeDepOperator.sample` and walk the time axis with
:func:`~fluctdyn.dynamics.time_chunks`, so memory stays bounded on long
grids and large cutoffs.  Single-point functions are batches of one.
When both operators carry ``terms``, ``[H, A]`` is assembled from basis
commutators formed once per call.

The ``sigma -> 0`` instants are genuinely degenerate for the rate form
(the covariance formula divides by ``sigma``); the series switches to the
division-free Cauchy-Schwarz certificate ``sigma^2 sigma_v^2 - cov^2 >= 0``
there and flags the rate fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Optional

import numpy as np

from .dynamics import TimeDepOperator, Trajectory, coefficient_values, time_chunks, weighted_sum
from .linops import at_time, commutator, require_hermitian, require_normalized

SIGMA_FLOOR = 1e-9
TIGHT_TOL = 1e-6
IMAG_TOL = 1e-10
HERM_ASSERT_TOL = 1e-10


class DegenerateDispersionError(ValueError):
    """Raised when a rate needs sigma_A > floor but the dispersion vanishes."""


def centered_moments(
    ops: np.ndarray, states: np.ndarray, times: Optional[np.ndarray] = None, what: str = "expectation"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means ``<A_k>``, centered images ``(A_k - <A_k>) psi_k`` and images ``A_k psi_k``.

    ``ops`` is an ``(n, d, d)`` stack of Hermitian operators and ``states``
    the ``(n, d)`` matching states.  The imaginary part of each mean (pure
    rounding noise for Hermitian input) is discarded after an assertion that
    it is negligible relative to the mean; the first offending point raises,
    reported at its time when ``times`` is given.
    """
    images = np.matmul(ops, states[:, :, None])[:, :, 0]
    means = np.einsum("ki,ki->k", states.conj(), images)
    bad = np.abs(means.imag) > IMAG_TOL * np.maximum(1.0, np.abs(means.real))
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise AssertionError(f"{what} has non-negligible imaginary part {means.imag[k]:.3e}{at_time(times, k)}")
    means = means.real
    return means, images - means[:, None] * states, images


def inner_re(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``Re <x_k | y_k>``."""
    return np.einsum("ki,ki->k", x.conj(), y).real


def velocity_sampler(
    a: TimeDepOperator, h: TimeDepOperator, hbar: float = 1.0
) -> Callable[[np.ndarray], np.ndarray]:
    """``times -> (n, d, d)`` stack of ``v_A = dA/dt + (i/hbar) [H, A]``.

    With ``terms`` on both operators the commutator is
    ``sum_jk h_j(t) a_k(t) [H_j, A_k]`` over basis commutators formed here,
    once; otherwise both operators are sampled and multiplied per point.
    Hermiticity of every ``v_A`` is asserted; the first offending point
    raises.
    """
    if a.dim != h.dim:
        raise ValueError(f"dimension mismatch: observable dim {a.dim}, generator dim {h.dim}")
    scale = 1j / hbar
    if a.terms is not None and h.terms is not None:
        pairs = [(hc, ac, scale * commutator(hb, ab)) for hc, _, hb in h.terms for ac, _, ab in a.terms]

        def bracket(times):
            return weighted_sum(
                [(coefficient_values(hc, times) * coefficient_values(ac, times), c) for hc, ac, c in pairs]
            )

    else:

        def bracket(times):
            h_t, a_t = h.sample(times), a.sample(times)
            return scale * (h_t @ a_t - a_t @ h_t)

    def sample(times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        v = a.sample_deriv(times) + bracket(times)
        defects = np.abs(v - v.conj().swapaxes(1, 2)).max(axis=(1, 2))
        if np.count_nonzero(defects > HERM_ASSERT_TOL):
            k = int(np.argmax(defects > HERM_ASSERT_TOL))
            raise AssertionError(f"velocity observable not Hermitian (defect {defects[k]:.3e}){at_time(times, k)}")
        return v

    return sample


def _one(a: np.ndarray, psi: np.ndarray) -> tuple[float, np.ndarray]:
    # Validated single point through the batched kernel: mean and centered image.
    a = require_hermitian(a, tol=HERM_ASSERT_TOL, what="observable")
    psi = require_normalized(psi)
    means, centered, _ = centered_moments(a[None], psi[None])
    return float(means[0]), centered


def expectation(a: np.ndarray, psi: np.ndarray) -> float:
    """``<psi| a |psi>`` for Hermitian ``a`` and normalized ``psi``.

    The imaginary part (pure rounding noise for Hermitian input) is
    discarded after an assertion that it is negligible relative to the
    magnitude of the result.
    """
    return _one(a, psi)[0]


def variance(a: np.ndarray, psi: np.ndarray) -> float:
    """``<A^2> - <A>^2``, evaluated as ``|| (A - <A>) psi ||^2``.

    The centered form is nonnegative by construction.
    """
    _, centered = _one(a, psi)
    return float(inner_re(centered, centered)[0])


def std_dev(a: np.ndarray, psi: np.ndarray) -> float:
    """``sigma_A = sqrt(<A^2> - <A>^2)``."""
    return sqrt(variance(a, psi))


def covariance(a: np.ndarray, b: np.ndarray, psi: np.ndarray) -> float:
    """Symmetrized covariance ``<{A, B}>/2 - <A><B>``.

    Evaluated in centered form ``Re <(A - <A>) psi | (B - <B>) psi>``, which
    is the same quantity for Hermitian inputs with the cancellations done
    analytically.
    """
    _, da = _one(a, psi)
    _, db = _one(b, psi)
    return float(inner_re(da, db)[0])


def velocity_observable(
    a: TimeDepOperator, h: TimeDepOperator, t: float, hbar: float = 1.0
) -> np.ndarray:
    """``v_A(t) = dA/dt + (i/hbar) [H(t), A(t)]``; Hermitian (asserted)."""
    return velocity_sampler(a, h, hbar)(np.array([t], dtype=float))[0]


def mean_rate(a: TimeDepOperator, h: TimeDepOperator, psi: np.ndarray, t: float, hbar: float = 1.0) -> float:
    """``d<A>/dt = <v_A>``."""
    return expectation(velocity_observable(a, h, t, hbar), psi)


def sigma_rate(
    a: TimeDepOperator,
    h: TimeDepOperator,
    psi: np.ndarray,
    t: float,
    hbar: float = 1.0,
    sigma_floor: float = SIGMA_FLOOR,
) -> float:
    """``d sigma_A / dt = cov(A, v_A) / sigma_A``.

    Raises :class:`DegenerateDispersionError` when ``sigma_A <= sigma_floor``;
    callers must fall back to the Cauchy-Schwarz certificate there.
    """
    a_t = a.value(t)
    v_t = velocity_observable(a, h, t, hbar)
    sig = std_dev(a_t, psi)
    if sig <= sigma_floor:
        raise DegenerateDispersionError(
            f"sigma_A = {sig:.3e} <= floor {sigma_floor:.1e} at t = {t}; rate undefined"
        )
    return covariance(a_t, v_t, psi) / sig


# eq=False: a generated __eq__ would compare the arrays elementwise.
@dataclass(frozen=True, eq=False)
class BoundSeries:
    """Mean/deviation rates and their bounds at every grid point, one array per channel.

    ``residual_r2 = <v_A^2> - mu_dot^2 - sigma_dot^2`` is the gap in the
    bound; ``cs_residual`` is the division-free certificate
    ``sigma^2 sigma_v^2 - cov(A, v_A)^2``, the only meaningful residual on
    degenerate (``sigma <= floor``) points, where ``sigma_dot`` and
    ``residual_r2`` are NaN and ``tight`` is false.
    """

    t: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    mu_dot: np.ndarray
    sigma_dot: np.ndarray
    sigma_v: np.ndarray
    v2_mean: np.ndarray
    residual_r2: np.ndarray
    cs_residual: np.ndarray
    tight: np.ndarray
    degenerate: np.ndarray
    norm_defect: np.ndarray


def rate_columns(
    a: TimeDepOperator, h: TimeDepOperator, traj: Trajectory, hbar: float = 1.0
) -> tuple[np.ndarray, ...]:
    """``(mu, var, mu_dot, v_sq, sigma_v_sq, cov)`` of ``A`` and ``v_A`` at every grid point.

    Evaluated chunk by chunk.  ``v_sq`` is the direct ``<v_A^2>``; ``var``,
    ``sigma_v_sq`` and ``cov = cov(A, v_A)`` come from the centered images.
    """
    times = traj.grid.times
    states = traj.states
    n = len(times)
    mu, var, mu_dot, v_sq, sigma_v_sq, cov = (np.empty(n) for _ in range(6))
    velocity = velocity_sampler(a, h, hbar)
    for chunk in time_chunks(n, a.dim):
        t, psi = times[chunk], states[chunk]
        mu[chunk], da, _ = centered_moments(a.sample(t), psi, t)
        mu_dot[chunk], dv, vpsi = centered_moments(velocity(t), psi, t, what="<v_A>")
        var[chunk] = inner_re(da, da)
        v_sq[chunk] = inner_re(vpsi, vpsi)
        sigma_v_sq[chunk] = inner_re(dv, dv)
        cov[chunk] = inner_re(da, dv)
    return mu, var, mu_dot, v_sq, sigma_v_sq, cov


def bound_series(
    a: TimeDepOperator,
    h: TimeDepOperator,
    traj: Trajectory,
    hbar: float = 1.0,
    sigma_floor: float = SIGMA_FLOOR,
    tight_tol: float = TIGHT_TOL,
) -> BoundSeries:
    """Rates, bounds and residuals at every grid point of the trajectory."""
    mu, var, mu_dot, v_sq, sigma_v_sq, cov = rate_columns(a, h, traj, hbar)
    sigma = np.sqrt(var)
    degenerate = sigma <= sigma_floor
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_dot = np.where(degenerate, np.nan, cov / sigma)
    residual_r2 = v_sq - mu_dot * mu_dot - sigma_dot * sigma_dot
    return BoundSeries(
        t=traj.grid.times,
        mu=mu,
        sigma=sigma,
        mu_dot=mu_dot,
        sigma_dot=sigma_dot,
        sigma_v=np.sqrt(sigma_v_sq),
        v2_mean=v_sq,
        residual_r2=residual_r2,
        cs_residual=var * sigma_v_sq - cov * cov,
        tight=~degenerate & (residual_r2 <= tight_tol * np.maximum(1.0, v_sq)),
        degenerate=degenerate,
        norm_defect=traj.norm_defects,
    )


def higher_order_chain(
    a: TimeDepOperator,
    h: TimeDepOperator,
    n_max: int,
    hbar: float = 1.0,
    fd_step: float = 1e-3,
) -> list[TimeDepOperator]:
    """Iterated velocity observables ``[V^0 = A, V^1, ..., V^{n_max}]``.

    ``V^{k+1}(t) = dV^k/dt + (i/hbar) [H(t), V^k(t)]``.  The time derivative
    of level 0 uses the supplied analytic ``dvalue`` when present; composed
    levels differentiate the previous level's value map with a
    Richardson-refined central difference of step ``fd_step`` (plain
    first-difference noise at the default operator step would swamp the
    deeper levels).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if a.dim != h.dim:
        raise ValueError("dimension mismatch between observable and generator")

    def lift(op: TimeDepOperator, first: bool) -> TimeDepOperator:
        def value(t, _op=op, _first=first):
            if _first:
                d = _op.deriv(t)
            else:
                d = _op.deriv_richardson(t, step=fd_step)
            v = d + (1j / hbar) * commutator(h.value(t), _op.value(t))
            defect = float(np.abs(v - v.conj().T).max())
            if defect > HERM_ASSERT_TOL:
                raise AssertionError(
                    f"chain level lost Hermiticity (defect {defect:.3e} at t = {t})"
                )
            return (v + v.conj().T) / 2.0

        return TimeDepOperator(value=value, dim=op.dim)

    chain = [a]
    for level in range(n_max):
        chain.append(lift(chain[-1], first=(level == 0)))
    return chain
