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

:func:`velocity` is the one construction of ``v_A``, as a
:class:`~fluctdyn.dynamics.TimeDepOperator`; the grid functions sample it,
:func:`velocity_observable` evaluates it at one time, and
:func:`higher_order_chain` iterates it.  Its bases ``A_k`` and
``(i/hbar) [H_j, A_k]`` are formed once (commutators that vanish exactly
are skipped), and every coefficient carries its own derivative, so each
level of the chain is again a batched operator.  When the commutators
could outnumber the ``d^2`` directions of the Hermitian matrices (tabulated
operators, deep chain levels), ``v_A`` is held in the real Hermitian basis
instead, its coordinates read off ``dA/dt + (i/hbar) [H, A]`` sampled from
``A`` and ``H``.

Every statistic goes through one batched kernel, :func:`centered_moments`:
states ``(n, d)`` and operator stacks ``(n, d, d)`` in, means and centered
images ``(A_k - <A_k>) psi_k`` out, with variances and covariances as
row-wise inner products of the centered images (cancellation-free, so an
eigenstate gives exactly zero).  Grid functions sample their operators
with :meth:`TimeDepOperator.sample` and walk the time axis with
:func:`~fluctdyn.dynamics.time_chunks`, so memory stays bounded on long
grids and large cutoffs.  :func:`checked_moments` is the kernel for
outside input: it validates a whole stack (Hermitian operators, normalized
states) in one pass first.  The single-point functions (``expectation``,
``variance``, ``covariance``) are batches of one through it.

The ``sigma -> 0`` instants are genuinely degenerate for the rate form
(the covariance formula divides by ``sigma``); the series switches to the
division-free Cauchy-Schwarz certificate ``sigma^2 sigma_v^2 - cov^2 >= 0``
there and flags the rate fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import sqrt
from typing import Callable, Optional

import numpy as np

from .dynamics import TimeDepOperator, Trajectory, coefficient_array, richardson, time_chunks
from .dynamics import hermitian_basis, hermitian_coordinates, hermitian_part, table_columns
from .linops import at_time, require_hermitian, require_normalized

SIGMA_FLOOR = 1e-9
TIGHT_TOL = 1e-6
IMAG_TOL = 1e-10
HERM_ASSERT_TOL = 1e-10


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


def _product(f: Callable, g: Callable) -> Callable:
    return lambda t: coefficient_array(f, t) * coefficient_array(g, t)


def _product_rate(f: Callable, df: Callable, g: Callable, dg: Callable) -> Callable:
    """``(f g)' = f' g + f g'``."""
    df_g, f_dg = _product(df, g), _product(f, dg)
    return lambda t: df_g(t) + f_dg(t)


def velocity(a: TimeDepOperator, h: TimeDepOperator, hbar: float = 1.0) -> TimeDepOperator:
    """The velocity observable ``v_A = dA/dt + (i/hbar) [H, A]`` as an operator.

    Its terms are ``(dc_k, A_k)`` and ``(h_j a_k, (i/hbar) [H_j, A_k])``,
    with the commutator bases formed here, once, and Hermitian by
    construction; a commutator that is exactly zero adds no term.  Every
    coefficient carries its derivative: the product rule for ``h_j a_k``
    and a Richardson difference of ``dc_k``.  So ``v_A`` samples a grid as
    one array expression, and ``velocity`` applies to its own result.

    When the commutators could outnumber the ``d^2`` directions of the
    Hermitian matrices, ``v_A`` is held in :func:`hermitian_basis` instead
    (see :func:`_velocity_in_basis`): its terms never number more than
    ``d^2`` beyond those of ``a``, and at most ``d^2`` in the basis.  Below
    that count the precomputed commutators are cheaper than the batched
    matrix products the basis route needs.
    """
    if a.dim != h.dim:
        raise ValueError(f"dimension mismatch: observable dim {a.dim}, generator dim {h.dim}")
    if len(a.terms) * len(h.terms) > a.dim * a.dim:
        return _velocity_in_basis(a, h, hbar)
    scale = 1j / hbar
    # No derivative of dc_k is given.
    terms = [(dc, richardson(partial(coefficient_array, dc)), b) for _, dc, b in a.terms]
    for hc, hdc, hb in h.terms:
        for ac, adc, ab in a.terms:
            bracket = scale * (hb @ ab - ab @ hb)
            if not bracket.any():
                continue
            # The symmetrized basis is Hermitian to the last bit; the
            # coefficients are real, so v_A needs no validation.
            terms.append((_product(hc, ac), _product_rate(hc, hdc, ac, adc), hermitian_part(bracket)))
    return TimeDepOperator(terms=tuple(terms), dim=a.dim)


def _velocity_in_basis(a: TimeDepOperator, h: TimeDepOperator, hbar: float) -> TimeDepOperator:
    """``v_A`` with one term per direction of :func:`hermitian_basis`.

    Its coefficients are the coordinates of ``dA/dt + (i/hbar) [H, A]``,
    sampled from ``a`` and ``h``; their derivatives those of
    ``d^2A/dt^2 + (i/hbar) ([dH/dt, A] + [H, dA/dt])``, with ``d^2A/dt^2``
    a Richardson difference of ``a.sample_deriv``.  The coordinates are
    real, so ``v_A`` is Hermitian by construction.  Sampling costs
    ``O(n d^3)`` whatever the number of terms of ``a`` and ``h``.
    """
    scale = 1j / hbar
    second = richardson(a.sample_deriv)

    def value(t):
        hm, am = h.sample(t), a.sample(t)
        return a.sample_deriv(t) + scale * (hm @ am - am @ hm)

    def rate(t):
        hm, am, dh, da = h.sample(t), a.sample(t), h.sample_deriv(t), a.sample_deriv(t)
        return second(t) + scale * (dh @ am - am @ dh + hm @ da - da @ hm)

    count = a.dim * a.dim
    coords = table_columns(lambda t: hermitian_coordinates(value(t)), count)
    rates = table_columns(lambda t: hermitian_coordinates(rate(t)), count)
    return TimeDepOperator(terms=tuple(zip(coords, rates, hermitian_basis(a.dim))), dim=a.dim)


def checked_moments(ops: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`centered_moments` of outside input, validated first.

    ``ops`` is an ``(n, d, d)`` stack and ``states`` the ``(n, d)`` matching
    states, or one matrix and one state as a batch of one.  Every operator
    must be Hermitian within ``HERM_ASSERT_TOL`` and every state normalized
    within ``NORM_TOL``; the whole stack is checked in one pass and the
    first offending member raises.
    """
    ops = require_hermitian(ops, tol=HERM_ASSERT_TOL, what="observable")
    states = require_normalized(states)
    if ops.shape[:-1] != states.shape:
        raise ValueError(f"dimension mismatch: operators {ops.shape} vs states {states.shape}")
    dim = states.shape[-1]
    return centered_moments(ops.reshape(-1, dim, dim), states.reshape(-1, dim))


def _one(a: np.ndarray, psi: np.ndarray) -> tuple[float, np.ndarray]:
    # Validated single point through the batched kernel: mean and centered image.
    means, centered, _ = checked_moments(a, psi)
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
    """``v_A(t) = dA/dt + (i/hbar) [H(t), A(t)]``: :func:`velocity` at one time."""
    return velocity(a, h, hbar).value(t)


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
    v = velocity(a, h, hbar)
    for chunk in time_chunks(n, a.dim):
        t, psi = times[chunk], states[chunk]
        mu[chunk], da, _ = centered_moments(a.sample(t), psi, t)
        mu_dot[chunk], dv, vpsi = centered_moments(v.sample(t), psi, t, what="<v_A>")
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
) -> list[TimeDepOperator]:
    """Iterated velocity observables ``[V^0 = A, V^1, ..., V^{n_max}]``.

    ``V^{k+1} = dV^k/dt + (i/hbar) [H(t), V^k(t)]`` is :func:`velocity` of
    ``V^k``, a batched operator at every level.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    chain = [a]
    for _ in range(n_max):
        chain.append(velocity(chain[-1], h, hbar))
    return chain
