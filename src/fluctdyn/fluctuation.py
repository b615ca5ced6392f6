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
:class:`~fluctdyn.dynamics.TimeDepOperator`; the grid functions apply it,
:func:`velocity_observable` evaluates it at one time, and
:func:`higher_order_chain` iterates it.  Its bases ``A_k`` and
``(i/hbar) [H_j, A_k]`` are formed once (commutators that vanish exactly
are skipped), and every coefficient carries its own derivative, so each
level of the chain is again a batched operator.  Its coefficients are one
array function of times, like every operator's: a sample evaluates the
coefficient functions of ``A`` and ``H`` once each and picks the products
of the nonzero commutators by index.  When the commutators could
outnumber the ``d^2`` directions of the Hermitian matrices (tabulated
operators, deep chain levels), ``v_A`` is held in the real Hermitian basis
instead, its coordinates read off ``dA/dt + (i/hbar) [H, A]`` sampled from
``A`` and ``H``.

Every statistic goes through one batched kernel, :func:`centered_moments`:
states and their images ``A_k psi_k`` in as ``(d, n)`` blocks, time on the
last axis, means and centered images ``(A_k - <A_k>) psi_k`` out, with
variances and covariances as column-wise inner products of the centered
images (:func:`inner_re`; cancellation-free, so an eigenstate gives
exactly zero).  No statistic needs the matrices themselves: grid functions
apply their operators with :meth:`TimeDepOperator.act`, and every grid
statistic (here, in :mod:`fluctdyn.bounds` and in
:mod:`fluctdyn.scenarios`) walks the time axis in :func:`walk_grid`, which
hands each chunk of the ``(n, d)`` trajectory on as a contiguous ``(d,
len)`` block, so every reduction runs over the short axis ``d`` and every
elementwise operation along time.  Memory stays bounded on long grids and
large cutoffs, and a statistic that overflows raises
:class:`~fluctdyn.linops.NumericBreakdown` at its first time.
:func:`checked_moments` is the kernel for outside operator stacks: it
validates a whole stack (Hermitian operators, normalized states) in one
pass, then applies it; one matrix and one state are a batch of one.

The ``sigma -> 0`` instants are genuinely degenerate for the rate form
(the covariance formula divides by ``sigma``); the series switches to the
division-free Cauchy-Schwarz certificate ``sigma^2 sigma_v^2 - cov^2 >= 0``
there and flags the rate fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .dynamics import TimeDepOperator, Trajectory, hermitian_basis, hermitian_coordinates, hermitian_part
from .dynamics import richardson, time_chunks
from .linops import NumericBreakdown, at_time, require_hermitian, require_normalized

SIGMA_FLOOR = 1e-9
TIGHT_TOL = 1e-6
IMAG_TOL = 1e-10
HERM_ASSERT_TOL = 1e-10


def centered_moments(
    images: np.ndarray, states: np.ndarray, times: Optional[np.ndarray] = None, what: str = "expectation"
) -> tuple[np.ndarray, np.ndarray]:
    """Means ``<A_k>`` and centered images ``(A_k - <A_k>) psi_k`` from the images ``A_k psi_k``.

    ``images`` and ``states`` are ``(d, n)`` blocks, column ``k`` the image
    of a Hermitian operator and the state it was applied to.  The imaginary
    part of each mean, rounding noise for Hermitian input, is discarded
    after a check that it is below ``IMAG_TOL`` times
    ``max(1, ||psi_k|| ||A_k psi_k||)``, the bound on ``|<A_k>|`` that its
    rounding scales with.  Only the points whose imaginary part exceeds
    ``IMAG_TOL`` are looked at further: first against ``max(1, |<A_k>|)``,
    a threshold no larger, and the norms are taken only where that flags.
    The first offending point raises
    :class:`~fluctdyn.linops.NumericBreakdown`, named at its time when
    ``times`` is given.
    """
    means = (states.conj() * images).sum(axis=0)
    if (np.abs(means.imag) > IMAG_TOL).any():
        flagged = np.flatnonzero(np.abs(means.imag) > IMAG_TOL * np.maximum(1.0, np.abs(means.real)))
        if len(flagged):
            with np.errstate(over="ignore"):  # an infinite bound flags nothing; the walk checks the statistics
                scale = np.linalg.norm(states[:, flagged], axis=0) * np.linalg.norm(images[:, flagged], axis=0)
            bad = flagged[np.abs(means.imag[flagged]) > IMAG_TOL * np.maximum(1.0, scale)]
            if len(bad):
                k = int(bad[0])
                raise NumericBreakdown(
                    f"{what} has non-negligible imaginary part {means.imag[k]:.3e}{at_time(times, k)}"
                )
    means = means.real
    return means, images - means * states


def inner_re(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise ``Re <x_k | y_k>`` of two ``(d, n)`` blocks."""
    return (x.conj() * y).real.sum(axis=0)


def velocity(a: TimeDepOperator, h: TimeDepOperator, hbar: float = 1.0) -> TimeDepOperator:
    """The velocity observable ``v_A = dA/dt + (i/hbar) [H, A]`` as an operator.

    Its terms are ``(dc_k, A_k)`` and ``(h_j a_k, (i/hbar) [H_j, A_k])``,
    with the commutator bases formed here, once, and Hermitian by
    construction; a commutator that is exactly zero adds no term.  Every
    coefficient carries its derivative: the product rule
    ``h_j' a_k + h_j a_k'`` and a Richardson difference of ``dc_k``.  A
    sample evaluates each coefficient function of ``a`` and ``h`` once and
    picks the products by index, so ``v_A`` samples a grid as one array
    expression, and ``velocity`` applies to its own result.

    When the commutators could outnumber the ``d^2`` directions of the
    Hermitian matrices, ``v_A`` is held in :func:`hermitian_basis` instead
    (see :func:`_velocity_in_basis`): its terms never number more than
    ``d^2`` beyond those of ``a``, and at most ``d^2`` in the basis.  Below
    that count the precomputed commutators are cheaper than the batched
    matrix products the basis route needs.
    """
    if a.dim != h.dim:
        raise ValueError(f"dimension mismatch: observable dim {a.dim}, generator dim {h.dim}")
    if len(a.bases) * len(h.bases) > a.dim * a.dim:
        return _velocity_in_basis(a, h, hbar)
    scale = 1j / hbar
    js, ks, brackets = [], [], []
    # A tiny hbar makes a bracket NaN, which the walk over the grid names.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, hb in enumerate(h.bases):
            for k, ab in enumerate(a.bases):
                bracket = scale * (hb @ ab - ab @ hb)
                if bracket.any():
                    # The symmetrized basis is Hermitian to the last bit; the
                    # coefficients are real, so v_A needs no validation.
                    js.append(j)
                    ks.append(k)
                    brackets.append(hermitian_part(bracket))
    # No derivative of dc_k is given.
    second = richardson(a.rates)
    if not brackets:
        return TimeDepOperator(coeffs=a.rates, rates=second, bases=a.bases)

    def coeffs(t):
        return np.concatenate([a.rates(t), h.coeffs(t)[:, js] * a.coeffs(t)[:, ks]], axis=1)

    def rates(t):
        hc, ac = h.coeffs(t)[:, js], a.coeffs(t)[:, ks]
        products = h.rates(t)[:, js] * ac + hc * a.rates(t)[:, ks]
        return np.concatenate([second(t), products], axis=1)

    return TimeDepOperator(coeffs=coeffs, rates=rates, bases=np.concatenate([a.bases, brackets]))


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

    def coeffs(t):
        hm, am = h.sample(t), a.sample(t)
        return hermitian_coordinates(a.sample_deriv(t) + scale * (hm @ am - am @ hm))

    def rates(t):
        hm, am, dh, da = h.sample(t), a.sample(t), h.sample_deriv(t), a.sample_deriv(t)
        return hermitian_coordinates(second(t) + scale * (dh @ am - am @ dh + hm @ da - da @ hm))

    return TimeDepOperator(coeffs=coeffs, rates=rates, bases=hermitian_basis(a.dim))


def checked_moments(ops: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`centered_moments` of an outside operator stack, validated first.

    ``ops`` is an ``(n, d, d)`` stack and ``states`` the ``(n, d)`` matching
    states, or one matrix and one state as a batch of one.  Every operator
    must be Hermitian within ``HERM_ASSERT_TOL`` and every state normalized
    within ``NORM_TOL``; the whole stack is checked in one pass and the
    first offending member raises.  The stack is then applied to the states,
    and the images and states go to the kernel as ``(d, n)`` blocks, so the
    centered images come back as one: column ``k`` is member ``k``'s.
    """
    ops = require_hermitian(ops, tol=HERM_ASSERT_TOL, what="observable")
    states = require_normalized(states)
    if ops.shape[:-1] != states.shape:
        raise ValueError(f"dimension mismatch: operators {ops.shape} vs states {states.shape}")
    dim = states.shape[-1]
    states = states.reshape(-1, dim)
    return centered_moments(np.matmul(ops.reshape(-1, dim, dim), states[:, :, None])[:, :, 0].T, states.T)


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


def walk_grid(times, arrays, columns_of, width: int, what: str, dim: int, rows: Optional[int] = None) -> tuple:
    """The ``width`` columns ``columns_of(t, *chunks)`` returns, one value per time, walked chunk by chunk.

    The chunks are :func:`~fluctdyn.dynamics.time_chunks` of ``(rows dim,
    len)`` blocks; ``t`` holds a chunk's times and ``chunks`` the slices of
    ``arrays`` there, time on the last axis: an ``(n, d)`` stack of states
    is handed on as a C-contiguous ``(d, len)`` block.  Overflow is not
    warned about: the first time where a column is not finite raises
    :class:`NumericBreakdown` naming ``what``.
    """
    # Allocated before the first chunk: allocated after it, the columns
    # raised a 50k-point trace's peak RSS by 0.2-0.4 MB.
    columns = tuple(np.empty(len(times)) for _ in range(width))
    for chunk in time_chunks(len(times), dim, rows):
        t = times[chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            values = columns_of(t, *(np.ascontiguousarray(x[chunk].T) for x in arrays))
        if not all(np.isfinite(value).all() for value in values):
            bad = reduce(np.logical_or, (~np.isfinite(value) for value in values))
            raise NumericBreakdown(f"{what} are not finite{at_time(t, int(np.argmax(bad)))}")
        for column, value in zip(columns, values):
            column[chunk] = value
    return columns


def rate_columns(
    a: TimeDepOperator, h: TimeDepOperator, traj: Trajectory, hbar: float = 1.0
) -> tuple[np.ndarray, ...]:
    """``(mu, var, mu_dot, v_sq, sigma_v_sq, cov)`` of ``A`` and ``v_A`` at every grid point.

    Evaluated by :func:`walk_grid` from the images ``A psi`` and ``v_A psi``
    (:meth:`TimeDepOperator.act`), so a statistic that is not finite raises
    :class:`NumericBreakdown` at its first time.  ``v_sq`` is the direct
    ``<v_A^2>``; ``var``, ``sigma_v_sq`` and ``cov = cov(A, v_A)`` come
    from the centered images.
    """
    v = velocity(a, h, hbar)

    def columns(t, psi):
        mu, da = centered_moments(a.act(t, psi), psi, t)
        vpsi = v.act(t, psi)
        mu_dot, dv = centered_moments(vpsi, psi, t, what="<v_A>")
        return mu, inner_re(da, da), mu_dot, inner_re(vpsi, vpsi), inner_re(dv, dv), inner_re(da, dv)

    return walk_grid(traj.grid.times, [traj.states], columns, 6, "rate statistics", a.dim, max(a.act_rows, v.act_rows))


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
    # Of degree four in the operators, it can overflow where the rates do not.
    (cs_residual,) = walk_grid(
        traj.grid.times, [var, sigma_v_sq, cov], lambda t, x, y, c: (x * y - c * c,), 1, "Cauchy-Schwarz residuals", 1
    )
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
        cs_residual=cs_residual,
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
