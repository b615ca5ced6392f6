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
:func:`higher_order_chain` iterates it.  When both operators carry
``terms``, so does ``v_A``: its bases ``A_k`` and ``(i/hbar) [H_j, A_k]``
are formed once, and every coefficient carries its own derivative, so each
level of the chain is again a batched ``terms`` operator.  Bare callables
give a per-point ``v_A`` with a Richardson-difference derivative.

Every statistic goes through one batched kernel, :func:`centered_moments`:
states ``(n, d)`` and operator stacks ``(n, d, d)`` in, means and centered
images ``(A_k - <A_k>) psi_k`` out, with variances and covariances as
row-wise inner products of the centered images (cancellation-free, so an
eigenstate gives exactly zero).  Grid functions sample their operators
with :meth:`TimeDepOperator.sample` and walk the time axis with
:func:`~fluctdyn.dynamics.time_chunks`, so memory stays bounded on long
grids and large cutoffs.  Single-point functions are batches of one.

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

from .dynamics import TimeDepOperator, Trajectory, coefficient_values, time_chunks
from .linops import at_time, require_hermitian, require_normalized

SIGMA_FLOOR = 1e-9
TIGHT_TOL = 1e-6
IMAG_TOL = 1e-10
HERM_ASSERT_TOL = 1e-10
# Step of the Richardson difference wherever a derivative is not given.
RICHARDSON_STEP = 1e-3


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


def _richardson(f: Callable, step: float = RICHARDSON_STEP) -> Callable:
    """Richardson-refined central difference of ``f`` (O(step^4) truncation)."""

    def df(t):
        d1 = (f(t + step) - f(t - step)) / (2.0 * step)
        d2 = (f(t + step / 2) - f(t - step / 2)) / step
        return (4.0 * d2 - d1) / 3.0

    return df


def _rate(c: Callable, dc: Optional[Callable]) -> Callable:
    """The derivative of coefficient ``c``: ``dc`` when given, else a Richardson difference of ``c``."""
    return dc if dc is not None else _richardson(lambda t: coefficient_values(c, t))


def _product(f: Callable, g: Callable) -> Callable:
    return lambda t: coefficient_values(f, t) * coefficient_values(g, t)


def _product_rate(f: Callable, df: Callable, g: Callable, dg: Callable) -> Callable:
    """``(f g)' = f' g + f g'``."""
    df_g, f_dg = _product(df, g), _product(f, dg)
    return lambda t: df_g(t) + f_dg(t)


def velocity(a: TimeDepOperator, h: TimeDepOperator, hbar: float = 1.0) -> TimeDepOperator:
    """The velocity observable ``v_A = dA/dt + (i/hbar) [H, A]`` as an operator.

    With ``terms`` on both operators, ``v_A`` has ``terms`` too:
    ``(dc_k, A_k)`` and ``(h_j a_k, (i/hbar) [H_j, A_k])``, with the
    commutator bases formed here, once, and Hermitian by construction.
    Every coefficient carries its derivative: analytic where given, the
    product rule for ``h_j a_k``, and a Richardson difference of the
    coefficient where no derivative exists.  So ``v_A`` samples a grid as
    one array expression, and ``velocity`` applies to its own result.

    Otherwise ``v_A(t)`` is formed per point from :meth:`~TimeDepOperator.deriv`
    and the operators' values, with its Hermiticity asserted; its
    derivative is a Richardson difference of that value map.
    """
    if a.dim != h.dim:
        raise ValueError(f"dimension mismatch: observable dim {a.dim}, generator dim {h.dim}")
    scale = 1j / hbar
    if a.terms is not None and h.terms is not None:
        terms = []
        for c, dc, b in a.terms:
            dc = _rate(c, dc)
            terms.append((dc, _rate(dc, None), b))  # no derivative of dc_k is given
        for hc, hdc, hb in h.terms:
            for ac, adc, ab in a.terms:
                bracket = scale * (hb @ ab - ab @ hb)
                # Symmetrized, the basis is Hermitian to the last bit, so
                # linear's absolute check holds at any scale of H and A.
                terms.append(
                    (
                        _product(hc, ac),
                        _product_rate(hc, _rate(hc, hdc), ac, _rate(ac, adc)),
                        (bracket + bracket.conj().T) / 2.0,
                    )
                )
        return TimeDepOperator.linear(terms)

    def value(t):
        h_t, a_t = h.value(t), a.value(t)
        v = a.deriv(t) + scale * (h_t @ a_t - a_t @ h_t)
        defect = float(np.abs(v - v.conj().T).max())
        if defect > HERM_ASSERT_TOL:
            raise AssertionError(f"velocity observable not Hermitian (defect {defect:.3e}) at t = {t}")
        return v

    return TimeDepOperator(value=value, dim=a.dim, dvalue=_richardson(value))


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
    ``V^k``: a ``terms`` operator at every level when ``a`` and ``h`` carry
    ``terms``, a per-point value map otherwise.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    chain = [a]
    for _ in range(n_max):
        chain.append(velocity(chain[-1], h, hbar))
    return chain
