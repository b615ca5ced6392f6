"""Geometric (Bloch-vector) route to the qubit rate bounds.

A qubit problem ``rho = (1 + a . sigma)/2``, ``H = h . sigma`` (hbar = 1),
``M = m . sigma`` admits closed-form statistics:

    <M> = a . m          sigma_M^2 = m.m - (a.m)^2
    v_M = (m_dot + 2 m x h) . sigma
    <v_M> = a . w        <v_M^2> = w . w,   w = m_dot + 2 m x h

and the Bloch vector itself obeys ``a_dot = 2 h x a``.  These formulas are
an independent oracle for the full matrix pipeline: every qubit scenario can
be computed both ways and compared channel by channel.

The rate inequality becomes a statement in 3-space: the squared projection
of ``m_dot`` onto the component of ``m`` orthogonal to ``a`` is bounded by
the squared ``a``-orthogonal component of ``w``.  Tightness is certified by
membership of ``m_dot`` in ``span{m x h, a}`` (a sufficient condition),
decided here by least squares.

Everything here works over arrays of times.  A :class:`BlochModel`'s
callables map ``(n,)`` times to ``(n, 3)`` vectors; :func:`bloch_stats`,
:func:`geometric_residual` and :func:`tightness_span_test` take an array
of times and return one array entry per time (a single time is a batch of
one), with one explicit cross product and one batched least-squares fit
for the whole array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import TimeGrid

DRIFT_TOL = 1e-6
SPAN_TOL = 1e-8
PERP_FLOOR = 1e-12


@dataclass
class BlochModel:
    """Time-indexed 3-vectors describing a qubit problem.

    ``a(t)`` is the Bloch vector, ``h(t)`` the field vector (angular
    frequency units, hbar = 1), ``m(t)`` the observable vector, and
    ``m_dot(t)`` its time derivative, which the statistics need and
    :func:`bloch_evolve` does not.  Each callable maps an ``(n,)`` array of
    times to an ``(n, 3)`` array of vectors; a constant ``(3,)`` vector is
    broadcast over the times.
    """

    a: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    m: Callable[[np.ndarray], np.ndarray]
    m_dot: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def m_deriv(self, times: np.ndarray) -> np.ndarray:
        if self.m_dot is None:
            raise ValueError("BlochModel.m_dot is required for the statistics")
        return _vectors(self.m_dot, times)


def _times(t) -> np.ndarray:
    # One time is a batch of one.
    return np.atleast_1d(np.asarray(t, dtype=float))


def _vectors(f: Callable, times: np.ndarray) -> np.ndarray:
    """``f(times)`` as an ``(n, 3)`` float array; a constant 3-vector is broadcast."""
    v = np.asarray(f(times), dtype=float)
    if v.shape not in ((3,), (len(times), 3)):
        raise ValueError(f"Bloch model vectors must have shape (3,) or ({len(times)}, 3), got {v.shape}")
    return np.broadcast_to(v, (len(times), 3))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u x v`` of 3-vectors, row by row for ``(n, 3)`` arrays."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u . v`` of ``(n, 3)`` arrays."""
    return (u * v).sum(axis=-1)


@dataclass
class BlochEvolution:
    """Bloch vectors over a grid with the norm-drift diagnostic."""

    grid: TimeGrid
    vectors: np.ndarray
    max_drift: float
    flagged: bool


def bloch_evolve(model: BlochModel, grid: TimeGrid, a0: Optional[np.ndarray] = None) -> BlochEvolution:
    """Integrate ``a_dot = 2 h x a`` with classic fourth-order stepping.

    ``h`` is sampled at every stage time (each step's start, midpoint and
    end) with one call; only the steps themselves run in a loop.  No
    renormalization is applied; the drift of ``|a|`` away from its initial
    value is the discretization diagnostic, and exceeding ``DRIFT_TOL``
    flags the grid as too coarse.
    """
    a = _vectors(model.a, _times(grid.t0))[0] if a0 is None else np.asarray(a0, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"initial Bloch vector must have shape (3,), got {a.shape}")
    dt = grid.dt
    starts = grid.times[:-1]
    n = grid.n_steps
    # a_dot = (2 h) x a; doubling is exact, so this is 2 (h x a) bit for bit.
    two_h = 2.0 * _vectors(model.h, np.concatenate([starts, starts + dt / 2.0, starts + dt]))
    h_start, h_mid, h_end = two_h[:n], two_h[n : 2 * n], two_h[2 * n :]
    out = np.empty((n + 1, 3))
    out[0] = a
    for k in range(n):
        k1 = _cross(h_start[k], a)
        k2 = _cross(h_mid[k], a + dt / 2.0 * k1)
        k3 = _cross(h_mid[k], a + dt / 2.0 * k2)
        k4 = _cross(h_end[k], a + dt * k3)
        a = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = a
    norms = np.linalg.norm(out, axis=1)
    drift = float(np.max(np.abs(norms - norms[0])))
    return BlochEvolution(grid=grid, vectors=out, max_drift=drift, flagged=drift > DRIFT_TOL)


# eq=False: a generated __eq__ would compare the arrays elementwise.
@dataclass(frozen=True, eq=False)
class BlochStats:
    """Closed-form statistics, one array entry per time."""

    mean: np.ndarray
    sigma_sq: np.ndarray
    v_mean: np.ndarray
    v2_mean: np.ndarray


def _velocity_vector(model: BlochModel, times: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``w = m_dot + 2 m x h``, the vector of ``v_M``."""
    return model.m_deriv(times) + 2.0 * _cross(m, _vectors(model.h, times))


def bloch_stats(model: BlochModel, t) -> BlochStats:
    """Closed-form ``<M>``, ``sigma_M^2``, ``<v_M>``, ``<v_M^2>`` at each time of ``t``."""
    times = _times(t)
    a = _vectors(model.a, times)
    m = _vectors(model.m, times)
    w = _velocity_vector(model, times, m)
    am = _dot(a, m)
    return BlochStats(mean=am, sigma_sq=_dot(m, m) - am * am, v_mean=_dot(a, w), v2_mean=_dot(w, w))


def geometric_residual(model: BlochModel, t) -> tuple[np.ndarray, np.ndarray]:
    """RHS minus LHS of the 3-space form of the rate inequality, at each time of ``t``.

    LHS is ``||Proj_{m_perp}(w)||^2 = (w . m_perp)^2 / (m_perp . m_perp)``
    and RHS is ``||w - (a.w) a||^2``, with ``w = m_dot + 2 m x h`` and
    ``m_perp = m - (a.m) a``.  The projected vector must be ``w``, not
    ``m_dot`` alone: the covariance that defines the deviation rate is
    ``cov(M, v_M) = w . m_perp``, so LHS equals ``(d sigma_M / dt)^2
    sigma_M^2 / sigma_M^2`` and the inequality is a plain Cauchy-Schwarz
    in the plane orthogonal to ``a`` (projecting ``m_dot`` instead drops
    the ``2 (a.m) (m x h).a`` cross term and breaks the bound).

    Returns ``(residual, degenerate)`` arrays.  Where ``m_perp``
    degenerates (``m`` parallel to ``a``, vanishing dispersion) the
    projection form is undefined: the residual is the RHS alone and the
    degeneracy flag is set.
    """
    times = _times(t)
    a = _vectors(model.a, times)
    m = _vectors(model.m, times)
    w = _velocity_vector(model, times, m)
    w_perp = w - _dot(a, w)[:, None] * a
    rhs = _dot(w_perp, w_perp)
    m_perp = m - _dot(a, m)[:, None] * a
    mp_sq = _dot(m_perp, m_perp)
    degenerate = mp_sq <= PERP_FLOOR
    lhs = np.divide(_dot(w, m_perp) ** 2, mp_sq, out=np.zeros_like(rhs), where=~degenerate)
    return rhs - lhs, degenerate


def tightness_span_test(model: BlochModel, t) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares membership of ``m_dot`` in ``span{m x h, a}``, at each time of ``t``.

    Returns ``(member, defect)`` arrays, where ``defect`` is the residual
    norm of the best ``lambda (m x h) + mu a`` fit; membership holds when
    the defect is at most ``SPAN_TOL * max(1, ||m_dot||)``.  The fits are one
    batched pseudo-inverse with ``lstsq``'s default cutoff, which also
    handles rank deficiency.
    """
    times = _times(t)
    a = _vectors(model.a, times)
    m = _vectors(model.m, times)
    md = model.m_deriv(times)
    basis = np.stack([_cross(m, _vectors(model.h, times)), a], axis=-1)
    coeffs = np.linalg.pinv(basis, rcond=3 * np.finfo(float).eps) @ md[:, :, None]
    defect = np.linalg.norm(md - (basis @ coeffs)[:, :, 0], axis=1)
    return defect <= SPAN_TOL * np.maximum(1.0, np.linalg.norm(md, axis=1)), defect
