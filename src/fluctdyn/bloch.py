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
    :func:`bloch_evolve` does not.
    """

    a: Callable[[float], np.ndarray]
    h: Callable[[float], np.ndarray]
    m: Callable[[float], np.ndarray]
    m_dot: Optional[Callable[[float], np.ndarray]] = None

    def m_deriv(self, t: float) -> np.ndarray:
        if self.m_dot is None:
            raise ValueError("BlochModel.m_dot is required for the statistics")
        return np.asarray(self.m_dot(t), dtype=float)


@dataclass
class BlochEvolution:
    """Bloch vectors over a grid with the norm-drift diagnostic."""

    grid: TimeGrid
    vectors: np.ndarray
    max_drift: float
    flagged: bool


def bloch_evolve(
    model: BlochModel,
    grid: TimeGrid,
    a0: Optional[np.ndarray] = None,
    drift_tol: float = DRIFT_TOL,
) -> BlochEvolution:
    """Integrate ``a_dot = 2 h x a`` with classic fourth-order stepping.

    No renormalization is applied; the drift of ``|a|`` away from its
    initial value is the discretization diagnostic, and exceeding
    ``drift_tol`` flags the grid as too coarse.
    """
    a = np.asarray(model.a(grid.t0) if a0 is None else a0, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"initial Bloch vector must have shape (3,), got {a.shape}")
    rhs = lambda t, v: 2.0 * np.cross(np.asarray(model.h(t), dtype=float), v)
    dt = grid.dt
    times = grid.times
    out = np.empty((grid.n_steps + 1, 3))
    out[0] = a
    for k in range(grid.n_steps):
        t = times[k]
        k1 = rhs(t, a)
        k2 = rhs(t + dt / 2.0, a + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, a + dt / 2.0 * k2)
        k4 = rhs(t + dt, a + dt * k3)
        a = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = a
    norms = np.linalg.norm(out, axis=1)
    drift = float(np.max(np.abs(norms - norms[0])))
    return BlochEvolution(grid=grid, vectors=out, max_drift=drift, flagged=drift > drift_tol)


@dataclass(frozen=True)
class BlochStats:
    mean: float
    sigma_sq: float
    v_mean: float
    v2_mean: float


def bloch_stats(model: BlochModel, t: float) -> BlochStats:
    """Closed-form ``<M>``, ``sigma_M^2``, ``<v_M>``, ``<v_M^2>`` at ``t``."""
    a = np.asarray(model.a(t), dtype=float)
    m = np.asarray(model.m(t), dtype=float)
    w = model.m_deriv(t) + 2.0 * np.cross(m, np.asarray(model.h(t), dtype=float))
    am = float(a @ m)
    return BlochStats(
        mean=am,
        sigma_sq=float(m @ m) - am * am,
        v_mean=float(a @ w),
        v2_mean=float(w @ w),
    )


def geometric_residual(model: BlochModel, t: float) -> tuple[float, bool]:
    """RHS minus LHS of the 3-space form of the rate inequality.

    LHS is ``||Proj_{m_perp}(w)||^2 = (w . m_perp)^2 / (m_perp . m_perp)``
    and RHS is ``||w - (a.w) a||^2``, with ``w = m_dot + 2 m x h`` and
    ``m_perp = m - (a.m) a``.  The projected vector must be ``w``, not
    ``m_dot`` alone: the covariance that defines the deviation rate is
    ``cov(M, v_M) = w . m_perp``, so LHS equals ``(d sigma_M / dt)^2
    sigma_M^2 / sigma_M^2`` and the inequality is a plain Cauchy-Schwarz
    in the plane orthogonal to ``a`` (projecting ``m_dot`` instead drops
    the ``2 (a.m) (m x h).a`` cross term and breaks the bound).

    When ``m_perp`` degenerates (``m`` parallel to ``a``, vanishing
    dispersion) the projection form is undefined: the RHS alone is
    returned with the degeneracy flag set.
    """
    a = np.asarray(model.a(t), dtype=float)
    m = np.asarray(model.m(t), dtype=float)
    md = model.m_deriv(t)
    w = md + 2.0 * np.cross(m, np.asarray(model.h(t), dtype=float))
    w_perp = w - (a @ w) * a
    rhs = float(w_perp @ w_perp)
    m_perp = m - (a @ m) * a
    mp_sq = float(m_perp @ m_perp)
    if mp_sq <= PERP_FLOOR:
        return rhs, True
    lhs = float(w @ m_perp) ** 2 / mp_sq
    return rhs - lhs, False


def tightness_span_test(model: BlochModel, t: float, tol: float = SPAN_TOL) -> tuple[bool, float]:
    """Least-squares membership of ``m_dot`` in ``span{m x h, a}``.

    Returns ``(member, defect)`` where ``defect`` is the residual norm of
    the best ``lambda (m x h) + mu a`` fit; membership holds when the
    defect is at most ``tol * max(1, ||m_dot||)``.  Rank deficiency is
    handled by the pseudo-inverse least squares itself.
    """
    a = np.asarray(model.a(t), dtype=float)
    m = np.asarray(model.m(t), dtype=float)
    md = model.m_deriv(t)
    basis = np.column_stack([np.cross(m, np.asarray(model.h(t), dtype=float)), a])
    coeffs, _, _, _ = np.linalg.lstsq(basis, md, rcond=None)
    defect = float(np.linalg.norm(md - basis @ coeffs))
    return defect <= tol * max(1.0, float(np.linalg.norm(md))), defect
