"""Time evolution under time-dependent Hermitian generators.

Operators
    :class:`TimeDepOperator` wraps a value map ``t -> ndarray`` (and
    optionally its analytic derivative).  Operators of the form
    ``sum_k c_k(t) B_k`` also carry that decomposition as ``terms``, a tuple
    of ``(c_k, dc_k, B_k)`` triples filled in by :meth:`TimeDepOperator.linear`,
    :meth:`~TimeDepOperator.scaled` and :meth:`~TimeDepOperator.stationary`.
    :meth:`~TimeDepOperator.sample` and :meth:`~TimeDepOperator.sample_deriv`
    return the operator over a whole array of times as an ``(n, d, d)``
    stack: one array expression over the coefficients when ``terms`` is
    set, otherwise the value map evaluated per time (tabulated samples,
    user callables), with the same central difference as
    :meth:`~TimeDepOperator.deriv` when there is no derivative.  A ``terms``
    operator's ``value``/``dvalue`` are its samples at one time, so the
    per-point and the batched route agree to the last bit.  Grid functions
    walk the time axis with :func:`time_chunks`, so no stack exceeds
    ``CHUNK_BYTES``.

Two propagation routes, both reading ``H`` only through ``sample`` or its
``terms``:

``exact_commuting``
    For ``terms`` operators whose bases commute pairwise
    (:attr:`TimeDepOperator.commuting_family`) the propagator is the closed
    form ``exp(-(i/hbar) * Integral_0^t H)``.  Each coefficient is
    integrated by adaptive Simpson quadrature (absolute tolerance 1e-12),
    and the bases are diagonalized once, in one shared eigenbasis, so the
    propagator at every output time is a diagonal of phases in that basis.

``midpoint``
    General-purpose exponential midpoint stepping,
    ``U_k = exp(-i dt H(t_k + dt/2) / hbar)``.  ``H`` is sampled at the
    step midpoints and exponentiated one chunk at a time with a batched
    eigendecomposition; only ``psi <- U_k psi`` runs per step.  Second
    order in ``dt``; exactly norm-preserving per step up to eigensolver
    accuracy.

Trajectories store the full state history plus per-step normalization
defects, and optionally the cumulative propagators (needed by the
representation-equivalence diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterator, Optional

import numpy as np

from .linops import HERM_TOL, herm_expm, require_hermitian, require_normalized

SIMPSON_TOL = 1e-12
DEFAULT_FD_STEP = 1e-6
DEFAULT_NORM_BUDGET = 1e-8
# Largest (n, d, d) complex stack a grid function holds at once.  Larger
# chunks ran no faster but raised the peak memory of a 50k-point trace and
# of a d=33 sweep above that of a point-by-point loop.
CHUNK_BYTES = 1 << 18


def time_chunks(n: int, dim: int) -> Iterator[slice]:
    """Slices covering ``range(n)`` whose ``(len, dim, dim)`` stacks fit ``CHUNK_BYTES``."""
    step = max(1, CHUNK_BYTES // (16 * dim * dim))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def coefficient_values(f: Callable, times: np.ndarray) -> np.ndarray:
    """``f`` evaluated at every entry of ``times``.

    One array call when ``f`` accepts arrays (a constant result is
    broadcast); one call per time otherwise.
    """
    try:
        out = np.asarray(f(times))
        if out.ndim == 0:
            return np.full(times.shape, out)
        if out.shape == times.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([f(t) for t in times])


@dataclass
class TimeDepOperator:
    """A time-indexed Hermitian operator with optional analytic derivative.

    Parameters
    ----------
    value : callable
        ``t -> ndarray`` returning the operator at time ``t``.
    dim : int
        Matrix dimension.
    dvalue : callable, optional
        ``t -> ndarray`` analytic time derivative.  When absent,
        :meth:`deriv` falls back to a central finite difference with step
        ``fd_step``.
    terms : tuple, optional
        ``((c_1, dc_1, B_1), ...)`` with ``value(t) == sum_k c_k(t) B_k``;
        ``dc_k`` is the derivative of ``c_k`` or None.  Populated by
        :meth:`linear`, :meth:`scaled` and :meth:`stationary`; lets
        :meth:`sample` evaluate a whole grid as one array expression.
    """

    value: Callable[[float], np.ndarray]
    dim: int
    dvalue: Optional[Callable[[float], np.ndarray]] = None
    fd_step: float = DEFAULT_FD_STEP
    terms: Optional[tuple] = None

    def __call__(self, t: float) -> np.ndarray:
        return self.value(t)

    @property
    def commuting_family(self) -> bool:
        """Whether ``[value(t), value(t')] = 0`` is known for all ``t, t'``.

        True for ``terms`` operators whose bases commute pairwise; this
        enables the ``exact_commuting`` propagation route.  A bare value map
        is never known to commute.
        """
        if self.terms is None:
            return False
        bases = [b for _, _, b in self.terms]
        return all(
            np.abs(bj @ bk - bk @ bj).max() <= HERM_TOL * max(1.0, np.abs(bj).max() * np.abs(bk).max())
            for j, bj in enumerate(bases)
            for bk in bases[j + 1 :]
        )

    def deriv(self, t: float, step: Optional[float] = None) -> np.ndarray:
        """Analytic derivative when available, else central finite difference."""
        if self.dvalue is not None:
            return self.dvalue(t)
        h = self.fd_step if step is None else step
        return (self.value(t + h) - self.value(t - h)) / (2.0 * h)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """The operator at every entry of ``times`` as an ``(n, d, d)`` stack."""
        times = np.asarray(times, dtype=float)
        if self.terms is not None:
            return weighted_sum([(coefficient_values(c, times), b) for c, _, b in self.terms])
        return _stack(self.value, times)

    def sample_deriv(self, times: np.ndarray) -> np.ndarray:
        """Time derivative at every entry of ``times``, as :meth:`deriv` defines it."""
        times = np.asarray(times, dtype=float)
        if self.terms is not None and all(dc is not None for _, dc, _ in self.terms):
            return weighted_sum([(coefficient_values(dc, times), b) for _, dc, b in self.terms])
        if self.dvalue is not None:
            return _stack(self.dvalue, times)
        h = self.fd_step
        return (self.sample(times + h) - self.sample(times - h)) / (2.0 * h)

    @classmethod
    def linear(cls, terms) -> "TimeDepOperator":
        """Operator ``sum_k c_k(t) B_k`` from ``(c_k, dc_k, B_k)`` triples.

        The bases must be Hermitian and the coefficients real.  The analytic
        derivative exists when every ``dc_k`` is given.
        """
        terms = tuple(
            (c, dc, require_hermitian(np.asarray(b, dtype=complex), what="operator basis"))
            for c, dc, b in terms
        )
        if not terms:
            raise ValueError("a linear operator needs at least one term")
        dim = terms[0][2].shape[0]
        if any(b.shape != (dim, dim) for _, _, b in terms):
            raise ValueError("operator basis matrices differ in dimension")
        # value and dvalue are the samples at one time; the closures read
        # ``op`` once it is bound below.
        dvalue = None
        if all(dc is not None for _, dc, _ in terms):
            dvalue = lambda t: op.sample_deriv(np.array([t], dtype=float))[0]
        op = cls(value=lambda t: op.sample(np.array([t], dtype=float))[0], dim=dim, dvalue=dvalue, terms=terms)
        return op

    @classmethod
    def stationary(cls, mat: np.ndarray) -> "TimeDepOperator":
        """Constant-in-time operator; a (trivially) commuting family."""
        return cls.linear([(lambda t: 1.0, lambda t: 0.0, mat)])

    @classmethod
    def scaled(
        cls,
        f: Callable[[float], float],
        fdot: Optional[Callable[[float], float]],
        base: np.ndarray,
    ) -> "TimeDepOperator":
        """Operator of the form ``f(t) * base`` (a commuting family)."""
        return cls.linear([(f, fdot, base)])


def weighted_sum(weighted: list) -> np.ndarray:
    """``sum_k c_k[:, None, None] * B_k`` over ``(c_k, B_k)`` pairs with real ``c_k``.

    Evaluated as one contraction of the ``(n, K)`` coefficients with the
    bases' real and imaginary parts.  ``einsum`` adds the terms of every
    entry in the same order whatever the batch, so a time's matrix does not
    depend on the other times sampled with it (a BLAS product rounds a
    one-row batch differently from a longer one).
    """
    if len(weighted) == 1:  # BLAS is slow at rank-1 products
        (c, b), = weighted
        return np.asarray(c, dtype=float)[:, None, None] * b
    coeffs = np.stack([np.asarray(c, dtype=float) for c, _ in weighted], axis=1)
    bases = np.stack([np.asarray(b, dtype=complex) for _, b in weighted])
    flat = np.einsum("nk,kx->nx", coeffs, bases.view(float).reshape(len(weighted), -1))
    return flat.view(complex).reshape(len(coeffs), *bases.shape[1:])


def _stack(fn: Callable, times: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(fn(t), dtype=complex) for t in times])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid over ``[t0, t1]`` with ``n_steps`` steps.

    The grid points are computed once, at construction, and exposed as a
    read-only array by :attr:`times`.
    """

    t0: float
    t1: float
    n_steps: int
    _times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        times = np.linspace(self.t0, self.t1, self.n_steps + 1)
        times.flags.writeable = False
        object.__setattr__(self, "_times", times)

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self._times


@dataclass
class Trajectory:
    """Evolved states over a grid plus unitarity diagnostics.

    ``states[k]`` is the state at ``grid.times[k]``; ``norm_defects[k]`` is
    ``| ||states[k]|| - 1 |``.  ``propagators``, when stored, holds the
    cumulative unitaries ``U(t_k)`` with ``states[k] = U(t_k) @ states[0]``.
    ``flagged`` marks a norm defect beyond the budget the run was given.
    """

    grid: TimeGrid
    states: np.ndarray
    norm_defects: np.ndarray
    propagators: Optional[np.ndarray] = None
    flagged: bool = False
    norm_budget: float = DEFAULT_NORM_BUDGET


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    refined = left + right
    err = refined - whole
    if depth <= 0 or np.max(np.abs(err)) <= 15.0 * tol:
        return refined + err / 15.0
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _adaptive_simpson(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float = SIMPSON_TOL, max_depth: int = 30):
    """Adaptive Simpson quadrature of a scalar- or matrix-valued function."""
    if a == b:
        fa = f(a)
        return 0.0 * fa
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _cumulative_simpson_scalar(f, times: np.ndarray, tol: float) -> np.ndarray:
    """Cumulative integral of scalar ``f`` at the grid times.

    Vectorized two-level Simpson per interval with adaptive refinement of
    any interval whose two-panel error estimate exceeds the tolerance.
    """
    dt = np.diff(times)
    fv, fm, fq1, fq3 = (
        coefficient_values(f, x).astype(float)
        for x in (times, (times[:-1] + times[1:]) / 2.0, times[:-1] + 0.25 * dt, times[:-1] + 0.75 * dt)
    )
    coarse = dt / 6.0 * (fv[:-1] + 4.0 * fm + fv[1:])
    fine = dt / 12.0 * (fv[:-1] + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fv[1:])
    err = np.abs(fine - coarse) / 15.0
    pieces = fine + (fine - coarse) / 15.0
    bad = np.nonzero(err > tol)[0]
    for k in bad:
        pieces[k] = adaptive_simpson(f, times[k], times[k + 1], tol=tol)
    out = np.empty_like(fv)
    out[0] = 0.0
    np.cumsum(pieces, out=out[1:])
    return out


def _common_eigenbasis(bases: list) -> tuple[np.ndarray, np.ndarray]:
    """``(lams, vecs)`` with ``bases[k] = vecs diag(lams[k]) vecs^dagger`` for commuting bases.

    ``vecs`` are the eigenvectors of a generic real combination of the
    bases: each is rescaled to the magnitude of the first and weighted by
    ``cos(k)``, so no basis drowns the others and the combination is
    degenerate only where every basis is.  Raises if some basis is not
    diagonal in ``vecs``.  A single basis is diagonalized as it is and keeps
    the eigenvalues ``eigh`` returns for it.
    """
    sizes = [np.abs(b).max() for b in bases]
    ref = sizes[0] or 1.0
    mix = bases[0]
    for k in range(1, len(bases)):
        if sizes[k] > 0.0:
            mix = mix + (np.cos(k) * ref / sizes[k]) * bases[k]
    w, vecs = np.linalg.eigh(mix)
    rotated = vecs.conj().T @ np.stack(bases) @ vecs
    lams = np.diagonal(rotated, axis1=1, axis2=2).real if len(bases) > 1 else w[None]
    for k, r in enumerate(rotated):
        defect = np.abs(r - np.diag(np.diagonal(r))).max()
        if defect > HERM_TOL * max(1.0, sizes[k]):
            raise AssertionError(f"basis {k} is not diagonal in the shared eigenbasis (defect {defect:.3e})")
    return lams, vecs


def propagate(
    h: TimeDepOperator,
    psi0: np.ndarray,
    grid: TimeGrid,
    method: str = "midpoint",
    hbar: float = 1.0,
    store_propagators: bool = False,
    norm_budget: float = DEFAULT_NORM_BUDGET,
) -> Trajectory:
    """Evolve ``psi0`` under ``h`` over ``grid``.

    Parameters
    ----------
    method : {"exact_commuting", "midpoint"}
        ``exact_commuting`` requires ``h.commuting_family`` and evaluates
        the closed-form propagator independently at every output time;
        ``midpoint`` composes per-step exponentials.

    Raises
    ------
    ValueError
        If ``psi0`` is not normalized, dimensions mismatch, ``H`` is not
        Hermitian or finite at a midpoint (named by its time), or
        ``exact_commuting`` is requested for an operator that is not a
        commuting ``terms`` family.
    """
    psi0 = require_normalized(psi0, what="initial state")
    if psi0.shape[0] != h.dim:
        raise ValueError(f"dimension mismatch: operator dim {h.dim}, state dim {psi0.shape[0]}")
    times = grid.times
    n = grid.n_steps
    dim = h.dim
    props = None

    if method == "exact_commuting":
        if not h.commuting_family:
            raise ValueError("exact_commuting requires a commuting_family operator: terms with commuting bases")
        lams, vecs = _common_eigenbasis([b for _, _, b in h.terms])
        # Integral of H at every grid time, in the shared eigenbasis; a
        # temporary, so it is freed before the states are formed.
        integrals = (
            np.outer(_cumulative_simpson_scalar(c, times, SIMPSON_TOL), lam) for (c, _, _), lam in zip(h.terms, lams)
        )
        phases = np.exp((-1j / hbar) * reduce(np.add, integrals))
        c0 = vecs.conj().T @ psi0
        states = np.einsum("ij,kj,j->ki", vecs, phases, c0)
        if store_propagators:
            props = np.einsum("ij,kj,lj->kil", vecs, phases, vecs.conj())
    elif method == "midpoint":
        dt = grid.dt
        mids = times[:-1] + dt / 2.0
        states = np.empty((n + 1, dim), dtype=complex)
        states[0] = psi0
        if store_propagators:
            props = np.empty((n + 1, dim, dim), dtype=complex)
            props[0] = np.eye(dim)
        psi = psi0
        for chunk in time_chunks(n, dim):
            steps = herm_expm(h.sample(mids[chunk]), scale=-1j * dt / hbar, times=mids[chunk])
            for k, u in enumerate(steps, start=chunk.start):
                psi = u @ psi
                states[k + 1] = psi
                if store_propagators:
                    props[k + 1] = u @ props[k]
    else:
        raise ValueError(f"unknown propagation method {method!r}")

    defects = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    flagged = bool(np.max(defects) > norm_budget)
    return Trajectory(
        grid=grid,
        states=states,
        norm_defects=defects,
        propagators=props,
        flagged=flagged,
        norm_budget=norm_budget,
    )
