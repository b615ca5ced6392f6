"""Time evolution under time-dependent Hermitian generators.

Operators
    :class:`TimeDepOperator` is ``sum_k c_k(t) B_k``: a tuple ``terms`` of
    ``(c_k, dc_k, B_k)`` triples with real coefficients ``c_k``, their
    derivatives ``dc_k`` and Hermitian bases ``B_k``.  :meth:`~TimeDepOperator.linear`
    validates the bases (keeping their Hermitian parts) and fills a missing
    derivative with a Richardson difference of the coefficient, so every
    operator has exactly one derivative rule; :meth:`~TimeDepOperator.scaled`,
    :meth:`~TimeDepOperator.stationary` and :meth:`~TimeDepOperator.tabulated`
    (piecewise-linear interpolation of sampled matrices, expanded in the
    real Hermitian basis :func:`hermitian_basis`) build on it.
    :meth:`~TimeDepOperator.sample` and :meth:`~TimeDepOperator.sample_deriv`
    return the operator and its derivative over a whole array of times as
    an ``(n, d, d)`` stack, one array expression over the coefficients;
    ``value``/``dvalue`` are those samples at one time, bit for bit.
    Coefficients that are the columns of one table (:func:`table_columns`)
    are evaluated with one call.  Coefficient values must be finite and
    real: the first time where one is not raises
    :class:`~fluctdyn.linops.NumericBreakdown`.  Grid functions walk the
    time axis with :func:`time_chunks`, so no stack exceeds ``CHUNK_BYTES``.

Two propagation routes, both reading ``H`` only through ``sample`` or its
``terms``:

``exact_commuting``
    For operators whose bases commute pairwise
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
representation-equivalence diagnostics).  A non-finite norm defect counts
as over budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, Iterator, Optional

import numpy as np

from .linops import HERM_TOL, NumericBreakdown, at_time, herm_expm, require_hermitian, require_normalized

SIMPSON_TOL = 1e-12
# Step of the Richardson difference that stands in for a derivative not given.
RICHARDSON_STEP = 1e-3
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


def coefficient_array(f: Callable, times: np.ndarray) -> np.ndarray:
    """``f`` at every entry of ``times``, unchecked.

    One array call when ``f`` accepts arrays (a constant result is
    broadcast); one call per time otherwise.
    """
    try:
        out = np.asarray(f(times))
        if out.ndim == 0:
            out = np.full(times.shape, out)
    except NumericBreakdown:
        raise
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != times.shape:
        out = np.array([f(t) for t in times])
    return out


def coefficient_values(f: Callable, times: np.ndarray) -> np.ndarray:
    """:func:`coefficient_array` of ``f``, checked to be finite and real.

    Raises
    ------
    NumericBreakdown
        If a value is not finite or has an imaginary part, naming the
        first such time.  Overflow and invalid operations inside ``f`` are
        not warned about: the check reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = coefficient_array(f, times)
    return _checked(values, times)


def _checked(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    rows = values.reshape(np.size(times), -1)
    bad = ~np.isfinite(rows)
    if np.iscomplexobj(rows):
        bad |= rows.imag != 0.0
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        value = rows[k][bad[k]][0]
        raise NumericBreakdown(f"coefficient value {value} is not a finite real number{at_time(np.ravel(times), k)}")
    return values.real


def richardson(f: Callable) -> Callable:
    """Richardson-refined central difference (O(step^4)) of ``f``, a function of an array of times.

    ``f``'s values are used unchecked: the reader of the derivative checks
    it, so a breakdown is named at the time sampled, not at a shifted one.
    """
    step = RICHARDSON_STEP

    def df(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = (f(t + step) - f(t - step)) / (2.0 * step)
            d2 = (f(t + step / 2) - f(t - step / 2)) / step
            return (4.0 * d2 - d1) / 3.0

    return df


def hermitian_basis(dim: int) -> np.ndarray:
    """``E_jj``, then ``E_jk + E_kj`` and ``i (E_kj - E_jk)`` for ``j < k``: a ``(d^2, d, d)`` stack."""
    diag = np.arange(dim)
    rows, cols = np.triu_indices(dim, 1)
    sym = dim + np.arange(len(rows))
    asym = sym + len(rows)
    bases = np.zeros((dim * dim, dim, dim), dtype=complex)
    bases[diag, diag, diag] = 1.0
    bases[sym, rows, cols] = bases[sym, cols, rows] = 1.0
    bases[asym, rows, cols], bases[asym, cols, rows] = -1j, 1j
    return bases


def hermitian_coordinates(mats: np.ndarray) -> np.ndarray:
    """Coordinates ``(..., d^2)`` of Hermitian ``(..., d, d)`` matrices in :func:`hermitian_basis`, read off."""
    dim = mats.shape[-1]
    diag = np.arange(dim)
    rows, cols = np.triu_indices(dim, 1)
    upper = mats[..., rows, cols]
    return np.concatenate([mats[..., diag, diag].real, upper.real, -upper.imag], axis=-1)


def table_columns(table: Callable, count: int) -> list:
    """Coefficients ``t -> table(t)[:, m]``, ``m < count``, of one ``(n, count)`` array function of times.

    An operator whose coefficients (or derivatives) are all columns of one
    table samples them with a single call of ``table``.
    """
    return [partial(_column, table, m) for m in range(count)]


def _column(table: Callable, index: int, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return table(np.atleast_1d(t))[:, index].reshape(t.shape)


@dataclass
class TimeDepOperator:
    """A time-dependent Hermitian operator ``sum_k c_k(t) B_k``.

    Parameters
    ----------
    terms : tuple
        ``((c_1, dc_1, B_1), ...)``: real coefficients ``c_k``, their
        derivatives ``dc_k`` and Hermitian bases ``B_k``, all ``(d, d)``.
        Build operators with :meth:`linear` (or :meth:`scaled`,
        :meth:`stationary`, :meth:`tabulated`), which checks the bases and
        supplies missing derivatives; the constructor takes the terms as
        they are.
    dim : int
        Matrix dimension ``d``.
    """

    terms: tuple
    dim: int

    def value(self, t: float) -> np.ndarray:
        """The operator at time ``t``: :meth:`sample` at one time."""
        return self.sample(np.array([t], dtype=float))[0]

    def dvalue(self, t: float) -> np.ndarray:
        """The time derivative at ``t``: :meth:`sample_deriv` at one time."""
        return self.sample_deriv(np.array([t], dtype=float))[0]

    @property
    def commuting_family(self) -> bool:
        """Whether ``[value(t), value(t')] = 0`` for all ``t, t'``: the bases commute pairwise.

        This enables the ``exact_commuting`` propagation route.
        """
        bases = [b for _, _, b in self.terms]
        return all(
            np.abs(bj @ bk - bk @ bj).max() <= HERM_TOL * max(1.0, np.abs(bj).max() * np.abs(bk).max())
            for j, bj in enumerate(bases)
            for bk in bases[j + 1 :]
        )

    def sample(self, times: np.ndarray) -> np.ndarray:
        """The operator at every entry of ``times`` as an ``(n, d, d)`` stack."""
        return self._sample(0, np.asarray(times, dtype=float))

    def sample_deriv(self, times: np.ndarray) -> np.ndarray:
        """The time derivative at every entry of ``times`` as an ``(n, d, d)`` stack."""
        return self._sample(1, np.asarray(times, dtype=float))

    def _sample(self, slot: int, times: np.ndarray) -> np.ndarray:
        """``sum_k x_k(t) B_k`` over the coefficients (slot 0) or their derivatives (slot 1).

        One contraction of the ``(n, K)`` values with the bases' real and
        imaginary parts.  ``einsum`` adds the terms of every entry in the
        same order whatever the batch, so a time's matrix does not depend on
        the other times sampled with it (a BLAS product rounds a one-row
        batch differently from a longer one).  When no two bases share an
        entry, as in :func:`hermitian_basis`, it is a gather with the same
        values, ``O(n d^2)`` instead of ``O(n K d^2)``.
        """
        rows, gather, tables = self._layout()
        if tables[slot] is None:
            coeffs = np.stack([coefficient_values(term[slot], times) for term in self.terms], axis=1)
        else:
            coeffs = _checked(tables[slot][0](times)[:, tables[slot][1]], times)
        if len(self.terms) == 1:  # BLAS is slow at rank-1 products
            return coeffs[:, 0, None, None] * self.terms[0][2]
        if gather is None:
            flat = np.einsum("nk,kx->nx", coeffs, rows)
        else:
            owned, owner, weight = gather
            flat = np.zeros((len(times), 2 * self.dim * self.dim))
            flat[:, owned] = coeffs[:, owner] * weight
        return flat.view(complex).reshape(len(times), self.dim, self.dim)

    def _layout(self) -> tuple:
        """``(rows, gather, tables)`` for :meth:`_sample`, worked out once per ``terms``.

        ``rows`` is the ``(K, 2 d^2)`` real view of the bases, or None when
        no two bases share an entry; ``gather`` then holds the owned entries,
        their bases and their values.  ``tables[slot]`` is the table whose
        :func:`table_columns` every coefficient (slot 0) or derivative
        (slot 1) is, with their column indices, or None.
        """
        cached = self.__dict__.get("_cached_layout")
        if cached is None or cached[0] is not self.terms:
            rows = np.stack([b for _, _, b in self.terms]).astype(complex, copy=False)
            rows = rows.view(float).reshape(len(self.terms), -1)
            nonzero = rows != 0.0
            gather = None
            if np.count_nonzero(nonzero, axis=0).max() <= 1:
                owned = np.flatnonzero(nonzero.any(axis=0))
                owner = np.argmax(nonzero[:, owned], axis=0)
                gather, rows = (owned, owner, rows[owner, owned]), None
            tables = [None, None]
            for slot in (0, 1):
                fns = [term[slot] for term in self.terms]
                if all(isinstance(f, partial) and f.func is _column and f.args[0] is fns[0].args[0] for f in fns):
                    tables[slot] = (fns[0].args[0], np.array([f.args[1] for f in fns]))
            cached = self._cached_layout = (self.terms, rows, gather, tables)
        return cached[1:]

    @classmethod
    def linear(cls, terms) -> "TimeDepOperator":
        """Operator ``sum_k c_k(t) B_k`` from ``(c_k, dc_k, B_k)`` triples.

        The bases must be Hermitian (within ``HERM_TOL``) and of one
        dimension; each is kept as its Hermitian part ``(B + B^dagger)/2``,
        so the operator is Hermitian to the last bit.  A ``dc_k`` given as
        None becomes a Richardson difference of ``c_k`` (step
        ``RICHARDSON_STEP``).
        """
        terms = tuple(
            (
                c,
                richardson(partial(coefficient_array, c)) if dc is None else dc,
                hermitian_part(require_hermitian(b, what="operator basis")),
            )
            for c, dc, b in terms
        )
        if not terms:
            raise ValueError("a linear operator needs at least one term")
        dim = terms[0][2].shape[0]
        if any(b.shape != (dim, dim) for _, _, b in terms):
            raise ValueError("operator basis matrices differ in dimension")
        return cls(terms=terms, dim=dim)

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

    @classmethod
    def tabulated(cls, times: np.ndarray, samples: np.ndarray) -> "TimeDepOperator":
        """Piecewise-linear interpolation of Hermitian ``samples[k]`` taken at ``times[k]``.

        Each sample is expanded in :func:`hermitian_basis`.  A coefficient
        interpolates its column linearly (constant beyond the ends), and its
        derivative interpolates ``np.gradient`` of the column: at a sample
        time, a central difference inside and one-sided at the ends.  At the
        sample times an exactly Hermitian table comes back bit for bit.
        Columns that vanish at every sample are dropped, keeping at least
        one term.
        """
        times = np.asarray(times, dtype=float)
        samples = np.asarray(samples, dtype=complex)
        columns = hermitian_coordinates(samples)
        keep = np.flatnonzero(np.any(columns != 0.0, axis=0)) if np.any(columns) else [0]
        values = table_columns(partial(_interpolate, times, columns[:, keep]), len(keep))
        rates = table_columns(partial(_interpolate, times, np.gradient(columns[:, keep], times, axis=0)), len(keep))
        bases = hermitian_basis(samples.shape[1])[keep]
        return cls(terms=tuple(zip(values, rates, bases)), dim=samples.shape[1])


def hermitian_part(b: np.ndarray) -> np.ndarray:
    """``(b + b^dagger) / 2``: exactly Hermitian, and ``b`` itself when ``b`` is."""
    return (b + b.conj().T) / 2.0


def _interpolate(times: np.ndarray, table: np.ndarray, t: np.ndarray) -> np.ndarray:
    # (1 - w) a + w b returns the rows exactly at the sample times.
    j = np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2)
    w = np.clip((t - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0)[:, None]
    return (1.0 - w) * table[j] + w * table[j + 1]


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
    ``flagged`` marks a norm defect beyond the budget the run was given,
    or one that is not finite.
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
        finite (:class:`~fluctdyn.linops.NumericBreakdown`) or not
        Hermitian at a time it is sampled (named in the message), or
        ``exact_commuting`` is requested for an operator whose bases do not
        commute.
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
            raise ValueError("exact_commuting requires a commuting_family operator: commuting bases")
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
    flagged = not bool(np.max(defects) <= norm_budget)
    return Trajectory(
        grid=grid,
        states=states,
        norm_defects=defects,
        propagators=props,
        flagged=flagged,
        norm_budget=norm_budget,
    )
