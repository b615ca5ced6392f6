"""Time evolution under time-dependent Hermitian generators.

Operators
    :class:`TimeDepOperator` is ``sum_k c_k(t) B_k``, held as four fields:
    ``coeffs``, one function of an ``(n,)`` array of times returning the
    ``(n, K)`` real coefficients; ``rates``, the same for their derivatives;
    ``bases``, the ``(K, d, d)`` Hermitian stack; and ``primitives``, the
    same for primitives of the coefficients, or None.
    :meth:`~TimeDepOperator.linear` takes ``(c_k, dc_k, B_k)`` triples, or
    ``(c_k, dc_k, B_k, C_k)`` with a primitive ``C_k``, whose coefficients
    map an array of times to one value per time, validates the bases
    (keeping their Hermitian parts), fills a missing derivative with a
    Richardson difference of the coefficient and stacks the coefficients
    into one function, so every operator has exactly one derivative rule;
    :meth:`~TimeDepOperator.scaled`,
    :meth:`~TimeDepOperator.stationary` and :meth:`~TimeDepOperator.tabulated`
    (piecewise-linear interpolation of sampled matrices, expanded in the
    real Hermitian basis :func:`hermitian_basis`) build on it.
    :meth:`~TimeDepOperator.sample` and :meth:`~TimeDepOperator.sample_deriv`
    return the operator and its derivative over a whole array of times as
    an ``(n, d, d)`` stack, one array expression over the coefficients;
    ``value``/``dvalue`` are those samples at one time, bit for bit.
    :meth:`~TimeDepOperator.act` and :meth:`~TimeDepOperator.act_deriv`
    take a ``(d, n)`` block of states, time on the last axis, and return
    the images ``sum_k c_k(t_j) B_k psi_j`` as one, without forming the
    stack when ``K <= d``: one product of the bases stacked as a
    ``(K d, d)`` matrix with the block, then ``K`` scaled adds of
    ``(d, n)`` rows.  Operators with more terms than ``d`` apply their
    sampled stack to the block.  Coefficients must take an array of times;
    values of the wrong shape raise ``ValueError``.  Coefficient values
    must be finite and real: the first time where one is not raises
    :class:`~fluctdyn.linops.NumericBreakdown`.  Grid functions walk the
    time axis with :func:`time_chunks`, so no stack (``(len, d, d)``, or
    the ``(min(K, d) d, len)`` block of ``act``) exceeds ``CHUNK_BYTES``.

Two propagation routes, both reading ``H`` only through ``sample`` or its
coefficients and bases:

``exact_commuting``
    For operators whose bases commute pairwise
    (:attr:`TimeDepOperator.commuting_family`) and whose coefficients carry
    their primitives, the propagator is the closed form
    ``exp(-(i/hbar) * Integral_{t0}^t H)``.  The integrals are the
    primitives' differences ``C_k(t) - C_k(t0)``, checked like coefficient
    values, and the bases are diagonalized once, in one shared eigenbasis,
    so the propagator at every output time is a diagonal of phases in that
    basis.  The phases are formed one chunk of :func:`time_chunks` at a
    time, as a ``(d, len)`` block with time on the last axis, checked,
    exponentiated in place and scaled by the coordinates of ``psi0``; the
    chunk's states are one product of that basis with the block.  So
    beside the ``(n, d)`` states no temporary exceeds ``CHUNK_BYTES``.

``midpoint``
    General-purpose exponential midpoint stepping,
    ``U_k = exp(-i dt H(t_k + dt/2) / hbar)``.  ``H`` is sampled at the
    step midpoints and exponentiated one chunk at a time with a batched
    eigendecomposition; only ``psi <- U_k psi`` runs per step.  Second
    order in ``dt``; exactly norm-preserving per step up to eigensolver
    accuracy.

:func:`propagate` also takes a sequence of operators of one dimension with
an ``(m, d)`` stack of initial states and returns their ``m``
trajectories: ``midpoint`` exponentiates the members' samples together and
steps them with one batched product per step, ``exact_commuting`` takes
the closed form member by member.  Each trajectory is bit for bit that of
its own call, and a single operator is a stack of one.

Trajectories store the full state history plus per-step normalization
defects.  A propagator ``U(t)`` is the trajectories of the basis states:
its columns come from one stacked call ``propagate([h] * d, np.eye(d))``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .linops import HERM_TOL, NumericBreakdown, at_time, herm_expm, norm_defect, require_hermitian, require_normalized

# Step of the Richardson difference that stands in for a derivative not given.
RICHARDSON_STEP = 1e-3
# Largest (n, d, d) complex stack a grid function holds at once.  Larger
# chunks ran no faster but raised the peak memory of a 50k-point trace and
# of a d=33 sweep above that of a point-by-point loop.
CHUNK_BYTES = 1 << 18


def time_chunks(n: int, dim: int, rows: Optional[int] = None) -> Iterator[slice]:
    """Slices covering ``range(n)`` whose ``len * rows * dim`` complex entries fit ``CHUNK_BYTES``.

    ``rows`` defaults to ``dim``, a ``(len, dim, dim)`` stack of matrices; a
    grid function that only applies operators passes their
    :attr:`TimeDepOperator.act_rows`, for ``(rows dim, len)`` blocks.
    """
    step = max(1, CHUNK_BYTES // (16 * (dim if rows is None else rows) * dim))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def coefficient_array(f: Callable, times: np.ndarray) -> np.ndarray:
    """``f`` at every entry of ``times``, unchecked: one call with the whole array.

    A constant result is broadcast.

    Raises
    ------
    ValueError
        If ``f`` returns neither a scalar nor one value per time, naming
        the shape it returned.
    """
    out = np.asarray(f(times))
    if out.ndim == 0:
        return np.full(times.shape, out)
    if out.shape != times.shape:
        raise ValueError(f"a coefficient returned shape {out.shape} for {times.shape} times")
    return out


def _checked(values: np.ndarray, times: np.ndarray, what: str = "coefficient value") -> np.ndarray:
    """``values``, one row per time, after a check that they are finite and real.

    Raises
    ------
    NumericBreakdown
        Naming the first time where a value is not finite or has an
        imaginary part.
    """
    complex_values = np.iscomplexobj(values)
    if not np.isfinite(values).all() or (complex_values and values.imag.any()):
        bad = ~np.isfinite(values)
        if complex_values:
            bad |= values.imag != 0.0
        k = int(np.argmax(bad.any(axis=1)))
        value = values[k][bad[k]][0]
        raise NumericBreakdown(f"{what} {value} is not a finite real number{at_time(times, k)}")
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


@dataclass
class TimeDepOperator:
    """A time-dependent Hermitian operator ``sum_k c_k(t) B_k``.

    Parameters
    ----------
    coeffs : callable
        Maps an ``(n,)`` array of times to the ``(n, K)`` real coefficients
        ``c_k(t_j)``.
    rates : callable
        The same for their derivatives ``dc_k/dt``.
    bases : np.ndarray
        The ``(K, d, d)`` Hermitian bases ``B_k``.
    primitives : callable or None
        The same as ``coeffs`` for primitives ``C_k`` of the coefficients
        (``dC_k/dt = c_k``), which the ``exact_commuting`` route needs;
        None when they are not known.

    Build operators with :meth:`linear` (or :meth:`scaled`,
    :meth:`stationary`, :meth:`tabulated`), which checks the bases and
    supplies missing derivatives; the constructor takes the fields as they
    are.
    """

    coeffs: Callable[[np.ndarray], np.ndarray]
    rates: Callable[[np.ndarray], np.ndarray]
    bases: np.ndarray
    primitives: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def dim(self) -> int:
        """Matrix dimension ``d``."""
        return self.bases.shape[-1]

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
        bases = self.bases
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

    def act(self, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The images ``A(t_j) psi_j`` of a ``(d, n)`` block of states, column ``j`` at ``times[j]``."""
        return self._act(0, np.asarray(times, dtype=float), states)

    def act_deriv(self, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The images ``(dA/dt)(t_j) psi_j`` of a ``(d, n)`` block of states, column ``j`` at ``times[j]``."""
        return self._act(1, np.asarray(times, dtype=float), states)

    @property
    def act_rows(self) -> int:
        """Rows ``r`` of the ``(r d, n)`` block :meth:`act` works on: ``min(K, d)``."""
        return min(len(self.bases), self.dim)

    def _act(self, slot: int, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        """``sum_k x_k(t_j) B_k psi_j`` over the coefficients (slot 0) or their derivatives (slot 1).

        ``states`` and the result are ``(d, n)`` blocks, time on the last
        axis.  With ``K <= d`` terms, one product of the ``(K d, d)`` stacked
        bases with the block gives every ``B_k psi_j``, and ``K`` scaled adds
        of ``(d, n)`` rows sum them: no ``(n, d, d)`` stack is formed.  With
        more terms than ``d`` (tables, ``v_A`` in the Hermitian basis) the
        gathered ``sample`` is cheaper, and its stack is applied to the
        block.  A block of one column rounds differently from a wider one
        (BLAS takes its vector route).
        """
        if states.shape != (self.dim, len(times)):
            raise ValueError(f"states {states.shape} do not match {len(times)} times of a dim-{self.dim} operator")
        stacked = self._layout()[2]
        if stacked is None:
            # (d, d, n) products of the stack's columns with the block, summed over the columns.
            return (self._sample(slot, times).transpose(1, 2, 0) * states).sum(axis=1)
        coeffs = self._coefficients(slot, times)
        products = stacked @ states
        dim = self.dim
        out = products[:dim] * coeffs[:, 0]
        for k in range(1, len(self.bases)):
            out += coeffs[:, k] * products[k * dim : (k + 1) * dim]
        return out

    def _coefficients(self, slot: int, times: np.ndarray) -> np.ndarray:
        """The ``(n, K)`` checked coefficients (slot 0), derivatives (slot 1) or integrals (slot 2).

        The integrals run from ``times[0]``: they are the differences
        ``C_k(t) - C_k(times[0])`` of the primitives.  Overflow and invalid
        operations inside the coefficients are not warned about: the check
        reports them.

        Raises
        ------
        ValueError
            If the values do not have the shape ``(n, K)``, naming theirs.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray((self.coeffs, self.rates, self.primitives)[slot](times))
            if values.shape != (len(times), len(self.bases)):
                raise ValueError(f"coefficients of shape {values.shape}, expected {(len(times), len(self.bases))}")
            if slot == 2:
                values = values - values[0]
        return _checked(values, times, "coefficient integral" if slot == 2 else "coefficient value")

    def _sample(self, slot: int, times: np.ndarray) -> np.ndarray:
        """``sum_k x_k(t) B_k`` over the coefficients (slot 0) or their derivatives (slot 1).

        One contraction of the ``(n, K)`` values with the bases' real and
        imaginary parts.  ``einsum`` adds the terms of every entry in the
        same order whatever the batch, so a time's matrix does not depend on
        the other times sampled with it (a BLAS product rounds a one-row
        batch differently from a longer one).  When no two bases share an
        entry and few are owned, as in :func:`hermitian_basis` or with one
        sparse basis, it is a gather with the same values, ``O(n d^2)``
        instead of ``O(n K d^2)``.
        """
        rows, gather = self._layout()[:2]
        coeffs = self._coefficients(slot, times)
        if gather is None:
            flat = np.einsum("nk,kx->nx", coeffs, rows)
        else:
            owned, owner, weight = gather
            flat = np.zeros((len(times), 2 * self.dim * self.dim))
            flat[:, owned] = coeffs[:, owner] * weight
        return flat.view(complex).reshape(len(times), self.dim, self.dim)

    def _layout(self) -> tuple:
        """``(rows, gather, stacked)`` for :meth:`_sample` and :meth:`_act`, worked out once per ``bases``.

        ``rows`` is the ``(K, 2 d^2)`` real view of the bases, or None when
        no two bases share an entry and the owned (nonzero) real entries
        number fewer than ``K d^2``, half the contraction's products;
        ``gather`` then holds the owned entries, their bases and their
        values.  A scattered write of the gather costs several products of
        the contraction (about 5 ns against 0.5-1 ns), so one dense basis
        is contracted.  ``stacked`` is the bases one above the other,
        ``(K d, d)``, when ``K <= d``, else None.
        """
        cached = self.__dict__.get("_cached_layout")
        if cached is None or cached[0] is not self.bases:
            bases = self.bases.astype(complex, copy=False)
            stacked = None
            if len(bases) <= self.dim:
                stacked = np.ascontiguousarray(bases.reshape(-1, self.dim))
            rows = bases.view(float).reshape(len(bases), -1)
            nonzero = rows != 0.0
            gather = None
            owned = np.flatnonzero(nonzero.any(axis=0))
            if np.count_nonzero(nonzero, axis=0).max() <= 1 and len(owned) < len(bases) * self.dim * self.dim:
                owner = np.argmax(nonzero[:, owned], axis=0)
                gather, rows = (owned, owner, rows[owner, owned]), None
            cached = self._cached_layout = (self.bases, rows, gather, stacked)
        return cached[1:]

    @classmethod
    def linear(cls, terms) -> "TimeDepOperator":
        """Operator ``sum_k c_k(t) B_k`` from ``(c_k, dc_k, B_k)`` or ``(c_k, dc_k, B_k, C_k)`` terms.

        ``c_k`` and ``dc_k`` map an ``(n,)`` array of times to ``(n,)``
        values (a scalar is broadcast); they are stacked into the operator's
        ``coeffs`` and ``rates``.  The bases must be Hermitian (within
        ``HERM_TOL``) and of one dimension; each is kept as its Hermitian
        part ``(B + B^dagger)/2``, so the operator is Hermitian to the last
        bit.  A ``dc_k`` given as None becomes a Richardson difference of
        ``c_k`` (step ``RICHARDSON_STEP``).  A primitive ``C_k`` of ``c_k``,
        the optional fourth entry, is stacked into ``primitives`` the same
        way; the operator has primitives only when every term gives one.
        """
        terms = [tuple(term) + (None,) * (4 - len(term)) for term in terms]
        if not terms:
            raise ValueError("a linear operator needs at least one term")
        bases = [hermitian_part(require_hermitian(b, what="operator basis")) for _, _, b, _ in terms]
        dim = bases[0].shape[-1]
        if any(b.shape != (dim, dim) for b in bases):
            raise ValueError("operator basis matrices differ in dimension")
        coeffs, rates = [], []
        for c, dc, _, _ in terms:
            coeffs.append(partial(coefficient_array, c))
            rates.append(richardson(coeffs[-1]) if dc is None else partial(coefficient_array, dc))
        primitives = None
        if all(term[3] is not None for term in terms):
            primitives = partial(_columns, [partial(coefficient_array, term[3]) for term in terms])
        return cls(partial(_columns, coeffs), partial(_columns, rates), np.stack(bases), primitives)

    @classmethod
    def stationary(cls, mat: np.ndarray) -> "TimeDepOperator":
        """Constant-in-time operator; a (trivially) commuting family, with primitive ``t``."""
        return cls.linear([(lambda t: 1.0, lambda t: 0.0, mat, lambda t: t)])

    @classmethod
    def scaled(
        cls,
        f: Callable[[np.ndarray], np.ndarray],
        fdot: Optional[Callable[[np.ndarray], np.ndarray]],
        base: np.ndarray,
        primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "TimeDepOperator":
        """Operator of the form ``f(t) * base`` (a commuting family), with ``f``'s primitive if given."""
        return cls.linear([(f, fdot, base, primitive)])

    @classmethod
    def tabulated(cls, times: np.ndarray, samples: np.ndarray) -> "TimeDepOperator":
        """Piecewise-linear interpolation of Hermitian ``samples[k]`` taken at ``times[k]``.

        Each sample is expanded in :func:`hermitian_basis`.  A coefficient
        interpolates its column linearly (constant beyond the ends), and its
        derivative interpolates ``np.gradient`` of the column: at a sample
        time, a central difference inside and one-sided at the ends.  Between
        sample times it is therefore not the slope of the piecewise-linear
        value: halfway between samples ``k`` and ``k + 1`` it is the mean of
        their two differences, not ``(M_{k+1} - M_k) / dt``.  At the
        sample times an exactly Hermitian table comes back bit for bit.
        Columns that vanish at every sample are dropped, keeping at least
        one term.
        """
        times = np.asarray(times, dtype=float)
        samples = np.asarray(samples, dtype=complex)
        columns = hermitian_coordinates(samples)
        keep = np.flatnonzero(np.any(columns != 0.0, axis=0)) if np.any(columns) else [0]
        return cls(
            coeffs=partial(_interpolate, times, columns[:, keep]),
            rates=partial(_interpolate, times, np.gradient(columns[:, keep], times, axis=0)),
            bases=hermitian_basis(samples.shape[1])[keep],
        )


def _columns(fns: list, times: np.ndarray) -> np.ndarray:
    """The ``(n, K)`` values of ``K`` functions of an ``(n,)`` array of times, one per column.

    A single function's values are its column as they are, not copied.
    """
    if len(fns) == 1:
        return fns[0](times)[:, None]
    return np.stack([f(times) for f in fns], axis=1)


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
    ``| ||states[k]|| - 1 |``.
    """

    grid: TimeGrid
    states: np.ndarray
    norm_defects: np.ndarray


def _common_eigenbasis(bases: list) -> tuple[np.ndarray, np.ndarray]:
    """``(lams, vecs)`` with ``bases[k] = vecs diag(lams[k]) vecs^dagger`` for commuting bases.

    ``vecs`` are the eigenvectors of a generic real combination of the
    bases: each is rescaled to the magnitude of the first and weighted by
    ``cos(k)``, so no basis drowns the others and the combination is
    degenerate only where every basis is.  Commuting bases can still meet
    a degenerate combination; then some basis is not diagonal in ``vecs``,
    which raises :class:`~fluctdyn.linops.NumericBreakdown`.  A single
    basis is diagonalized as it is and keeps the eigenvalues ``eigh``
    returns for it.
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
            raise NumericBreakdown(
                f"basis {k} is not diagonal in the shared eigenbasis (defect {defect:.3e}); use midpoint"
            )
    return lams, vecs


def propagate(
    h: TimeDepOperator | Sequence[TimeDepOperator],
    psi0: np.ndarray,
    grid: TimeGrid,
    method: str = "midpoint",
    hbar: float = 1.0,
) -> Trajectory | list[Trajectory]:
    """Evolve ``psi0`` under ``h`` over ``grid``.

    ``h`` may also be a sequence of ``m`` operators of one dimension, with
    ``psi0`` the ``(m, d)`` stack of their initial states: the result is
    then the list of their ``m`` trajectories, each bit for bit the one its
    own call returns.  A single operator is a stack of one.

    Parameters
    ----------
    method : {"exact_commuting", "midpoint"}
        ``exact_commuting`` requires ``h.commuting_family`` and
        ``h.primitives``, and evaluates the closed-form propagator
        independently at every output time, member by member; ``midpoint``
        composes per-step exponentials, and steps all members of a stack
        together.

    Raises
    ------
    ValueError
        If ``psi0`` is not normalized, dimensions mismatch, ``H`` is not
        finite (:class:`~fluctdyn.linops.NumericBreakdown`) or not
        Hermitian at a time it is sampled (named in the message, with the
        member of a stack), or ``exact_commuting`` is requested for an
        operator whose bases do not commute or that has no primitives.
    """
    stacked = not isinstance(h, TimeDepOperator)
    ops = list(h) if stacked else [h]
    if not ops:
        raise ValueError("propagate needs at least one operator")
    dim = ops[0].dim
    if any(op.dim != dim for op in ops):
        raise ValueError(f"operators of a stack differ in dimension: {sorted({op.dim for op in ops})}")
    psi0 = require_normalized(psi0, what="initial state")
    if psi0.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: operator dim {dim}, state dim {psi0.shape[-1]}")
    if psi0.shape != ((len(ops), dim) if stacked else (dim,)):
        raise ValueError(f"initial states of shape {psi0.shape} do not match {len(ops)} operators")
    psi0 = psi0.reshape(len(ops), dim)
    members = range(len(ops)) if stacked else [None]

    if method == "exact_commuting":
        runs = []
        for op, psi, member in zip(ops, psi0, members):
            with _naming(member):
                runs.append(_exact_commuting(op, psi, grid.times, hbar))
    elif method == "midpoint":
        runs = _midpoint(ops, psi0, grid, hbar, stacked)
    else:
        raise ValueError(f"unknown propagation method {method!r}")

    trajs = [Trajectory(grid=grid, states=states, norm_defects=norm_defect(states)) for states in runs]
    return trajs if stacked else trajs[0]


@contextmanager
def _naming(member: Optional[int]) -> Iterator[None]:
    """Re-raise a ``ValueError`` with `` (member i)`` appended, for a member of a stack."""
    try:
        yield
    except ValueError as err:
        if member is None:
            raise
        raise type(err)(f"{err} (member {member})") from None


class _MemberTimes:
    """Times of a member-major stack of samples, ``L`` per member, as error messages name them."""

    def __init__(self, times: np.ndarray, first: int):
        self.times, self.first = times, first

    def __getitem__(self, k: int) -> str:
        member, j = divmod(k, len(self.times))
        return f"{self.times[j]} (member {self.first + member})"


def _exact_commuting(h: TimeDepOperator, psi0: np.ndarray, times: np.ndarray, hbar: float) -> np.ndarray:
    """The states of the closed-form route for one operator, one chunk of phases at a time.

    A BLAS product may round a column by its place in the block (see
    :meth:`TimeDepOperator._act`), so with a dense shared eigenbasis the
    chunking can move a state by an ulp.  The stock scenarios' Hamiltonians
    are diagonal, their eigenbasis has one unit entry per row, and their
    states do not depend on the chunking.
    """
    if not h.commuting_family:
        raise ValueError("exact_commuting requires a commuting_family operator: commuting bases")
    if h.primitives is None:
        raise ValueError("exact_commuting requires the primitives of the coefficients; use midpoint without them")
    lams, vecs = _common_eigenbasis(list(h.bases))
    integrals = h._coefficients(2, times).T
    coords = (vecs.conj().T @ psi0)[:, None]
    states = np.empty((len(times), h.dim), dtype=complex)
    for chunk in time_chunks(len(times), h.dim, 1):
        with np.errstate(over="ignore", invalid="ignore"):
            # Integral of H at each time of the chunk, in the shared eigenbasis, summed term by term.
            exponent = lams[0][:, None] * integrals[0, chunk]
            for lam, c in zip(lams[1:], integrals[1:]):
                exponent += lam[:, None] * c[chunk]
            phases = (-1j / hbar) * exponent
        # Checked like the integrals; the real part is finite where the imaginary part is.
        _checked(phases.imag.T, times[chunk], "phase exponent")
        np.exp(phases, out=phases)
        phases *= coords
        states[chunk] = (vecs @ phases).T
    return states


def _midpoint(ops: list, psi0: np.ndarray, grid: TimeGrid, hbar: float, stacked: bool) -> list:
    """The states of every operator, stepped together.

    Members go in groups whose ``(members x steps, d, d)`` stack of step
    exponentials fits ``CHUNK_BYTES``; a member too long for that is alone
    in its group and walks the time axis in :func:`time_chunks`.  Each
    operator is sampled once per chunk, the group's samples are
    exponentiated with one :func:`herm_expm`, and ``psi <- U_k psi`` is one
    ``(g, d, d) @ (g, d, 1)`` product per step, bit for bit the product of
    each member alone.
    """
    n, dim, dt = grid.n_steps, ops[0].dim, grid.dt
    mids = grid.times[:-1] + dt / 2.0
    per_group = max(1, CHUNK_BYTES // (16 * dim * dim) // n)
    runs = []
    for first in range(0, len(ops), per_group):
        group = ops[first : first + per_group]
        g = len(group)
        states = np.empty((g, n + 1, dim, 1), dtype=complex)
        states[:, 0, :, 0] = psi0[first : first + g]
        for chunk in time_chunks(n, dim):
            t = mids[chunk]
            samples = []
            for i, op in enumerate(group, start=first):
                with _naming(i if stacked else None):
                    samples.append(op.sample(t))
            # Rebound, so the members' samples are freed before the exponentials are formed.
            samples = np.concatenate(samples)
            labels = _MemberTimes(t, first) if stacked else t
            steps = herm_expm(samples, scale=-1j * dt / hbar, times=labels).reshape(g, len(t), dim, dim)
            for j, k in enumerate(range(chunk.start, chunk.stop)):
                np.matmul(steps[:, j], states[:, k], out=states[:, k + 1])
        runs += [states[i, :, :, 0] for i in range(g)]
    return runs
