"""Dense complex linear-algebra kernel.

Everything else in the package is built on the operations here:
commutators, the exponential of a Hermitian matrix times a scalar, and the
structural predicates (Hermiticity, unitarity, normalization) with their
tolerances.

Matrix exponentials go through the eigendecomposition of a Hermitian
argument rather than Pade scaling-and-squaring: every exponential this
package needs is ``exp(scale * h)`` with Hermitian ``h`` (an anti-Hermitian
generator ``g`` is ``h = -i g`` with ``scale = i``), and the
eigendecomposition route keeps the result unitary, for imaginary ``scale``,
up to eigensolver accuracy.

All functions are pure and operate on plain ``numpy`` arrays
(``complex128``); nothing here mutates its inputs.  Operators may also be
``(n, d, d)`` stacks and states ``(n, d)`` stacks: the commutators act
member by member, the checks validate a whole stack in one pass and name
its first offending member, and :func:`herm_expm` exponentiates the stack
with one batched eigendecomposition.
"""

from __future__ import annotations

import numpy as np

# Tolerances: one order above double-precision accumulation for the
# dimensions this package targets (<= 64).
HERM_TOL = 1e-12
UNIT_TOL = 1e-10
NORM_TOL = 1e-10


class NumericBreakdown(ValueError):
    """A value met during a computation is not finite, or not real where it must be."""


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix, or an ``(n, d, d)`` stack of them, with finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"operator must be a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError("operator dimension must be >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    return m


def as_state(v) -> np.ndarray:
    """Coerce ``v`` to a complex state vector, or an ``(n, d)`` stack of them, with finite entries."""
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[-1] < 1:
        raise ValueError(f"state must be a 1-d vector or a stack of them, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state has non-finite entries")
    return v


def at_time(times, k: int) -> str:
    """`` at t = <times[k]>`` for error messages, or nothing when ``times`` is None."""
    return "" if times is None else f" at t = {times[k]}"


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a b - b a``, member by member for two ``(n, d, d)`` stacks."""
    a = as_operator(a)
    b = as_operator(b)
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a b + b a``, member by member for two ``(n, d, d)`` stacks."""
    a = as_operator(a)
    b = as_operator(b)
    _check_same_dim(a, b)
    return a @ b + b @ a


def hermitian_defect(m: np.ndarray):
    """Max entrywise magnitude of ``m - m^dagger``; one per member of an ``(n, d, d)`` stack."""
    m = np.asarray(m)
    defects = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return float(defects) if m.ndim == 2 else defects


def unitarity_defect(m: np.ndarray) -> float:
    """Max entrywise magnitude of ``m^dagger m - 1``, the largest over an ``(n, d, d)`` stack."""
    m = np.asarray(m)
    return float(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max())


def is_unitary(m: np.ndarray) -> tuple[bool, float]:
    """Unitarity predicate within ``UNIT_TOL``; returns ``(flag, max_defect)``."""
    defect = unitarity_defect(as_operator(m))
    return defect <= UNIT_TOL, defect


def norm_defect(v: np.ndarray):
    """``| ||v|| - 1 |`` of a state vector; one per row of an ``(n, d)`` stack.

    ``||v||^2`` is one inner product of the real view of each row with
    itself: no complex temporaries, and no reduction over an axis of
    length ``d`` per row.
    """
    flat = np.ascontiguousarray(v, dtype=complex).view(float)
    defects = np.abs(np.sqrt(np.einsum("...i,...i->...", flat, flat)) - 1.0)
    return float(defects) if flat.ndim == 1 else defects


def _check_defects(defects, tol: float, stacked: bool, failure: str) -> None:
    """Raise ``ValueError`` with ``failure`` and the first defect above ``tol``, if any is."""
    defects = np.atleast_1d(defects)
    bad = defects > tol
    if bad.any():
        k = int(np.argmax(bad))
        member = f" at member {k} of the stack" if stacked else ""
        raise ValueError(f"{failure} (defect {defects[k]:.3e} > tol {tol:.1e}){member}")


def require_hermitian(m: np.ndarray, tol: float = HERM_TOL, what: str = "operator") -> np.ndarray:
    """``m`` as a finite complex matrix Hermitian within ``tol``.

    An ``(n, d, d)`` stack is checked in one pass; the first offending
    member raises, named by its index.
    """
    m = as_operator(m)
    _check_defects(hermitian_defect(m), tol, m.ndim == 3, f"{what} is not Hermitian")
    return m


def require_normalized(v: np.ndarray, what: str = "state") -> np.ndarray:
    """``v`` as a finite complex state normalized within ``NORM_TOL``; an ``(n, d)`` stack row by row."""
    v = as_state(v)
    _check_defects(norm_defect(v), NORM_TOL, v.ndim == 2, f"{what} is not normalized")
    return v


def herm_expm(h: np.ndarray, scale: complex = 1.0, times=None) -> np.ndarray:
    """``exp(scale * h)`` for Hermitian ``h`` via eigendecomposition.

    Parameters
    ----------
    h : ndarray
        Hermitian matrix, or an ``(n, d, d)`` stack of them exponentiated
        with one batched eigendecomposition; a single matrix is a batch of
        one.  Every matrix is checked for finite entries
        (:class:`NumericBreakdown`) and Hermiticity within ``HERM_TOL``
        (``ValueError``); the first offending one raises.
    scale : complex
        Scalar multiplying ``h`` in the exponent; one that is not finite,
        or that takes an eigenvalue's exponent out of the float range,
        raises :class:`NumericBreakdown`.  For purely imaginary ``scale`` the
        result is unitary up to eigensolver accuracy.
    times : array, optional
        The time of each matrix of the stack, named in the error message.

    Returns
    -------
    ndarray
        ``V diag(exp(scale * w)) V^dagger`` where ``h = V diag(w) V^dagger``,
        with the shape of ``h``.
    """
    h = np.asarray(h, dtype=complex)
    stack = h[None] if h.ndim == 2 else h
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"herm_expm argument must be a square matrix or a stack of them, got shape {h.shape}")
    scale = complex(scale)
    if not (np.isfinite(scale.real) and np.isfinite(scale.imag)):
        raise NumericBreakdown(f"herm_expm scale {scale} is not finite")
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise NumericBreakdown(f"herm_expm argument has non-finite entries{at_time(times, int(np.argmin(finite)))}")
    defects = hermitian_defect(stack)
    bad = defects > HERM_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"herm_expm argument is not Hermitian (defect {defects[k]:.3e} > tol {HERM_TOL:.1e}){at_time(times, k)}"
        )
    w, vecs = np.linalg.eigh(stack)
    # A finite scale times finite eigenvalues can still leave the float range.
    # The largest exponent is checked in Python floats, which do not warn,
    # so the exponential itself runs as it would without the check.
    largest = max(abs(scale.real), abs(scale.imag)) * float(max(-w.min(initial=0.0), w.max(initial=0.0)))
    if not np.isfinite(largest):
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(scale * w).all(axis=1)
        raise NumericBreakdown(f"herm_expm exponent is not finite{at_time(times, int(np.argmin(finite)))}")
    out = (vecs * np.exp(scale * w)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return out.reshape(h.shape)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries of the given scale."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random normalized state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
