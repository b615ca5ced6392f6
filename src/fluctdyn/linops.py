"""Dense complex linear-algebra kernel.

Everything else in the package is built on the operations here:
commutators, Hermitian/anti-Hermitian matrix exponentials, and the
structural predicates (Hermiticity, unitarity, normalization) with their
default tolerances.

Matrix exponentials go through the eigendecomposition of a Hermitian
argument rather than Pade scaling-and-squaring: every exponential this
package needs has an (anti-)Hermitian generator, and the eigendecomposition
route keeps the result unitary up to eigensolver accuracy.

All functions are pure and operate on plain ``numpy`` arrays
(``complex128``); nothing here mutates its inputs.
"""

from __future__ import annotations

import numpy as np

# Default tolerances: one order above double-precision accumulation for the
# dimensions this package targets (<= 64).
HERM_TOL = 1e-12
UNIT_TOL = 1e-10
NORM_TOL = 1e-10


class NumericBreakdown(ValueError):
    """A value met during a computation is not finite, or not real where it must be."""


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix with finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("operator dimension must be >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    return m


def as_state(v) -> np.ndarray:
    """Coerce ``v`` to a complex state vector with finite entries."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"state must be a 1-d vector, got shape {v.shape}")
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
    """``a b - b a``."""
    a = as_operator(a)
    b = as_operator(b)
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a b + b a``."""
    a = as_operator(a)
    b = as_operator(b)
    _check_same_dim(a, b)
    return a @ b + b @ a


def hermitian_defect(m: np.ndarray) -> float:
    """Max entrywise magnitude of ``m - m^dagger``."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def unitarity_defect(m: np.ndarray) -> float:
    """Max entrywise magnitude of ``m^dagger m - 1``."""
    m = np.asarray(m)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def is_unitary(m: np.ndarray, tol: float = UNIT_TOL) -> tuple[bool, float]:
    """Unitarity predicate; returns ``(flag, max_defect)``."""
    defect = unitarity_defect(as_operator(m))
    return defect <= tol, defect


def norm_defect(v: np.ndarray) -> float:
    """``| ||v|| - 1 |`` of a state vector."""
    return float(abs(np.linalg.norm(np.asarray(v)) - 1.0))


def require_hermitian(m: np.ndarray, tol: float = HERM_TOL, what: str = "operator") -> np.ndarray:
    m = as_operator(m)
    defect = hermitian_defect(m)
    if defect > tol:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e} > tol {tol:.1e})")
    return m


def require_normalized(v: np.ndarray, tol: float = NORM_TOL, what: str = "state") -> np.ndarray:
    v = as_state(v)
    defect = norm_defect(v)
    if defect > tol:
        raise ValueError(f"{what} is not normalized (defect {defect:.3e} > tol {tol:.1e})")
    return v


def herm_expm(h: np.ndarray, scale: complex = 1.0, herm_tol: float = HERM_TOL, times=None) -> np.ndarray:
    """``exp(scale * h)`` for Hermitian ``h`` via eigendecomposition.

    Parameters
    ----------
    h : ndarray
        Hermitian matrix, or an ``(n, d, d)`` stack of them exponentiated
        with one batched eigendecomposition; a single matrix is a batch of
        one.  Every matrix is checked for finite entries
        (:class:`NumericBreakdown`) and Hermiticity within ``herm_tol``
        (``ValueError``); the first offending one raises.
    scale : complex
        Scalar multiplying ``h`` in the exponent.  For purely imaginary
        ``scale`` the result is unitary up to eigensolver accuracy.
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
        raise ValueError("scale must be finite")
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise NumericBreakdown(f"herm_expm argument has non-finite entries{at_time(times, int(np.argmin(finite)))}")
    defects = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    bad = defects > herm_tol
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"herm_expm argument is not Hermitian (defect {defects[k]:.3e} > tol {herm_tol:.1e}){at_time(times, k)}"
        )
    w, vecs = np.linalg.eigh(stack)
    out = (vecs * np.exp(scale * w)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return out.reshape(h.shape)


def antiherm_expm(g: np.ndarray, herm_tol: float = HERM_TOL) -> np.ndarray:
    """``exp(g)`` for anti-Hermitian ``g``; unitary by construction.

    Routed through :func:`herm_expm` on the Hermitian matrix ``-i g``.
    """
    g = as_operator(g)
    defect = float(np.abs(g + g.conj().T).max())
    if defect > herm_tol:
        raise ValueError(
            f"antiherm_expm argument is not anti-Hermitian (defect {defect:.3e} > tol {herm_tol:.1e})"
        )
    return herm_expm(-1j * g, scale=1j, herm_tol=np.inf)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries of the given scale."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random normalized state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
