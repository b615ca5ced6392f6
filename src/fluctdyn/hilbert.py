"""Operator and state factories.

Qubit side: Pauli matrices and the standard basis / balanced-superposition
states.  Oscillator side: a truncated number basis with ladder, number and
quadrature operators, displacement / squeeze unitaries, the displaced
squeezed vacuum, and diagnostics for choosing an adequate truncation level.

Displacement and squeeze operators are built by exponentiating the
*truncated* generators rather than truncating infinite-dimensional results.
That keeps them exactly unitary inside the simulated space, so the states
they produce are normalized up to eigensolver accuracy no matter how small
the space is; the meaningful truncation diagnostics are the tail masses and
the mean-excitation error, not the norm.  An anti-Hermitian generator ``g``
is exponentiated as :func:`~fluctdyn.linops.herm_expm` of the Hermitian
``-i g`` with ``scale = i``, which checks that ``-i g`` is Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import NORM_TOL, herm_expm

# Largest cutoff recommended_dim tries: a dense operator on 2^20 levels is
# beyond any run.
MAX_RECOMMENDED_CUTOFF = 1 << 20

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for ``axis`` in ``{"x", "y", "z"}``."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"invalid Pauli axis {axis!r}; expected one of 'x', 'y', 'z'") from None


def qubit_basis(k: int) -> np.ndarray:
    """Computational basis state ``|k>`` for ``k`` in ``{0, 1}``."""
    if k not in (0, 1):
        raise ValueError(f"invalid qubit basis index {k}; expected 0 or 1")
    v = np.zeros(2, dtype=complex)
    v[k] = 1.0
    return v


def qubit_plus() -> np.ndarray:
    """Balanced superposition ``(|0> + |1>) / sqrt(2)``."""
    return np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class FockSpace:
    """Truncated oscillator space spanned by number states ``|0> .. |s>``.

    Parameters
    ----------
    s : int
        Highest retained number state; the dimension is ``s + 1``.
    hbar, mass, omega : float
        Physical constants entering the quadrature scalings and the
        oscillator Hamiltonian.  Defaults are 1.
    """

    s: int
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"need s >= 1 (dimension >= 2), got s={self.s}")
        for name in ("hbar", "mass", "omega"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def dim(self) -> int:
        return self.s + 1

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v


@dataclass(frozen=True)
class SqueezedCoherentParams:
    """Displacement ``alpha`` and squeezing ``z`` of a Gaussian pure state."""

    alpha: complex
    z: complex

    def __post_init__(self):
        for name in ("alpha", "z"):
            c = complex(getattr(self, name))
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"{name} must be finite")


def ladder(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation / creation pair ``(a, a_dag)`` on the truncated space.

    ``a|n> = sqrt(n)|n-1>`` for ``n <= s``; matrix elements beyond the cutoff
    are dropped.
    """
    n = np.arange(1, space.dim)
    a = np.zeros((space.dim, space.dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def number_op(space: FockSpace) -> np.ndarray:
    """``a_dag a = diag(0, 1, ..., s)``."""
    return np.diag(np.arange(space.dim, dtype=float)).astype(complex)


def oscillator_hamiltonian(space: FockSpace) -> np.ndarray:
    """``hbar * omega * (N + 1/2)``."""
    return space.hbar * space.omega * (number_op(space) + 0.5 * np.eye(space.dim))


def quadratures(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Position-like and momentum-like quadratures ``(x, p)``.

    ``x = sqrt(hbar / (2 m omega)) (a + a_dag)`` and
    ``p = i sqrt(m omega hbar / 2) (a_dag - a)``; both Hermitian.
    """
    a, ad = ladder(space)
    x = math.sqrt(space.hbar / (2.0 * space.mass * space.omega)) * (a + ad)
    p = 1j * math.sqrt(space.mass * space.omega * space.hbar / 2.0) * (ad - a)
    return x, p


def displacement(space: FockSpace, alpha: complex) -> np.ndarray:
    """Unitary displacement ``exp(alpha a_dag - conj(alpha) a)``."""
    alpha = complex(alpha)
    a, ad = ladder(space)
    return herm_expm(-1j * (alpha * ad - np.conj(alpha) * a), scale=1j)


def squeeze(space: FockSpace, z: complex) -> np.ndarray:
    """Unitary squeeze ``exp(conj(z)/2 a^2 - z/2 a_dag^2)``."""
    z = complex(z)
    a, ad = ladder(space)
    return herm_expm(-1j * ((np.conj(z) / 2.0) * (a @ a) - (z / 2.0) * (ad @ ad)), scale=1j)


def displaced_squeezed_vacuum(space: FockSpace, params: SqueezedCoherentParams) -> np.ndarray:
    """Displace-then-squeeze vacuum state ``D(alpha) S(z) |0>``.

    Raises if the normalization defect exceeds ``NORM_TOL`` (it cannot for
    this construction unless the eigensolver misbehaves, since both factors
    are exactly unitary in the truncated space).
    """
    state = displacement(space, params.alpha) @ (squeeze(space, params.z) @ space.vacuum())
    defect = abs(np.linalg.norm(state) - 1.0)
    if defect > NORM_TOL:
        raise ValueError(
            f"displaced squeezed vacuum normalization defect {defect:.3e} exceeds "
            f"{NORM_TOL:.1e}; the space (s={space.s}) is inadequate"
        )
    return state


def fock_tail_mass(state: np.ndarray, levels: int = 2):
    """Probability mass in the top ``levels`` number states of ``state``.

    A stack of states (one per row) gives one mass per row.
    """
    mass = np.sum(np.abs(np.asarray(state)[..., -levels:]) ** 2, axis=-1)
    return float(mass) if mass.ndim == 0 else mass


def truncated_mean_photon(abs_alpha_sq: float, s: int) -> float:
    """Mean excitation of a coherent state restricted to ``n <= s``.

    The weights are the (unnormalized) Poisson terms ``|alpha|^{2n} / n!``,
    renormalized over the retained levels; the mean is ``|alpha|^2`` less
    :func:`truncation_error`.
    """
    return abs_alpha_sq - truncation_error(abs_alpha_sq, s)


def truncation_error(abs_alpha_sq: float, s: int) -> float:
    """``| |alpha|^2 - truncated_mean_photon(|alpha|^2, s) |``.

    With ``t_n = |alpha|^{2n} / n!``, ``sum_{n <= s} n t_n = |alpha|^2
    sum_{n < s} t_n``, so this is ``|alpha|^2 t_s / sum_{n <= s} t_n``, with
    no difference of near-equal means.  The terms are formed in log space,
    ``n log|alpha|^2 - log n!``, so none overflows.
    """
    if abs_alpha_sq < 0:
        raise ValueError("abs_alpha_sq must be >= 0")
    if s < 0:
        raise ValueError("s must be >= 0")
    if abs_alpha_sq == 0.0:
        return 0.0
    n = np.arange(int(s) + 1, dtype=float)
    log_terms = n * math.log(abs_alpha_sq) - np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    terms = np.exp(log_terms - log_terms.max())
    return float(abs_alpha_sq * (terms[-1] / terms.sum()))


def recommended_dim(abs_alpha_sq: float, eps: float) -> int:
    """Smallest cutoff ``s`` with :func:`truncation_error` at most ``eps``.

    The error falls as ``s`` grows.  The search starts at
    ``ceil(|alpha|^2 + 5 sqrt(|alpha|^2))``, doubles until the error is at
    most ``eps`` and then bisects: ``O(log s)`` evaluations.  It raises
    ``ValueError`` if no cutoff up to ``MAX_RECOMMENDED_CUTOFF`` is enough.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs_alpha_sq < 0:
        raise ValueError("abs_alpha_sq must be >= 0")
    # The error exceeds eps at lo (or lo = -1) and is at most eps at hi.
    lo, hi = -1, min(math.ceil(abs_alpha_sq + 5.0 * math.sqrt(abs_alpha_sq)), MAX_RECOMMENDED_CUTOFF)
    while truncation_error(abs_alpha_sq, hi) > eps:
        if hi == MAX_RECOMMENDED_CUTOFF:
            raise ValueError(f"no cutoff up to {hi} brings the truncation error of {abs_alpha_sq:.3g} to {eps:.1e}")
        lo, hi = hi, min(2 * hi, MAX_RECOMMENDED_CUTOFF)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if truncation_error(abs_alpha_sq, mid) > eps else (lo, mid)
    return hi
