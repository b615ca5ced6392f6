"""Seeded property suites behind the ``verify`` command.

Each suite returns a list of :class:`CheckResult`; all randomness is driven
by explicit seeds so repeated runs are bit-for-bit reproducible.  These are
the only implementations of the property checks: the acceptance criteria
assert the results returned here.  A check computes its statistics with the
library's own kernels (``fluctuation.bound_series``,
``fluctuation.checked_moments``) and tests them against routes that do not
share that code: the Bloch-vector closed forms of :mod:`fluctdyn.bloch`,
analytic values (orthogonality times, exact span defects, truncated Poisson
means) and identities that must hold for every random draw.

The sweeps are array programs wherever the draws allow it.  The covariance
sweep draws one observable pair and state at a time, in a fixed order, and
checks them in stacks of one dimension (:func:`covariance_sweep`); the Bloch
oracle is evaluated once per scenario grid and once for all random
residual draws.  The bounds suite's random sweep stays one draw at a time,
because ``propagate`` and ``bound_series`` on each draw are what it tests.
The per-point references that pin these kernels live in
``tests/test_batched.py`` and ``tests/test_bloch.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import bloch, bounds, fluctuation, hilbert, linops, scenarios
from .dynamics import TimeDepOperator, TimeGrid, propagate
from .hilbert import pauli

DEFAULT_SEED = 20240617
# Draws per stack of the covariance sweep.
STACK_DRAWS = 64


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"suite": self.suite, "name": self.name, "passed": self.passed, "detail": self.detail}


def _result(suite, name, passed, detail):
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def _braket(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Row-wise ``<psi_k| O_k |psi_k>`` of an ``(n, d, d)`` stack and ``(n, d)`` states."""
    return np.einsum("ki,ki->k", states.conj(), np.matmul(ops, states[:, :, None])[:, :, 0])


def _stacked_draws(rng: np.random.Generator, n: int, dims: list) -> Iterator[tuple[np.ndarray, ...]]:
    """``n`` draws of a dimension from ``dims``, two random observables and a
    random state, as ``(A, B, psi)`` stacks of one dimension each.

    The draws are made one at a time, so the random stream is that of a
    per-draw loop.  A stack is handed on once it holds ``STACK_DRAWS``
    draws: one stack per dimension raised the suite's peak memory by about
    3 MB, against none at 64 draws.
    """
    pending = {}
    for _ in range(n):
        dim = int(rng.choice(dims))
        group = pending.setdefault(dim, [])
        a = linops.random_hermitian(dim, rng)
        b = linops.random_hermitian(dim, rng)
        group.append((a, b, linops.random_state(dim, rng)))
        if len(group) == STACK_DRAWS:
            yield tuple(np.array(x) for x in zip(*pending.pop(dim)))
    for group in pending.values():
        yield tuple(np.array(x) for x in zip(*group))


def covariance_sweep(a: np.ndarray, b: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per draw of two ``(n, d, d)`` observable stacks and ``(n, d)`` states:
    ``(var_a, var_b, cov, lhs, rhs)``.

    ``cov`` is the symmetrized covariance, ``lhs = 4 |<dA dB>|^2`` and
    ``rhs = |<[dA, dB]>|^2 + |<{dA, dB}>|^2`` with ``dA = A - <A>``; the
    stacks are validated first (:func:`fluctuation.checked_moments`).
    """
    mean_a, ca, _ = fluctuation.checked_moments(a, psi)
    mean_b, cb, _ = fluctuation.checked_moments(b, psi)
    eye = np.eye(psi.shape[-1])
    da = a - mean_a[:, None, None] * eye
    db = b - mean_b[:, None, None] * eye
    cross = _braket(da @ db, psi)
    comm = _braket(linops.commutator(da, db), psi)
    anti = _braket(linops.anticommutator(da, db), psi)
    return (
        fluctuation.inner_re(ca, ca),
        fluctuation.inner_re(cb, cb),
        fluctuation.inner_re(ca, cb),
        4.0 * np.abs(cross) ** 2,
        np.abs(comm) ** 2 + np.abs(anti) ** 2,
    )


def algebra_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Kernel identities: exponential unitarity/additivity, commutator
    symmetry, the covariance Cauchy-Schwarz sweep, and the
    commutator/anticommutator magnitude decomposition."""
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        h = linops.random_hermitian(dim, rng, scale=rng.uniform(0.1, 5.0))
        _, defect = linops.is_unitary(linops.herm_expm(h, -1j * rng.uniform(0.1, 2.0)))
        worst = max(worst, defect)
    out.append(_result("algebra", "herm_expm_unitary", worst <= 1e-10, f"max defect {worst:.3e}"))

    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        h = linops.random_hermitian(dim, rng)
        s1 = complex(rng.normal(), rng.normal())
        s2 = complex(rng.normal(), rng.normal())
        e1, e2 = linops.herm_expm(h, s1), linops.herm_expm(h, s2)
        # Rounding in the product e1 @ e2 scales with ||e1||_2 ||e2||_2, which
        # complex scalings can make far larger than ||e^{(s1+s2) h}||.
        rel = np.linalg.norm(e1 @ e2 - linops.herm_expm(h, s1 + s2)) / (
            np.linalg.norm(e1, 2) * np.linalg.norm(e2, 2)
        )
        worst = max(worst, rel)
    out.append(_result("algebra", "herm_expm_additive", worst <= 1e-10, f"max rel defect {worst:.3e}"))

    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        a = linops.random_hermitian(dim, rng)
        b = linops.random_hermitian(dim, rng)
        c = linops.commutator(a, b)
        k = linops.anticommutator(a, b)
        worst = max(
            worst,
            float(np.abs(c + c.conj().T).max()),
            float(np.abs(k - k.conj().T).max()),
        )
    out.append(_result("algebra", "commutator_symmetry", worst <= 1e-12, f"max defect {worst:.3e}"))

    cs_worst = 0.0
    cov_worst = 0.0
    dec_worst = 0.0
    for a, b, psi in _stacked_draws(rng, 1000, [2, 3, 4, 8]):
        var_a, var_b, cov, lhs, rhs = covariance_sweep(a, b, psi)
        cs_worst = min(cs_worst, float(np.min((var_a * var_b - cov * cov) / np.maximum(1.0, var_a * var_b))))
        cov_worst = max(cov_worst, float(np.max(np.abs(cov) - np.sqrt(var_a * var_b))))
        dec_worst = max(dec_worst, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs))))
    out.append(
        _result(
            "algebra",
            "covariance_cauchy_schwarz",
            cs_worst >= -1e-10 and cov_worst <= 1e-10,
            f"worst scaled violation {cs_worst:.3e}; max |cov| - sqrt(var_a var_b) {cov_worst:.3e}",
        )
    )
    out.append(
        _result("algebra", "magnitude_decomposition", dec_worst <= 1e-10, f"max rel defect {dec_worst:.3e}")
    )
    return out


def bounds_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Acceleration-limit sweep over random driven qubits, the integral
    uncertainty-time check with its closed-form saturation case, and the
    SNR floor on the tight scenario."""
    rng = np.random.default_rng(seed)
    out = []

    # The acceleration limit sigma_dot_H <= sigma_{dH/dt} is the bound at
    # A = H, where v_H = dH/dt: its residual is -(cov^2 / var_H - var_Hdot).
    names = list(scenarios._COEFFS)
    paulis = np.stack([pauli("x"), pauli("y"), pauli("z")])
    worst = 0.0
    for _ in range(200):
        nvec = rng.normal(size=3)
        nvec /= np.linalg.norm(nvec)
        kvec = rng.normal(size=3)
        kvec /= np.linalg.norm(kvec)
        f, fd, _ = scenarios.coefficient(
            {"fn": str(rng.choice(names)), "scale": float(rng.uniform(0.3, 2.0))}
        )
        g, gd, _ = scenarios.coefficient(
            {"fn": str(rng.choice(names)), "scale": float(rng.uniform(0.3, 2.0))}
        )
        mat_n = np.tensordot(nvec, paulis, axes=1)
        mat_k = np.tensordot(kvec, paulis, axes=1)
        h_op = TimeDepOperator.linear([(f, fd, mat_n), (g, gd, mat_k)])
        psi0 = linops.random_state(2, rng)
        traj = propagate(h_op, psi0, TimeGrid(0.0, 2.0, 200), method="midpoint")
        s = fluctuation.bound_series(h_op, h_op, traj)
        worst = float(np.max(-s.residual_r2[~s.degenerate], initial=worst))
    out.append(
        _result("bounds", "acceleration_limit_random", worst <= 1e-8, f"max (d sigma_H)^2 - sigma_Hdot^2 = {worst:.3e}")
    )

    rep1 = scenarios.run_scenario(scenarios.default_config("example1"))
    _, _, defect = bounds.mt_integral_check(rep1.pieces.hamiltonian, rep1.trajectory)
    out.append(
        _result("bounds", "mt_integral_example1", float(np.min(defect)) >= -1e-6, f"min defect {np.min(defect):.3e}")
    )

    omega = 1.3
    h_const = TimeDepOperator.stationary(omega * pauli("z"))
    t_star = math.pi / (2.0 * omega)
    traj = propagate(h_const, hilbert.qubit_plus(), TimeGrid(0.0, t_star, 400), method="exact_commuting")
    _, _, defect = bounds.mt_integral_check(h_const, traj)
    sat = abs(defect[-1])
    floor = float(np.min(defect))
    out.append(
        _result(
            "bounds",
            "mt_saturation_rabi",
            sat <= 1e-6 and floor >= -1e-6,
            f"|defect| at orthogonality {sat:.3e}; min defect {floor:.3e}",
        )
    )

    trace = bounds.snr_trace(rep1.pieces.observable, rep1.pieces.hamiltonian, rep1.trajectory)
    mask = (trace.times >= 0.1) & trace.mean_valid & np.isfinite(trace.snr)
    gap = float(np.min(trace.snr[mask] - trace.snr_min[mask]))
    # 5000-step trapezoid floor: quadrature error ~ 4e-5 where the floor is
    # analytically saturated.
    out.append(_result("bounds", "snr_floor_example1", gap >= -1e-4, f"min snr - snr_min = {gap:.3e}"))
    return out


def bloch_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Geometric-oracle equivalence on the qubit scenarios, the geometric
    residual property sweep, and the span-test / tightness coupling."""
    rng = np.random.default_rng(seed)
    out = []

    runs = {
        name: scenarios.run_scenario(scenarios.default_config(name, n_steps=1000))
        for name in ("example1", "example2")
    }
    for name, rep in runs.items():
        s = rep.series
        st = bloch.bloch_stats(rep.pieces.bloch_model, s.t)
        gaps = (st.mean - s.mu, st.sigma_sq - s.sigma**2, st.v_mean - s.mu_dot, st.v2_mean - s.v2_mean)
        worst = max(float(np.max(np.abs(g))) for g in gaps)
        out.append(
            _result("bloch", f"matrix_oracle_{name}", worst <= 1e-9, f"max channel gap {worst:.3e}")
        )

    # One (1000, 4, 3) draw is the stream of 1000 sequential draws of the
    # vectors a, h, m and m_dot.
    vecs = rng.normal(size=(1000, 4, 3))
    a = vecs[:, 0] / np.linalg.norm(vecs[:, 0], axis=1, keepdims=True)
    model = bloch.BlochModel(
        a=lambda t: a, h=lambda t: vecs[:, 1], m=lambda t: vecs[:, 2], m_dot=lambda t: vecs[:, 3]
    )
    res, degenerate = bloch.geometric_residual(model, np.zeros(len(vecs)))
    worst = float(np.min(res[~degenerate], initial=0.0))
    out.append(
        _result("bloch", "geometric_residual_nonnegative", worst >= -1e-10, f"min residual {worst:.3e}")
    )

    rep = runs["example1"]
    members, _ = bloch.tightness_span_test(rep.pieces.bloch_model, rep.series.t)
    all_member = bool(np.all(members))
    nondeg = ~rep.series.degenerate
    tight_ok = bool(
        np.all(rep.series.residual_r2[nondeg] <= 1e-6 * np.maximum(1.0, rep.series.v2_mean[nondeg]))
    )
    coupled = (not all_member) or tight_ok
    out.append(
        _result(
            "bloch",
            "span_membership_implies_tight",
            all_member and coupled,
            f"member at all {len(members)} points: {all_member}; tight: {tight_ok}",
        )
    )

    # At t = 1 on example2 both span vectors lie in the y-(xy) plane while
    # m_dot has a unit z-component: the defect is exactly 1.
    rep2 = runs["example2"]
    idx = int(np.argmin(np.abs(rep2.series.t - 1.0)))
    member, defect = bloch.tightness_span_test(rep2.pieces.bloch_model, rep2.series.t[idx])
    member, defect = bool(member[0]), float(defect[0])
    out.append(
        _result(
            "bloch",
            "span_rejects_loose_case",
            (not member) and abs(defect - 1.0) <= 1e-12,
            f"defect at t=1: {defect:.3e}",
        )
    )
    return out


def truncation_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Mean-excitation truncation numbers, monotone convergence, and the
    quadrature/ladder consistency relations."""
    out = []

    err = hilbert.truncation_error(5.0, 20)
    out.append(
        _result("truncation", "mean_excitation_error_s20", 1e-7 <= err <= 1e-5, f"|5 - mean| = {err:.3e}")
    )

    ok = True
    detail = ""
    for nbar in (1.0, 5.0, 10.0):
        prev = -1.0
        for s in range(1, 81):
            cur = hilbert.truncated_mean_photon(nbar, s)
            if cur < prev - 1e-12:
                ok = False
                detail = f"non-monotone at nbar={nbar}, s={s}"
                break
            prev = cur
        if not ok:
            break
        if abs(prev - nbar) > 1e-10:
            ok = False
            detail = f"no convergence at nbar={nbar}: {prev}"
    out.append(_result("truncation", "mean_excitation_monotone_convergent", ok, detail or "grid clean"))

    space = hilbert.FockSpace(s=12, hbar=0.7, mass=1.3, omega=2.1)
    a, ad = hilbert.ladder(space)
    x, p = hilbert.quadratures(space)
    cx = math.sqrt(space.hbar / (2 * space.mass * space.omega))
    cp = math.sqrt(space.mass * space.omega * space.hbar / 2)
    dx = float(np.abs(x - cx * (a + ad)).max())
    dp = float(np.abs(p - 1j * cp * (ad - a)).max())
    out.append(
        _result("truncation", "quadrature_ladder_relations", max(dx, dp) <= 1e-14, f"max defect {max(dx, dp):.3e}")
    )

    worst = 0.0
    for s, mag in ((10, 1.0), (25, 2.0), (40, 3.0)):
        space = hilbert.FockSpace(s=s)
        for par in (mag, 1j * mag, (0.3 + 0.4j) * mag):
            _, du = linops.is_unitary(hilbert.displacement(space, par))
            _, su = linops.is_unitary(hilbert.squeeze(space, par))
            worst = max(worst, du, su)
    out.append(
        _result("truncation", "displacement_squeeze_unitary", worst <= 1e-10, f"max unitarity defect {worst:.3e}")
    )
    return out


SUITES = {
    "algebra": algebra_suite,
    "bounds": bounds_suite,
    "bloch": bloch_suite,
    "truncation": truncation_suite,
}


def run_suites(names, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name](seed=seed))
    return results
