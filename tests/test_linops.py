"""Kernel tests: commutators, exponentials, predicates.

Expected values come from direct construction (Pauli algebra) or from
closed-form exponentials; the property sweeps run over
seeded random Hermitian matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctdyn import linops
from fluctdyn.hilbert import pauli

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
I2 = np.eye(2, dtype=complex)


def test_commutator_pauli_identity():
    assert np.allclose(linops.commutator(SX, SZ), -2j * SY, atol=1e-15)


def test_anticommutator_pauli_table():
    paulis = {"x": SX, "y": SY, "z": SZ}
    for lk, lm in paulis.items():
        for rk, rm in paulis.items():
            expected = 2.0 * I2 if lk == rk else np.zeros((2, 2))
            assert np.allclose(linops.anticommutator(lm, rm), expected, atol=1e-15)


def test_self_commutator_vanishes():
    rng = np.random.default_rng(7)
    h = linops.random_hermitian(6, rng)
    assert np.abs(linops.commutator(h, h)).max() < 1e-12


def test_herm_expm_pauli_closed_form():
    theta = 0.7318
    expected = np.cos(theta) * I2 - 1j * np.sin(theta) * SX
    assert np.allclose(linops.herm_expm(SX, -1j * theta), expected, atol=1e-14)


def test_herm_expm_diagonal():
    d = np.diag([0.3, -1.2, 2.5]).astype(complex)
    s = 0.4 - 0.9j
    out = linops.herm_expm(d, s)
    assert np.allclose(out, np.diag(np.exp(s * np.diag(d))), atol=1e-13)


def test_herm_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        linops.herm_expm(np.array([[0, 1], [0, 0]], dtype=complex), -1j)


def test_herm_expm_unitary_sweep():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        h = linops.random_hermitian(dim, rng, scale=rng.uniform(0.1, 4.0))
        _, defect = linops.is_unitary(linops.herm_expm(h, -1j * 0.7))
        worst = max(worst, defect)
    assert worst <= 1e-10


def test_herm_expm_unitary_at_size_and_norm_limits():
    # Stated envelope: dimensions up to 64 and generator norms up to 100.
    rng = np.random.default_rng(7)
    for _ in range(5):
        h = linops.random_hermitian(64, rng)
        h *= 100.0 / np.linalg.norm(h, 2)
        _, defect = linops.is_unitary(linops.herm_expm(h, -1j * 0.7))
        assert defect <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 10),
    t=st.floats(-3.0, 3.0, allow_nan=False),
)
def test_herm_expm_additivity_property(seed, dim, t):
    rng = np.random.default_rng(seed)
    h = linops.random_hermitian(dim, rng)
    s1, s2 = -1j * t, -1j * 0.31 + 0.05
    lhs = linops.herm_expm(h, s1) @ linops.herm_expm(h, s2)
    rhs = linops.herm_expm(h, s1 + s2)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8))
def test_commutator_adjoint_structure_property(seed, dim):
    rng = np.random.default_rng(seed)
    a = linops.random_hermitian(dim, rng)
    b = linops.random_hermitian(dim, rng)
    c = linops.commutator(a, b)
    k = linops.anticommutator(a, b)
    assert np.abs(c + c.conj().T).max() <= 1e-12 * max(1.0, np.abs(c).max())
    assert np.abs(k - k.conj().T).max() <= 1e-12 * max(1.0, np.abs(k).max())


def test_herm_expm_identity_and_diagonal():
    # An anti-Hermitian generator g goes in as -i g with scale i.
    assert np.allclose(linops.herm_expm(np.zeros((3, 3)), 1j), np.eye(3))
    theta = 0.9
    out = linops.herm_expm(-1j * (1j * theta * SZ), 1j)
    assert np.allclose(out, np.diag([np.exp(1j * theta), np.exp(-1j * theta)]), atol=1e-14)


def test_predicates_report_defects():
    assert linops.hermitian_defect(SX) == 0.0
    bad = SX + 1e-8 * 1j * np.eye(2)
    defect = linops.hermitian_defect(bad)
    assert defect > linops.HERM_TOL and defect == pytest.approx(2e-8, rel=1e-6)
    ok, _ = linops.is_unitary(linops.herm_expm(SZ, -1j * 0.3))
    assert ok


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8))
def test_magnitude_decomposition_property(seed, dim):
    # 4 |<dA dB>|^2 == |<[dA, dB]>|^2 + |<{dA, dB}>|^2 for centered
    # Hermitian operators, pointwise in the state.
    rng = np.random.default_rng(seed)
    a = linops.random_hermitian(dim, rng)
    b = linops.random_hermitian(dim, rng)
    psi = linops.random_state(dim, rng)
    ev = lambda m: complex(np.vdot(psi, m @ psi))
    da = a - ev(a).real * np.eye(dim)
    db = b - ev(b).real * np.eye(dim)
    lhs = 4.0 * abs(ev(da @ db)) ** 2
    rhs = abs(ev(linops.commutator(da, db))) ** 2 + abs(ev(linops.anticommutator(da, db))) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
