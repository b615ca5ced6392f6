"""Factory tests: Pauli/qubit states, ladder algebra, quadratures,
displacement/squeeze unitaries, and the truncation diagnostics.

The truncation numbers are cross-checked against a reference summation
evaluated through per-term log-gamma weights (independent of the
closed-form error ``|alpha|^2 t_s / sum t_n`` under test).
"""

import math

import numpy as np
import pytest

from fluctdyn import hilbert, linops
from fluctdyn.hilbert import (
    FockSpace,
    SqueezedCoherentParams,
    displaced_squeezed_vacuum,
    displacement,
    ladder,
    number_op,
    pauli,
    quadratures,
    qubit_basis,
    qubit_plus,
    recommended_dim,
    squeeze,
    truncated_mean_photon,
    truncation_error,
)


def ref_truncated_mean(nbar: float, s: int) -> float:
    # Poisson-weighted mean via log-gamma terms; overflow-free by design.
    logw = [n * math.log(nbar) - math.lgamma(n + 1) for n in range(s + 1)]
    top = max(logw)
    weights = [math.exp(w - top) for w in logw]
    return sum(n * w for n, w in enumerate(weights)) / sum(weights)


def test_pauli_eigenstates():
    assert np.allclose(pauli("z") @ qubit_basis(0), qubit_basis(0))
    assert np.vdot(qubit_plus(), qubit_plus()) == pytest.approx(1.0)
    plus = qubit_plus()
    assert np.vdot(plus, pauli("x") @ plus).real == pytest.approx(1.0)


def test_pauli_invalid_axis():
    with pytest.raises(ValueError, match="axis"):
        pauli("w")
    with pytest.raises(ValueError, match="index"):
        qubit_basis(2)


def test_ladder_structure():
    space = FockSpace(s=2)
    a, ad = ladder(space)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    assert np.array_equal(a, expected)
    assert np.array_equal(ad, expected.conj().T)


def test_number_op_and_vacuum():
    space = FockSpace(s=3)
    assert np.allclose(number_op(space), np.diag([0.0, 1.0, 2.0, 3.0]))
    vac = space.vacuum()
    a, ad = ladder(space)
    assert np.vdot(vac, (ad @ a) @ vac).real == pytest.approx(0.0)


def test_quadratures_unit_constants():
    space = FockSpace(s=8)
    a, ad = ladder(space)
    x, p = quadratures(space)
    assert np.allclose(x, (a + ad) / np.sqrt(2.0), atol=1e-15)
    assert linops.hermitian_defect(x) <= linops.HERM_TOL and linops.hermitian_defect(p) <= linops.HERM_TOL


def test_quadrature_commutator_block():
    # Direct matrix arithmetic: [x, p] = i hbar on the leading s x s block
    # (the last diagonal entry is a truncation artifact).
    space = FockSpace(s=10, hbar=0.8, mass=1.7, omega=0.6)
    x, p = quadratures(space)
    comm = linops.commutator(x, p)
    s = space.s
    assert np.allclose(comm[:s, :s], 1j * space.hbar * np.eye(s), atol=1e-13)
    assert abs(comm[s, s] - 1j * space.hbar * (1 - space.dim)) < 1e-12


def test_quadrature_parity():
    space = FockSpace(s=6)
    x, _ = quadratures(space)
    vac = space.vacuum()
    assert np.vdot(vac, x @ vac).real == pytest.approx(0.0)


def test_displacement_squeeze_at_zero():
    space = FockSpace(s=20)
    assert np.allclose(displacement(space, 0.0), np.eye(space.dim), atol=1e-14)
    assert np.allclose(squeeze(space, 0.0), np.eye(space.dim), atol=1e-14)


def test_displacement_mean_excitation():
    space = FockSpace(s=20)
    alpha = complex(np.sqrt(5.0))
    state = displacement(space, alpha) @ space.vacuum()
    n_mean = float(np.vdot(state, number_op(space) @ state).real)
    assert abs(n_mean - 5.0) < 1e-4


def test_displacement_excitation_approaches_alpha_squared():
    # <N> of a generator-built displaced vacuum approaches |alpha|^2 when the
    # space is much larger than the excitation.
    space = FockSpace(s=40)
    state = displacement(space, complex(np.sqrt(5.0))) @ space.vacuum()
    n_mean = float(np.vdot(state, number_op(space) @ state).real)
    assert n_mean == pytest.approx(5.0, abs=1e-6)


def test_unitary_factories_sweep():
    worst = 0.0
    for s in (10, 25, 40):
        space = FockSpace(s=s)
        for par in (0.5, 2.0, 3.0, 1.5 + 2.0j, 3j):
            worst = max(worst, linops.is_unitary(displacement(space, par))[1])
            worst = max(worst, linops.is_unitary(squeeze(space, par))[1])
    assert worst <= 1e-10


def test_displaced_squeezed_vacuum_cases():
    space = FockSpace(s=20)
    trivial = displaced_squeezed_vacuum(space, SqueezedCoherentParams(0.0, 0.0))
    assert np.allclose(trivial, space.vacuum(), atol=1e-14)

    coherent = displaced_squeezed_vacuum(space, SqueezedCoherentParams(2.0 + 1.0j, 0.0))
    n_mean = float(np.vdot(coherent, number_op(space) @ coherent).real)
    assert n_mean == pytest.approx(5.0, abs=1e-3)

    full = displaced_squeezed_vacuum(space, SqueezedCoherentParams(2.0 + 1.0j, 0.5 + 0.5j))
    assert abs(np.linalg.norm(full) - 1.0) <= 1e-9


def test_params_validation():
    with pytest.raises(ValueError, match="finite"):
        SqueezedCoherentParams(alpha=complex("nan"), z=0.0)
    with pytest.raises(ValueError, match="s >= 1"):
        FockSpace(s=0)


def test_truncated_mean_photon_reference_values():
    assert truncated_mean_photon(0.0, 15) == 0.0
    for nbar in (1.0, 5.0, 10.0):
        for s in (5, 12, 20, 40):
            assert truncated_mean_photon(nbar, s) == pytest.approx(
                ref_truncated_mean(nbar, s), abs=1e-12
            )


def test_truncation_error_at_published_point():
    err = truncation_error(5.0, 20)
    assert 1e-7 <= err <= 1e-5


def test_truncation_error_against_reference_sum():
    # High-s reference: with 200 retained terms the truncated mean is the
    # converged mean for any nbar used here.
    ref_full = ref_truncated_mean(5.0, 200)
    assert ref_full == pytest.approx(5.0, abs=1e-12)
    assert truncation_error(5.0, 40) == pytest.approx(abs(ref_full - ref_truncated_mean(5.0, 40)), abs=1e-12)


def test_truncated_mean_monotone_and_convergent():
    for nbar in (1.0, 5.0, 10.0):
        values = [truncated_mean_photon(nbar, s) for s in range(1, 81)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        assert values[-1] == pytest.approx(nbar, abs=1e-10)


def test_recommended_dim():
    with pytest.raises(ValueError, match="positive"):
        recommended_dim(5.0, 0.0)
    assert recommended_dim(0.0, 1e-6) == 0
    # At 750 the running Poisson terms once overflowed, and the search
    # returned its unchecked seed 887, whose error was NaN.
    for nbar, eps in ((5.0, 1e-6), (5.0, 1e-4), (2.0, 1e-8), (10.0, 1e-5), (750.0, 1e-6)):
        s = recommended_dim(nbar, eps)
        assert truncation_error(nbar, s) <= eps
        if s > 0:
            assert truncation_error(nbar, s - 1) > eps


def test_recommended_dim_is_bounded():
    # The search once walked one level per step from |alpha|^2 + 5 |alpha|.
    for abs_alpha_sq in (1e8, 1e20, 1e308):
        with pytest.raises(ValueError, match=f"no cutoff up to {hilbert.MAX_RECOMMENDED_CUTOFF} "):
            recommended_dim(abs_alpha_sq, 1e-6)
