"""Propagation tests.

Oracles: closed-form phase evolution for scalar commuting families and
for a two-term commuting family, refinement invariance of the closed-form
route, the midpoint stepper's measured convergence order against the
closed form, a per-step exponential loop for the chunked midpoint
stepper, one chunk for the chunked closed form, and one call per operator
for a stack of operators.
"""

import re
import tracemalloc

import numpy as np
import pytest

from fluctdyn import dynamics, verify
from fluctdyn.dynamics import (
    TimeDepOperator,
    TimeGrid,
    hermitian_basis,
    propagate,
    time_chunks,
)
from fluctdyn.hilbert import FockSpace, number_op, oscillator_hamiltonian, pauli, qubit_plus
from fluctdyn.linops import NumericBreakdown, herm_expm, random_hermitian, random_state
from fluctdyn.scenarios import ScenarioConfig


def example1_hamiltonian(omega0=1.0, nu0=1.0):
    return TimeDepOperator.scaled(
        lambda t: omega0 * np.cos(nu0 * t),
        lambda t: -omega0 * nu0 * np.sin(nu0 * t),
        pauli("z"),
        lambda t: (omega0 / nu0) * np.sin(nu0 * t),
    )


def example1_state(t, omega0=1.0, nu0=1.0):
    theta = (omega0 / nu0) * np.sin(nu0 * t)
    return np.array([np.exp(-1j * theta), np.exp(1j * theta)]) / np.sqrt(2.0)


def test_zero_hamiltonian_freezes_state():
    h = TimeDepOperator.stationary(np.zeros((2, 2), dtype=complex))
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 3.0, 50), method="exact_commuting")
    assert np.allclose(traj.states, qubit_plus()[None, :])
    assert traj.norm_defects.max() < 1e-15


def test_exact_commuting_matches_closed_form_phases():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 5.0, 500)
    traj = propagate(h, qubit_plus(), grid, method="exact_commuting")
    expected = np.stack([example1_state(t) for t in grid.times])
    assert np.abs(traj.states - expected).max() < 1e-12


def test_stationary_phase_on_number_state():
    space = FockSpace(s=6, omega=1.7)
    h = TimeDepOperator.stationary(oscillator_hamiltonian(space))
    n = 3
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[n] = 1.0
    grid = TimeGrid(0.0, 2.0, 40)
    traj = propagate(h, psi0, grid, method="exact_commuting")
    for k, t in enumerate(grid.times):
        expected = np.exp(-1j * space.omega * (n + 0.5) * t)
        assert traj.states[k][n] == pytest.approx(expected, abs=1e-12)


def test_commuting_non_scalar_family():
    # H(t) = cos(t) P + 0.5 Q with commuting projectors P, Q: not a scalar
    # multiple of one matrix, so the bases share one eigenbasis.  In a
    # rotated frame that eigenbasis is not the standard one.
    grid = TimeGrid(0.0, 4.0, 80)
    c, s = np.cos(0.7), np.sin(0.7)
    for frame in (np.eye(2), np.array([[c, -s], [s, c]], dtype=complex)):
        p = frame @ np.diag([1.0, 0.0]) @ frame.conj().T
        q = frame @ np.diag([0.0, 1.0]) @ frame.conj().T
        h = TimeDepOperator.linear(
            [(np.cos, lambda t: -np.sin(t), p, np.sin), (lambda t: 0.5, lambda t: 0.0, q, lambda t: 0.5 * t)]
        )
        psi0 = frame @ np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        traj = propagate(h, psi0, grid, method="exact_commuting")
        for k, t in enumerate(grid.times):
            expected = frame @ np.array([np.exp(-1j * np.sin(t)), np.exp(-1j * 0.5 * t)]) / np.sqrt(2.0)
            assert np.abs(traj.states[k] - expected).max() < 1e-11


def test_midpoint_vs_exact_self_consistency():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 5.0, 5000)  # dt = 1e-3
    exact = propagate(h, qubit_plus(), grid, method="exact_commuting")
    stepped = propagate(h, qubit_plus(), grid, method="midpoint")
    assert np.abs(exact.states - stepped.states).max() <= 1e-6


def test_exact_commuting_refinement_invariant():
    h = example1_hamiltonian()
    coarse = propagate(h, qubit_plus(), TimeGrid(0.0, 5.0, 100), method="exact_commuting")
    fine = propagate(h, qubit_plus(), TimeGrid(0.0, 5.0, 1000), method="exact_commuting")
    assert np.abs(coarse.states[::1] - fine.states[::10]).max() <= 1e-10


def test_midpoint_second_order_convergence():
    h = example1_hamiltonian()
    errs = []
    for n in (250, 500, 1000):
        grid = TimeGrid(0.0, 5.0, n)
        stepped = propagate(h, qubit_plus(), grid, method="midpoint")
        expected = np.stack([example1_state(t) for t in grid.times])
        errs.append(np.abs(stepped.states - expected).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_midpoint_composition():
    h = example1_hamiltonian()
    full = propagate(h, qubit_plus(), TimeGrid(0.0, 2.0, 400), method="midpoint")
    first = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 200), method="midpoint")
    second = propagate(h, first.states[-1] / np.linalg.norm(first.states[-1]), TimeGrid(1.0, 2.0, 200), method="midpoint")
    assert np.abs(second.states[-1] - full.states[-1]).max() <= 1e-9


def basis_propagators(h, grid, **kwargs):
    """``U(t_k)`` at every grid time: its columns are the trajectories of the basis states."""
    basis = propagate([h] * h.dim, np.eye(h.dim, dtype=complex), grid, **kwargs)
    return np.stack([b.states for b in basis], axis=-1)


def test_basis_state_trajectories_reproduce_the_states():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 3.0, 120)
    for method in ("exact_commuting", "midpoint"):
        traj = propagate(h, qubit_plus(), grid, method=method)
        props = basis_propagators(h, grid, method=method)
        assert props.shape == (121, 2, 2)
        assert np.abs(props @ qubit_plus() - traj.states).max() < 1e-12


def test_propagate_preconditions():
    h = example1_hamiltonian()
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="not normalized"):
        propagate(h, np.array([1.0, 1.0]), grid)
    noncomm = TimeDepOperator.linear([(np.cos, None, pauli("z"), np.sin), (np.sin, None, pauli("x"), np.cos)])
    with pytest.raises(ValueError, match="commuting_family"):
        propagate(noncomm, qubit_plus(), grid, method="exact_commuting")
    with pytest.raises(ValueError, match="method"):
        propagate(h, qubit_plus(), grid, method="rk4")
    with pytest.raises(ValueError, match="t1 > t0"):
        TimeGrid(1.0, 1.0, 5)


def test_exact_commuting_needs_the_primitives():
    # Commuting bases, but one term without a primitive: the operator has none.
    grid = TimeGrid(0.0, 1.0, 10)
    h = TimeDepOperator.linear([(np.cos, None, pauli("z"), np.sin), (np.sin, None, 2.0 * pauli("z"))])
    assert h.commuting_family and h.primitives is None
    with pytest.raises(ValueError, match="primitives .*midpoint"):
        propagate(h, qubit_plus(), grid, method="exact_commuting")
    assert propagate(h, qubit_plus(), grid, method="midpoint").norm_defects.max() < 1e-14


def test_a_degenerate_combination_of_commuting_bases_breaks_down():
    # B_0 = V diag(1, l) V^T and B_1 = V diag(0, 1) V^T commute, but l is
    # chosen so that the combination B_0 + cos(1) |B_0| / |B_1| B_1 that
    # picks the shared eigenbasis is a multiple of the identity.
    c, s = np.cos(0.7), np.sin(0.7)
    frame = np.array([[c, -s], [s, c]])
    b1 = frame @ np.diag([0.0, 1.0]) @ frame.T
    lam = 1.0
    for _ in range(50):
        b0 = frame @ np.diag([1.0, lam]) @ frame.T
        lam = 1.0 - np.cos(1.0) * np.abs(b0).max() / np.abs(b1).max()
    h = TimeDepOperator.linear([(np.cos, None, b0, np.sin), (np.sin, None, b1, lambda t: 1.0 - np.cos(t))])
    assert h.commuting_family
    with pytest.raises(NumericBreakdown, match="not diagonal in the shared eigenbasis .*; use midpoint$"):
        propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 10), method="exact_commuting")


def test_midpoint_chunked_matches_per_step_loop():
    # d = 21 fits 37 steps per chunk, so 100 steps span three chunks.  The
    # batched exponentials must reproduce a per-step loop bit for bit.
    rng = np.random.default_rng(5)
    h0, h1 = random_hermitian(21, rng), random_hermitian(21, rng)
    h = TimeDepOperator.linear([(lambda t: 1.0, None, h0), (lambda t: np.cos(3.0 * t), None, h1)])
    grid = TimeGrid(0.0, 1.5, 100)
    assert len(list(time_chunks(grid.n_steps, 21))) == 3
    psi0 = np.zeros(21, dtype=complex)
    psi0[[0, 7]] = 1.0 / np.sqrt(2.0)
    traj = propagate(h, psi0, grid, method="midpoint", hbar=0.8)
    psi = psi0
    for k, t in enumerate(grid.times[:-1]):
        psi = herm_expm(h.value(t + grid.dt / 2.0), scale=-1j * grid.dt / 0.8) @ psi
        assert np.array_equal(traj.states[k + 1], psi)


def _switched_skew():
    """``sx`` plus a non-Hermitian basis switched on after ``t = 0.5``, built without validation."""
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return TimeDepOperator(
        coeffs=lambda t: np.stack([np.ones_like(t), np.where(t > 0.5, 1.0, 0.0)], axis=1),
        rates=lambda t: np.zeros((len(t), 2)),
        bases=np.stack([pauli("x"), skew]),
    )


def test_midpoint_rejects_non_hermitian_h_at_its_time():
    # The constructor takes its fields as they are: a non-Hermitian basis
    # switched on after t = 0.5 fails at the first midpoint past it.
    grid = TimeGrid(0.0, 1.0, 10)
    h = _switched_skew()
    first_bad = grid.times[5] + grid.dt / 2.0
    with pytest.raises(ValueError, match=f"not Hermitian .* at t = {first_bad}$"):
        propagate(h, qubit_plus(), grid, method="midpoint")


def test_linear_keeps_the_hermitian_part_of_its_bases():
    # A basis 5e-13 off Hermitian passes linear's check; scaled by 100 it
    # would fail herm_expm's 1e-12 check if it were kept as given.
    base = pauli("x").copy()
    base[0, 1] += 5e-13
    h = TimeDepOperator.scaled(lambda t: 100.0, None, base)
    b = h.bases[0]
    assert np.array_equal(b, b.conj().T) and np.abs(b - base).max() < 3e-13
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, 1.0, 10), method="midpoint")
    assert traj.norm_defects.max() <= 1e-12
    assert np.array_equal(TimeDepOperator.stationary(pauli("y")).bases[0], pauli("y"))


def test_richardson_derivative_breaks_down_at_the_time_sampled():
    # The difference reads t + 1e-3 past the jump, but the error names t.
    op = TimeDepOperator.scaled(lambda t: np.where(t > 0.6, np.inf, t), None, pauli("z"))
    with pytest.raises(NumericBreakdown, match=r"at t = 0\.6$"):
        op.sample_deriv(np.array([0.0, 0.3, 0.6, 0.9]))


def test_breakdown_inside_a_coefficient_is_not_retried_per_point():
    # A coefficient that samples another operator (v_A held in the Hermitian
    # basis does) passes its breakdown on, after one call with every time.
    calls = []

    def f(t):
        calls.append(np.shape(t))
        raise NumericBreakdown("inner breakdown at t = 0.25")

    with pytest.raises(NumericBreakdown, match="inner"):
        TimeDepOperator.scaled(f, None, pauli("z")).sample(np.linspace(0.0, 1.0, 5))
    assert calls == [(5,)]


def test_a_coefficient_of_the_wrong_shape_raises():
    # Coefficients take an array of times: one value per time, or a constant.
    times = np.linspace(0.0, 1.0, 5)
    per_term = TimeDepOperator.scaled(lambda t: np.ones((len(t), 2)), None, pauli("z"))
    with pytest.raises(ValueError, match=r"returned shape \(5, 2\) for \(5,\) times"):
        per_term.sample(times)
    stacked = TimeDepOperator(coeffs=np.cos, rates=np.sin, bases=pauli("z")[None])
    with pytest.raises(ValueError, match=r"coefficients of shape \(5,\), expected \(5, 1\)"):
        stacked.sample(times)
    assert np.array_equal(TimeDepOperator.scaled(lambda t: 2.0, None, pauli("z")).sample(times)[:, 0, 0], [2.0] * 5)


def test_midpoint_rejects_non_finite_h_at_its_time():
    grid = TimeGrid(0.0, 1.0, 10)
    h = TimeDepOperator.linear([(lambda t: np.where(t > 0.5, np.inf, 1.0), None, pauli("x"))])
    first_bad = grid.times[5] + grid.dt / 2.0
    with pytest.raises(ValueError, match=f"not a finite real number at t = {first_bad}$"):
        propagate(h, qubit_plus(), grid, method="midpoint")


def test_norm_defects_of_non_finite_states_are_nan():
    # Midpoint phases beyond the float range give NaN states; their defects
    # stay NaN, which a run counts as over its norm budget.  The exact route
    # checks its phase exponent instead and breaks down at its first time.
    huge = TimeDepOperator.stationary(1e200 * pauli("z"))
    grid = TimeGrid(0.0, 1e200, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = propagate(huge, qubit_plus(), grid, method="midpoint")
    assert np.isnan(traj.norm_defects).any()
    message = f"phase exponent inf is not a finite real number at t = {grid.times[1]}"
    with pytest.raises(NumericBreakdown, match=re.escape(message)):
        propagate(huge, qubit_plus(), grid, method="exact_commuting")


def test_time_dep_operator_fd_fallback():
    # A coefficient given without its derivative is differentiated by Richardson.
    op = TimeDepOperator.scaled(np.cos, None, pauli("x"))
    analytic = -np.sin(1.2) * pauli("x")
    assert np.abs(op.dvalue(1.2) - analytic).max() < 1e-12


@pytest.mark.parametrize("method", ["exact_commuting", "midpoint"])
def test_non_real_or_non_finite_coefficient_raises_at_first_time(method):
    grid = TimeGrid(0.0, 1.0, 10)
    first = grid.times[1] if method == "exact_commuting" else grid.times[0] + grid.dt / 2.0
    # exp(1j t) would silently become cos t in a real cast.
    complex_h = TimeDepOperator.scaled(lambda t: np.exp(1j * t), None, pauli("z"), lambda t: -1j * np.exp(1j * t))
    with pytest.raises(ValueError, match=f"not a finite real number at t = {first}$"):
        propagate(complex_h, qubit_plus(), grid, method=method)
    nan_h = TimeDepOperator.scaled(
        lambda t: np.where(t > 0.0, np.nan, 1.0), None, pauli("z"), lambda t: np.where(t > 0.0, np.nan, t)
    )
    with pytest.raises(ValueError, match=f"not a finite real number at t = {first}$"):
        propagate(nan_h, qubit_plus(), grid, method=method)


def test_tabulated_operator_round_trips_samples():
    # A complex d = 3 table: the samples come back bit for bit at the grid
    # times, and the interior derivative is (M_{k+1} - M_{k-1}) / (2 dt).
    rng = np.random.default_rng(3)
    grid = TimeGrid(0.0, 2.0, 20)
    mats = np.stack([random_hermitian(3, rng) for _ in grid.times])
    op = TimeDepOperator.tabulated(grid.times, mats)
    assert len(op.bases) == 9
    assert np.array_equal(op.sample(grid.times), mats)
    assert all(np.array_equal(op.value(t), m) for t, m in zip(grid.times, mats))
    central = (mats[2:] - mats[:-2]) / (2.0 * grid.dt)
    assert np.abs(op.sample_deriv(grid.times[1:-1]) - central).max() <= 1e-12 * np.abs(central).max()
    ends = np.stack([mats[1] - mats[0], mats[-1] - mats[-2]]) / grid.dt
    assert np.abs(op.sample_deriv(grid.times[[0, -1]]) - ends).max() <= 1e-12 * np.abs(ends).max()
    # Halfway between samples: their mean; an all-zero table keeps one term.
    assert np.abs(op.value(grid.times[3] + grid.dt / 2.0) - (mats[3] + mats[4]) / 2.0).max() <= 1e-14
    # The derivative there interpolates the central differences at samples 3
    # and 4; it is not the slope (M_4 - M_3) / dt of the interpolated value.
    between = ((mats[4] - mats[2]) + (mats[5] - mats[3])) / (4.0 * grid.dt)
    assert np.abs(op.dvalue(grid.times[3] + grid.dt / 2.0) - between).max() <= 1e-12 * np.abs(between).max()
    zero = TimeDepOperator.tabulated(grid.times, np.zeros_like(mats))
    assert len(zero.bases) == 1 and not zero.sample(grid.times).any()


# -- applying an operator to states ---------------------------------------------
def _random_linear(rng, dim, count, bases=None):
    """``sum_k (cos(w_k t + p_k) + 0.3 k) B_k`` with analytic derivatives; random dense bases by default."""
    if bases is None:
        bases = [random_hermitian(dim, rng) for _ in range(count)]
    terms = []
    for k, b in enumerate(bases):
        w, p = rng.uniform(0.5, 2.0), rng.uniform(0.0, np.pi)
        terms.append(
            (
                lambda t, w=w, p=p, k=k: np.cos(w * t + p) + 0.3 * k,
                lambda t, w=w, p=p: -w * np.sin(w * t + p),
                b,
                lambda t, w=w, p=p, k=k: np.sin(w * t + p) / w + 0.3 * k * t,
            )
        )
    return TimeDepOperator.linear(terms)


def assert_act_matches_sample(op, times, rng):
    states = np.stack([random_state(op.dim, rng) for _ in times])
    for act, sample in ((op.act, op.sample), (op.act_deriv, op.sample_deriv)):
        expected = np.matmul(sample(times), states[:, :, None])[:, :, 0].T
        # act takes and returns (d, n) blocks, time on the last axis.
        got = act(times, np.ascontiguousarray(states.T))
        assert got.shape == expected.shape
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(got - expected).max() <= 1e-13 * scale, (op.dim, len(op.bases))


@pytest.mark.parametrize("dim", [2, 5, 21])
def test_act_matches_sample_on_random_operators(dim):
    rng = np.random.default_rng(dim)
    times = np.linspace(-1.0, 3.0, 9)
    for count in range(1, dim + 1):
        op = _random_linear(rng, dim, count)
        # Dense bases share entries, and one dense basis owns too many to gather.
        assert op._layout()[1] is None
        assert_act_matches_sample(op, times, rng)


def test_act_matches_sample_on_single_term_gather_and_tabulated_operators():
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 2.0, 13)
    assert_act_matches_sample(example1_hamiltonian(), times, rng)
    # Bases that share no entry: the gather layout, with K <= d.
    bases = hermitian_basis(4)[[0, 5, 9, 14]]
    gathered = _random_linear(rng, 4, 4, bases)
    assert gathered._layout()[1] is not None and gathered.act_rows == 4
    assert_act_matches_sample(gathered, times, rng)
    # A table has more terms than d, so act applies the sampled stack.
    grid = TimeGrid(0.0, 2.0, 20)
    table = TimeDepOperator.tabulated(grid.times, np.stack([random_hermitian(3, rng) for _ in grid.times]))
    assert len(table.bases) == 9 and table.act_rows == 3
    assert_act_matches_sample(table, times + 0.05, rng)


def test_act_matches_sample_on_velocity_and_chain_levels():
    from fluctdyn.fluctuation import higher_order_chain, velocity
    from fluctdyn.scenarios import default_config

    rng = np.random.default_rng(12)
    times = np.linspace(0.1, 4.9, 9)
    # The commutator route (K_a K_h <= d^2) and the Hermitian-basis route.
    a, h = _random_linear(rng, 3, 2), _random_linear(rng, 3, 2)
    assert_act_matches_sample(velocity(a, h, 0.7), times, rng)
    a, h = _random_linear(rng, 3, 3), _random_linear(rng, 3, 4)
    v = velocity(a, h, 0.7)
    assert len(v.bases) == 9
    assert_act_matches_sample(v, times, rng)
    pieces = default_config("example2").build()
    chain = higher_order_chain(pieces.observable, pieces.hamiltonian, 3, pieces.hbar)
    assert [len(op.bases) for op in chain] == [2, 3, 5, 4]
    for op in chain:
        assert_act_matches_sample(op, times, rng)


def test_a_dense_single_basis_is_contracted_and_sparse_bases_gathered():
    # The gather writes each owned entry with a scattered store, several times
    # the cost of a product of the contraction: it is taken only where the
    # owned real entries number fewer than K d^2.
    rng = np.random.default_rng(13)
    dense = TimeDepOperator.stationary(random_hermitian(16, rng))
    real_dense = TimeDepOperator.stationary(random_hermitian(5, rng).real)
    sparse = example1_hamiltonian()
    diagonal = TimeDepOperator.stationary(np.diag(np.arange(21.0)))
    grid = TimeGrid(0.0, 2.0, 20)
    table = TimeDepOperator.tabulated(grid.times, np.stack([random_hermitian(4, rng) for _ in grid.times]))
    assert dense._layout()[1] is None and real_dense._layout()[1] is None
    assert all(op._layout()[1] is not None for op in (sparse, diagonal, table))
    times = np.linspace(0.0, 2.0, 41)
    for op in (dense, real_dense, sparse, diagonal, table):
        assert np.array_equal(op.sample(times), np.stack([op.value(t) for t in times]))
        assert np.array_equal(op.sample_deriv(times), np.stack([op.dvalue(t) for t in times]))


def test_act_names_the_first_non_finite_coefficient():
    grid = TimeGrid(0.0, 1.0, 10)
    states = np.tile(qubit_plus(), (len(grid.times), 1)).T
    bad = lambda t: np.where(t > 0.25, np.nan, 1.0)
    first = grid.times[3]
    # One term (applied term by term) and three terms (more than d = 2: the
    # sampled stack is applied); a bad coefficient and a bad derivative.
    three = [(bad, bad, pauli("z")), (np.cos, None, pauli("x")), (np.sin, None, pauli("y"))]
    for terms in (three[:1], three):
        op = TimeDepOperator.linear(terms)
        for act in (op.act, op.act_deriv):
            with pytest.raises(NumericBreakdown, match=f"coefficient value nan .* at t = {first}$"):
                act(grid.times, states)


def test_exact_commuting_matches_the_closed_form_propagator():
    # H(t) = B_0 + t B_1 + t^2 B_2 with B_k = V diag(l_k) V^dag, so
    # Lambda(t) = l_0 t + l_1 t^2/2 + l_2 t^3/3.
    rng = np.random.default_rng(13)
    vecs = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    lams = rng.normal(size=(3, 4))
    bases = [vecs @ np.diag(lam) @ vecs.conj().T for lam in lams]
    coeffs = [
        (np.ones_like, np.zeros_like, lambda t: t),
        (lambda t: t, np.ones_like, lambda t: t**2 / 2.0),
        (np.square, lambda t: 2.0 * t, lambda t: t**3 / 3.0),
    ]
    h = TimeDepOperator.linear([(c, dc, b, f) for (c, dc, f), b in zip(coeffs, bases)])
    psi0 = random_state(4, rng)
    grid = TimeGrid(0.0, 2.0, 50)
    traj = propagate(h, psi0, grid, method="exact_commuting", hbar=0.8)
    t = grid.times[:, None]
    phases = np.exp((-1j / 0.8) * (lams[0] * t + lams[1] * t**2 / 2.0 + lams[2] * t**3 / 3.0))
    props = np.einsum("ij,kj,lj->kil", vecs, phases, vecs.conj())
    assert np.abs(basis_propagators(h, grid, method="exact_commuting", hbar=0.8) - props).max() <= 1e-14
    assert np.abs(traj.states - props @ psi0).max() <= 1e-14


# -- the closed form in time chunks ---------------------------------------------
def _example3(s):
    """example3's Hamiltonian, initial state and stock grid (4000 steps over one period) at cutoff ``s``."""
    raw = {
        "name": "example3",
        "params": {"alpha": [2.0, 1.0], "z": [0.5, 0.5], "s": s},
        "grid": {"t0": 0.0, "t1": 2.0 * np.pi, "n_steps": 4000},
    }
    cfg = ScenarioConfig.from_dict(raw)
    pieces = cfg.build()
    return pieces.hamiltonian, pieces.psi0, cfg.grid


@pytest.mark.parametrize("case", ["example1", "example3"])
def test_exact_chunks_do_not_change_the_states(monkeypatch, case):
    # Chunks of 1234 times: the 5001 and 4001 grid points span four.  Both
    # Hamiltonians are diagonal, so their shared eigenbasis is exact and no
    # product rounds by the place of a column in its chunk.
    if case == "example1":
        h, psi0, grid = example1_hamiltonian(omega0=2.0), qubit_plus(), TimeGrid(0.0, 10.0, 5000)
    else:
        h, psi0, grid = _example3(20)
    dim, n = h.dim, len(grid.times)
    basis = np.eye(dim)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 16 * dim * n)
    assert len(list(time_chunks(n, dim, 1))) == 1
    whole = propagate(h, psi0, grid, method="exact_commuting")
    whole_basis = propagate([h] * dim, basis, grid, method="exact_commuting")
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 16 * dim * 1234)
    assert len(list(time_chunks(n, dim, 1))) >= 3
    chunked = propagate(h, psi0, grid, method="exact_commuting")
    assert chunked.states.flags.c_contiguous and chunked.states.shape == (n, dim)
    assert np.array_equal(chunked.states, whole.states)
    for traj, alone in zip(propagate([h] * dim, basis, grid, method="exact_commuting"), whole_basis):
        assert np.array_equal(traj.states, alone.states)


def test_a_phase_overflow_after_a_chunk_boundary_names_its_first_time(monkeypatch):
    # Chunks of 7 times; the primitive is 0 up to between times 22 and 23,
    # then its phase exponent, 1e20 (t - t_b) / 1e-300, overflows from t_23 on.
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 16 * 2 * 7)
    grid = TimeGrid(0.0, 1.0, 100)
    switch = grid.times[22] + grid.dt / 2.0
    h = TimeDepOperator.scaled(
        lambda t: np.where(t > switch, 1e20, 0.0),
        lambda t: np.zeros_like(t),
        pauli("z"),
        lambda t: 1e20 * np.maximum(t - switch, 0.0),
    )
    with pytest.raises(NumericBreakdown, match=rf"^phase exponent -?inf is not a finite real number at t = {grid.times[23]}$"):
        propagate(h, qubit_plus(), grid, method="exact_commuting", hbar=1e-300)


def test_exact_propagation_holds_one_chunk_of_temporaries_beside_the_states():
    # example3 at s = 60 over 4000 steps: 3.9 MB of states.  Forming the
    # phases of every time at once held about twice that in temporaries.
    h, psi0, grid = _example3(60)
    propagate(h, psi0, grid, method="exact_commuting")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = propagate(h, psi0, grid, method="exact_commuting")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= traj.states.nbytes + 6 * dynamics.CHUNK_BYTES


# -- propagating a stack of operators -------------------------------------------
def assert_stack_is_per_operator(ops, psi0, grid, **kwargs):
    """``propagate`` of the stack equals one call per operator, bit for bit."""
    trajs = propagate(ops, psi0, grid, **kwargs)
    assert len(trajs) == len(ops)
    for op, psi, traj in zip(ops, psi0, trajs):
        alone = propagate(op, psi, grid, **kwargs)
        assert np.array_equal(traj.states, alone.states)
        assert np.array_equal(traj.norm_defects, alone.norm_defects)
        assert traj.grid == grid


def test_stacked_midpoint_is_per_operator_on_the_sweep_draws():
    # verify's driven qubits: d = 2, 200 steps, stacks of 64 in groups of 20.
    ops, psi0 = next(verify._driven_qubits(np.random.default_rng(verify.DEFAULT_SEED), 200))
    assert len(ops) == verify.STACK_DRAWS
    assert_stack_is_per_operator(ops, psi0, TimeGrid(0.0, 2.0, 200), method="midpoint")


def test_stacked_midpoint_is_per_operator_on_random_operators():
    # d = 5 with K = 1..5 dense terms.
    rng = np.random.default_rng(17)
    ops = [_random_linear(rng, 5, 1 + k % 5) for k in range(10)]
    psi0 = np.stack([random_state(5, rng) for _ in ops])
    assert_stack_is_per_operator(ops, psi0, TimeGrid(0.0, 1.5, 60), method="midpoint", hbar=0.7)


def test_stacked_exact_commuting_is_per_operator():
    rng = np.random.default_rng(19)
    vecs = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    bases = [vecs @ np.diag(lam) @ vecs.conj().T for lam in rng.normal(size=(3, 3))]
    ops = [_random_linear(rng, 3, k, bases[:k]) for k in (1, 2, 3)]
    ops.append(TimeDepOperator.stationary(bases[0]))
    psi0 = np.stack([random_state(3, rng) for _ in ops])
    grid = TimeGrid(0.0, 2.0, 40)
    assert_stack_is_per_operator(ops, psi0, grid, method="exact_commuting")


@pytest.mark.parametrize("matrices", [25, 7], ids=["member_groups", "time_chunks"])
def test_stack_chunks_do_not_change_the_results(monkeypatch, matrices):
    # 25 matrices per stack hold 2 members of 10 steps (groups of 2, 2, 1); 7
    # hold less than one member, which then walks its steps in chunks of 7.
    rng = np.random.default_rng(23)
    ops = [_random_linear(rng, 2, 2) for _ in range(5)]
    psi0 = np.stack([random_state(2, rng) for _ in ops])
    grid = TimeGrid(0.0, 1.0, 10)
    expected = [propagate(op, psi, grid) for op, psi in zip(ops, psi0)]
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", matrices * 16 * 4)
    for traj, alone in zip(propagate(ops, psi0, grid), expected):
        assert np.array_equal(traj.states, alone.states)


@pytest.mark.parametrize("method", ["exact_commuting", "midpoint"])
def test_a_breakdown_in_a_stack_names_its_member_and_first_time(monkeypatch, method):
    # Groups of 2 members: member 3 is the second of the second group.
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 25 * 16 * 4)
    grid = TimeGrid(0.0, 1.0, 10)
    first = grid.times[1] if method == "exact_commuting" else grid.times[0] + grid.dt / 2.0
    ops = [example1_hamiltonian(omega0=1.0 + k) for k in range(5)]
    ops[3] = TimeDepOperator.scaled(
        lambda t: np.where(t > 0.0, np.nan, 1.0), None, pauli("z"), lambda t: np.where(t > 0.0, np.nan, t)
    )
    psi0 = np.tile(qubit_plus(), (5, 1))
    with pytest.raises(NumericBreakdown, match=rf"not a finite real number at t = {first} \(member 3\)$"):
        propagate(ops, psi0, grid, method=method)


def test_a_non_hermitian_member_is_named_at_its_first_time(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 25 * 16 * 4)
    grid = TimeGrid(0.0, 1.0, 10)
    ops = [example1_hamiltonian(omega0=1.0 + k) for k in range(5)]
    ops[3] = _switched_skew()
    first_bad = grid.times[5] + grid.dt / 2.0
    with pytest.raises(ValueError, match=rf"not Hermitian .* at t = {first_bad} \(member 3\)$"):
        propagate(ops, np.tile(qubit_plus(), (5, 1)), grid)


def test_stack_shapes_are_checked():
    grid = TimeGrid(0.0, 1.0, 10)
    h = example1_hamiltonian()
    d3 = TimeDepOperator.stationary(np.eye(3))
    with pytest.raises(ValueError, match="differ in dimension"):
        propagate([h, d3], np.tile(qubit_plus(), (2, 1)), grid)
    with pytest.raises(ValueError, match=r"initial states of shape \(3, 2\) do not match 2 operators"):
        propagate([h, h], np.tile(qubit_plus(), (3, 1)), grid)
    with pytest.raises(ValueError, match=r"initial states of shape \(2,\) do not match 2 operators"):
        propagate([h, h], qubit_plus(), grid)
    with pytest.raises(ValueError, match="dimension mismatch: operator dim 3, state dim 2"):
        propagate([d3, d3], np.tile(qubit_plus(), (2, 1)), grid)
    with pytest.raises(ValueError, match="at least one operator"):
        propagate([], np.zeros((0, 2)), grid)
