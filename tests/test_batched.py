"""Parity of the grid-batched kernels with a per-point reference.

The reference below evaluates every statistic one grid point at a time
with the plain formulas: ``A psi``, ``np.vdot`` means, centered images
``(A - <A>) psi`` and their inner products, and ``v_A`` from ``dvalue``
plus an explicit commutator.  The batched kernels in ``fluctuation`` and
``bounds`` must agree with it to 1e-12 relative to each channel's scale,
including tabulated operators, Richardson-difference derivatives, chunked
grids and degenerate points.  The algebra suite's covariance sweep, one
stack per dimension, must agree with the same per-draw formulas, and the
bounds suite's stacked driven-qubit sweep with one ``propagate`` call per
draw.
"""

from math import pi

import numpy as np
import pytest

from fluctdyn import dynamics, verify
from fluctdyn.bounds import fs_kinematics, mt_integral_check, snr_trace
from fluctdyn.dynamics import TimeDepOperator, TimeGrid, propagate, time_chunks
from fluctdyn.fluctuation import (
    SIGMA_FLOOR,
    TIGHT_TOL,
    bound_series,
    centered_moments,
    checked_moments,
    inner_re,
    velocity,
    walk_grid,
)
from fluctdyn.hilbert import pauli, qubit_plus
from fluctdyn.linops import NumericBreakdown, random_hermitian, random_state
from fluctdyn.scenarios import ScenarioConfig, default_config
from fluctdyn.verify import STACK_DRAWS, _driven_qubits, _stacked_draws, covariance_sweep

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
REL = 1e-12


# -- per-point reference ---------------------------------------------------
def _centered(a, psi):
    apsi = a @ psi
    mean = complex(np.vdot(psi, apsi))
    assert abs(mean.imag) <= 1e-10 * max(1.0, abs(mean.real))
    return mean.real, apsi - mean.real * psi, apsi


def _velocity(a, h, t, hbar):
    h_t, a_t = h.value(t), a.value(t)
    return a.dvalue(t) + (1j / hbar) * (h_t @ a_t - a_t @ h_t)


def reference_columns(a, h, traj, hbar=1.0):
    """Per-point mu, var, mu_dot, <v^2>, sigma_v^2, cov(A, v), sigma_H, cov(H, dH/dt)."""
    rows = []
    for k, t in enumerate(traj.grid.times):
        psi = traj.states[k]
        mu, da, _ = _centered(np.asarray(a.value(t), dtype=complex), psi)
        mu_dot, dv, vpsi = _centered(_velocity(a, h, t, hbar), psi)
        _, dh, _ = _centered(np.asarray(h.value(t), dtype=complex), psi)
        _, dhd, _ = _centered(np.asarray(h.dvalue(t), dtype=complex), psi)
        rows.append(
            (
                mu,
                np.vdot(da, da).real,
                mu_dot,
                np.vdot(vpsi, vpsi).real,
                np.vdot(dv, dv).real,
                np.vdot(da, dv).real,
                np.linalg.norm(dh),
                np.vdot(dh, dhd).real,
            )
        )
    names = ("mu", "var", "mu_dot", "v2", "sigma_v_sq", "cov", "sigma_h", "cov_h")
    return dict(zip(names, np.array(rows).T))


def _cumtrapz(y, x):
    return np.concatenate(([0.0], np.cumsum((y[1:] + y[:-1]) / 2.0 * np.diff(x))))


def assert_close(batched, reference, what):
    batched = np.asarray(batched, dtype=float)
    reference = np.asarray(reference, dtype=float)
    assert np.array_equal(np.isnan(batched), np.isnan(reference)), what
    ok = np.isfinite(reference)
    scale = max(1.0, float(np.max(np.abs(reference[ok]), initial=0.0)))
    worst = float(np.max(np.abs(batched[ok] - reference[ok]), initial=0.0))
    assert worst <= REL * scale, f"{what}: deviation {worst:.3e} at scale {scale:.3e}"


def check_parity(a, h, traj, hbar=1.0):
    ref = reference_columns(a, h, traj, hbar)
    times = traj.grid.times

    series = bound_series(a, h, traj, hbar=hbar)
    sigma = np.sqrt(ref["var"])
    degenerate = sigma <= SIGMA_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_dot = np.where(degenerate, np.nan, ref["cov"] / sigma)
    residual_r2 = ref["v2"] - ref["mu_dot"] ** 2 - sigma_dot**2
    assert_close(series.t, times, "t")
    assert_close(series.mu, ref["mu"], "mu")
    assert_close(series.sigma, sigma, "sigma")
    assert_close(series.mu_dot, ref["mu_dot"], "mu_dot")
    assert_close(series.sigma_dot, sigma_dot, "sigma_dot")
    assert_close(series.sigma_v, np.sqrt(ref["sigma_v_sq"]), "sigma_v")
    assert_close(series.v2_mean, ref["v2"], "v2_mean")
    assert_close(series.residual_r2, residual_r2, "residual_r2")
    assert_close(series.cs_residual, ref["var"] * ref["sigma_v_sq"] - ref["cov"] ** 2, "cs_residual")
    assert np.array_equal(series.degenerate, degenerate)
    tight = ~degenerate & (residual_r2 <= TIGHT_TOL * np.maximum(1.0, ref["v2"]))
    assert np.array_equal(series.tight, tight)
    assert np.array_equal(series.norm_defect, traj.norm_defects)

    trace = snr_trace(a, h, traj, hbar=hbar)
    integrand = np.sqrt(ref["sigma_v_sq"])
    budget = np.sqrt(ref["var"][0]) + _cumtrapz(integrand, times)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(ref["var"] > 0.0, ref["mu"] ** 2 / np.where(ref["var"] > 0.0, ref["var"], 1.0), np.inf)
        snr_min = np.where(budget > 0.0, ref["mu"] ** 2 / np.where(budget > 0.0, budget, 1.0) ** 2, np.inf)
    assert_close(trace.integrand, integrand, "snr integrand")
    assert_close(trace.snr, snr, "snr")
    assert_close(trace.snr_min, snr_min, "snr_min")
    assert np.array_equal(trace.mean_valid, ref["mu"] != 0.0)

    lhs, _, _ = mt_integral_check(h, traj, hbar=hbar)
    assert_close(lhs, _cumtrapz(ref["sigma_h"] / hbar, times), "mt lhs")

    s, v, accel = fs_kinematics(h, traj, hbar=hbar)
    assert_close(v, 2.0 * ref["sigma_h"] / hbar, "fs speed")
    assert_close(s, _cumtrapz(2.0 * ref["sigma_h"] / hbar, times), "fs length")
    ok = ref["sigma_h"] > 1e-12
    expected = np.full(len(times), np.nan)
    expected[ok] = 2.0 * ref["cov_h"][ok] / (hbar * ref["sigma_h"][ok])
    assert_close(accel, expected, "fs acceleration")
    return series


def _scenario(name, **grid):
    cfg = default_config(name)
    if grid:
        cfg = ScenarioConfig.from_dict(
            {"name": name, "params": cfg.params, "grid": {"t0": cfg.grid.t0, "t1": cfg.grid.t1, **grid}}
        )
    pieces = cfg.build()
    traj = propagate(pieces.hamiltonian, pieces.psi0, cfg.grid, method=cfg.method, hbar=pieces.hbar)
    return pieces, traj


# -- parity ------------------------------------------------------------------
@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_parity_builtin_scenarios(name):
    pieces, traj = _scenario(name)
    assert pieces.observable.bases is not None and pieces.hamiltonian.bases is not None
    check_parity(pieces.observable, pieces.hamiltonian, traj, hbar=pieces.hbar)


def test_parity_degenerate_points():
    # A = t sx vanishes at t = 0 and the state returns to an sx eigenstate
    # whenever the accumulated phase is a multiple of pi: sigma <= floor there.
    pieces, traj = _scenario("example1")
    series = check_parity(pieces.observable, pieces.hamiltonian, traj)
    degenerate = series.degenerate
    assert degenerate.any() and degenerate[0]
    assert np.all(np.isnan(series.sigma_dot[degenerate]) & np.isnan(series.residual_r2[degenerate]))
    assert not series.tight[degenerate].any()


def test_parity_tabulated_custom_operator():
    # A tabulated observable: interpolated samples in the Hermitian matrix
    # basis, differentiated by the central difference of the samples.
    grid = TimeGrid(0.0, 2.0, 40)
    pair = lambda m: [[[z.real, z.imag] for z in row] for row in m]
    samples = [pair(np.cos(t) * SX + np.sin(t) * SY + 0.3 * t * SZ) for t in grid.times]
    raw = {
        "name": "custom",
        "params": {
            "dim": 2,
            "hamiltonian": {"constant": pair(0.8 * SZ)},
            "observable": {"samples": samples},
            "psi0": [[0.6, 0.0], [0.0, 0.8]],
        },
        "grid": {"t0": 0.0, "t1": 2.0, "n_steps": 40},
    }
    cfg = ScenarioConfig.from_dict(raw)
    pieces = cfg.build()
    # The basis E_00, E_11, E_01 + E_10 = sx and i (E_10 - E_01) = sy.
    assert len(pieces.observable.bases) == 4
    traj = propagate(pieces.hamiltonian, pieces.psi0, cfg.grid, method=cfg.method)
    check_parity(pieces.observable, pieces.hamiltonian, traj)


def test_parity_finite_difference_fallback():
    # Coefficients without a given derivative: linear fills each with a
    # Richardson difference, on H (the fs acceleration) and on A.
    h = TimeDepOperator.linear([(np.cos, None, SZ), (lambda t: 0.4, None, SX)])
    a = TimeDepOperator.linear([(lambda t: t + 0.0, None, SX), (lambda t: np.sin(2.0 * t), None, SY)])
    traj = propagate(h, qubit_plus(), TimeGrid(0.2, 1.7, 60), method="midpoint")
    check_parity(a, h, traj)
    t = traj.grid.times
    analytic = SX + (2.0 * np.cos(2.0 * t))[:, None, None] * SY
    assert np.abs(a.sample_deriv(t) - analytic).max() <= 1e-9
    # At A = H this is the acceleration limit's kernel path.
    h_d = TimeDepOperator.linear([(np.cos, lambda t: -np.sin(t), SZ), (lambda t: 0.4 * t, lambda t: 0.4, SX)])
    traj_d = propagate(h_d, qubit_plus(), TimeGrid(0.2, 1.7, 60), method="midpoint")
    check_parity(h_d, h_d, traj_d)


def test_parity_chunked_and_two_point_grids(monkeypatch):
    pieces, traj = _scenario("example2", n_steps=60)
    whole = bound_series(pieces.observable, pieces.hamiltonian, traj)
    # 7 points per 2x2 stack: 61 points is not a multiple of the chunk.
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 7 * 16 * 4)
    chunks = list(time_chunks(61, 2))
    assert len(chunks) == 9 and chunks[-1] == slice(56, 61)
    chunked = check_parity(pieces.observable, pieces.hamiltonian, traj)
    assert_close(chunked.residual_r2, whole.residual_r2, "chunked residual")

    pieces, traj = _scenario("example3", n_steps=1)
    assert len(traj.grid.times) == 2
    assert len(list(time_chunks(2, pieces.observable.dim))) == 2
    check_parity(pieces.observable, pieces.hamiltonian, traj)


def test_term_route_chunks_do_not_change_the_results(monkeypatch):
    # example3 applies A (2 terms) and v_A (4 terms) term by term at d = 21.
    pieces, traj = _scenario("example3", n_steps=60)
    a, h = pieces.observable, pieces.hamiltonian
    assert (a.act_rows, velocity(a, h).act_rows, h.act_rows) == (2, 4, 1)
    whole = bound_series(a, h, traj)
    whole_fs = fs_kinematics(h, traj)
    # 5 points per (len, 4, 21) working set: the last of 13 chunks holds one.
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 5 * 16 * 4 * 21)
    chunks = list(time_chunks(61, 21, 4))
    assert len(chunks) == 13 and chunks[-1] == slice(60, 61)
    chunked = check_parity(a, h, traj)
    for name in ("mu", "sigma", "mu_dot", "sigma_v", "v2_mean", "residual_r2", "cs_residual"):
        assert_close(getattr(chunked, name), getattr(whole, name), f"chunked {name}")
    for got, want, name in zip(fs_kinematics(h, traj), whole_fs, ("length", "speed", "acceleration")):
        assert_close(got, want, f"chunked fs {name}")


def test_time_chunks_cover_the_grid():
    for n, dim in ((1, 2), (50_001, 2), (4001, 21), (4001, 33)):
        chunks = list(time_chunks(n, dim))
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert all(c.stop == d.start for c, d in zip(chunks, chunks[1:]))
        assert all((c.stop - c.start) * 16 * dim * dim <= max(dynamics.CHUNK_BYTES, 16 * dim * dim) for c in chunks)


def test_sample_matches_value_per_point():
    # A terms operator's value(t) is its sample at t, bit for bit, including
    # where two terms add into the same entries.
    pieces, _ = _scenario("example3", n_steps=30)
    overlapping = TimeDepOperator.linear(
        [
            (np.cos, lambda t: -np.sin(t), 0.3 * SX + 0.2 * SZ),
            (lambda t: t * t, lambda t: 2.0 * t, 0.7 * SX - 0.6 * SY + 0.9 * SZ),
        ]
    )
    times = np.linspace(0.0, 5.0, 201)
    for op in (pieces.observable, pieces.hamiltonian, overlapping):
        assert np.array_equal(op.sample(times), np.stack([op.value(t) for t in times]))
        assert np.array_equal(op.sample_deriv(times), np.stack([op.dvalue(t) for t in times]))


# -- the (d, n) block convention -------------------------------------------------
def _block(rng, dim, n):
    """A C-contiguous ``(d, n)`` block of random states, column ``j`` the ``j``-th state."""
    return np.ascontiguousarray(np.stack([random_state(dim, rng) for _ in range(n)], axis=1))


def _dense_operator(rng, dim, count):
    """``sum_k cos(w_k t) B_k`` over ``count`` random dense Hermitian bases."""
    terms = []
    for _ in range(count):
        w = rng.uniform(0.5, 2.0)
        terms.append((lambda t, w=w: np.cos(w * t), lambda t, w=w: -w * np.sin(w * t), random_hermitian(dim, rng)))
    return TimeDepOperator.linear(terms)


@pytest.mark.parametrize("case", ["terms_d2", "terms_d21", "example3_d21", "table_d3"])
@pytest.mark.parametrize("n", [1, 7])
def test_act_on_a_block_is_the_value_applied_column_by_column(case, n):
    # K <= d goes through the (K d, d) stacked bases, K > d through the
    # sampled stack; a block of one column takes BLAS's vector route.
    rng = np.random.default_rng(3)
    if case == "terms_d2":
        op = _dense_operator(rng, 2, 2)
    elif case == "terms_d21":
        op = _dense_operator(rng, 21, 5)
    elif case == "example3_d21":
        pieces, _ = _scenario("example3", n_steps=30)
        op = velocity(pieces.observable, pieces.hamiltonian, pieces.hbar)
    else:
        grid = TimeGrid(0.0, 2.0, 20)
        op = TimeDepOperator.tabulated(grid.times, np.stack([random_hermitian(3, rng) for _ in grid.times]))
    assert (op._layout()[2] is None) == (case == "table_d3")
    times = np.linspace(0.05, 1.95, n)
    states = _block(rng, op.dim, n)
    for act, value in ((op.act, op.value), (op.act_deriv, op.dvalue)):
        got = act(times, states)
        want = np.stack([value(t) @ states[:, j] for j, t in enumerate(times)], axis=1)
        assert got.shape == (op.dim, n)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, float(np.abs(want).max())), case


def test_a_block_of_the_wrong_shape_raises():
    op = _dense_operator(np.random.default_rng(3), 2, 1)
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"states \(5, 2\) do not match 5 times of a dim-2 operator"):
        op.act(times, np.zeros((5, 2), dtype=complex))


@pytest.mark.parametrize("dim", [2, 21])
def test_centered_moments_and_inner_re_match_per_point_vdot(dim):
    rng = np.random.default_rng(dim)
    n = 9
    ops = [random_hermitian(dim, rng) for _ in range(n)]
    states, other = _block(rng, dim, n), _block(rng, dim, n)
    images = np.stack([a @ states[:, j] for j, a in enumerate(ops)], axis=1)
    means, centered = centered_moments(images, states)
    assert means.shape == (n,) and centered.shape == (dim, n)
    for j, a in enumerate(ops):
        mean, want, _ = _centered(a, states[:, j])
        assert abs(means[j] - mean) <= 1e-13 * max(1.0, abs(mean))
        assert np.abs(centered[:, j] - want).max() <= 1e-13 * max(1.0, float(np.abs(want).max()))
    got = inner_re(centered, other)
    want = np.array([np.vdot(centered[:, j], other[:, j]).real for j in range(n)])
    assert_close(got, want, "inner_re")


def test_walk_grid_hands_on_contiguous_time_last_blocks(monkeypatch):
    # Chunks of 4 points of a (11, 3) trajectory: every chunk arrives as a
    # C-contiguous (3, len) block, and a 1-d array as its slice.
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 4 * 16 * 3 * 3)
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 1.0, 11)
    states = np.stack([random_state(3, rng) for _ in times])
    extra = rng.normal(size=len(times))
    seen = []

    def columns(t, psi, x):
        assert psi.shape == (3, len(t)) and psi.flags.c_contiguous
        assert x.shape == t.shape
        seen.append(psi)
        return (psi[1].real + x,)

    (column,) = walk_grid(times, (states, extra), columns, 1, "test columns", 3)
    assert [block.shape[1] for block in seen] == [4, 4, 3]
    assert np.array_equal(np.concatenate(seen, axis=1), states.T)
    assert np.array_equal(column, states[:, 1].real + extra)


# -- the covariance sweep of the algebra suite ---------------------------------
def _draws(seed, n):
    """``n`` draws in the algebra suite's order, grouped into stacks by dimension."""
    rng = np.random.default_rng(seed)
    draws = {}
    for _ in range(n):
        dim = int(rng.choice([2, 3, 4, 8]))
        draw = (random_hermitian(dim, rng), random_hermitian(dim, rng), random_state(dim, rng))
        for stack, x in zip(draws.setdefault(dim, ([], [], [])), draw):
            stack.append(x)
    return {dim: tuple(np.array(x) for x in stacks) for dim, stacks in draws.items()}


def reference_covariance_draw(a, b, psi):
    """``(var_a, var_b, cov, 4|<dA dB>|^2, |<[dA,dB]>|^2 + |<{dA,dB}>|^2)`` of one draw."""
    mu_a, ca, _ = _centered(a, psi)
    mu_b, cb, _ = _centered(b, psi)
    da = a - mu_a * np.eye(len(psi))
    db = b - mu_b * np.eye(len(psi))
    cross = np.vdot(psi, (da @ db) @ psi)
    comm = np.vdot(psi, (da @ db - db @ da) @ psi)
    anti = np.vdot(psi, (da @ db + db @ da) @ psi)
    return (
        np.vdot(ca, ca).real,
        np.vdot(cb, cb).real,
        np.vdot(ca, cb).real,
        4.0 * abs(cross) ** 2,
        abs(comm) ** 2 + abs(anti) ** 2,
    )


def test_stacked_draws_are_the_draws_of_a_per_draw_loop():
    stacks = list(_stacked_draws(np.random.default_rng(5), 300, [2, 3, 4, 8]))
    assert max(len(psi) for _, _, psi in stacks) == STACK_DRAWS
    for dim, expected in _draws(seed=5, n=300).items():
        mine = [s for s in stacks if s[2].shape[1] == dim]
        for got, want in zip(zip(*mine), expected):
            assert np.array_equal(np.concatenate(got), want)


def test_covariance_sweep_matches_per_draw_reference():
    draws = _draws(seed=5, n=50)
    assert sorted(draws) == [2, 3, 4, 8]
    for a, b, psi in draws.values():
        got = covariance_sweep(a, b, psi)
        want = np.array([reference_covariance_draw(*draw) for draw in zip(a, b, psi)]).T
        for name, g, w in zip(("var_a", "var_b", "cov", "lhs", "rhs"), got, want):
            assert g.shape == (len(psi),)
            assert_close(g, w, name)


def test_covariance_details_are_the_extrema_over_the_draws(monkeypatch, verify_all):
    # The detail of verify's covariance_cauchy_schwarz check at the default
    # seed, recomputed from the per-draw formulas on the draws the suite made.
    stacks = []

    def recording(*args):
        for stack in _stacked_draws(*args):
            stacks.append(stack)
            yield stack

    monkeypatch.setattr(verify, "_stacked_draws", recording)
    detail = {r.name: r.detail for r in verify.algebra_suite()}["covariance_cauchy_schwarz"]
    var_a, var_b, cov = np.array([reference_covariance_draw(*draw) for s in stacks for draw in zip(*s)]).T[:3]
    assert len(cov) == 1000
    margin = np.min((var_a * var_b - cov * cov) / np.maximum(1.0, var_a * var_b))
    excess = np.max(np.abs(cov) - np.sqrt(var_a * var_b))
    assert margin > 0.0 and excess < 0.0
    assert detail == f"min scaled var_a var_b - cov^2 {margin:.3e}; max |cov| - sqrt(var_a var_b) {excess:.3e}"
    assert detail in [c["detail"] for c in verify_all[1]["checks"]]


def test_acceleration_detail_is_the_extremum_over_the_draws(monkeypatch, verify_all):
    # The detail of verify's acceleration_limit_random check at the default
    # seed, recomputed with one propagate call per recorded draw.
    stacks = []

    def recording(*args):
        for stack in _driven_qubits(*args):
            stacks.append(stack)
            yield stack

    monkeypatch.setattr(verify, "_driven_qubits", recording)
    detail = {r.name: r.detail for r in verify.bounds_suite()}["acceleration_limit_random"]
    assert [len(ops) for ops, _ in stacks] == [STACK_DRAWS] * 3 + [8]
    grid = TimeGrid(0.0, 2.0, 200)
    worst = -np.inf
    for ops, psi0 in stacks:
        for h, psi in zip(ops, psi0):
            s = bound_series(h, h, propagate(h, psi, grid, method="midpoint"))
            worst = max(worst, float(np.max(-s.residual_r2[~s.degenerate])))
    assert 0.0 < worst <= 1e-8
    assert detail == f"max (d sigma_H)^2 - sigma_Hdot^2 = {worst:.3e}"
    assert detail in [c["detail"] for c in verify_all[1]["checks"]]


def test_a_bad_member_of_a_stack_raises():
    a, b, psi = _draws(seed=5, n=50)[3]
    skewed = a.copy()
    skewed[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"observable is not Hermitian .* at member 3 of the stack$"):
        covariance_sweep(a, skewed, psi)
    stretched = psi.copy()
    stretched[2] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match=r"state is not normalized .* at member 2 of the stack$"):
        checked_moments(a, stretched)
    # Within the tolerances the stacks pass.
    skewed[3, 0, 1] = a[3, 0, 1] + 1e-12
    stretched[2] = psi[2] * (1.0 + 1e-12)
    checked_moments(skewed, stretched)


# -- per-point assertions ------------------------------------------------------
def test_imaginary_mean_assertion_fires_at_first_offending_time():
    # Operators are Hermitian by construction; the kernel still asserts on the
    # images of a crafted stack that is Hermitian at t = 0 only (<psi|A|psi>
    # gains i t).
    times = TimeGrid(0.0, 1.0, 10).times
    stack = SX + 1j * times[:, None, None] * np.eye(2)
    states = np.tile(qubit_plus(), (len(times), 1))
    # The kernel takes (d, n) blocks: column k is the point at times[k].
    images = np.matmul(stack, states[:, :, None])[:, :, 0].T
    states = states.T
    with pytest.raises(NumericBreakdown, match=f"imaginary part .*at t = {times[1]}$"):
        centered_moments(images, states, times)
    with pytest.raises(NumericBreakdown, match="imaginary part"):
        centered_moments(images, states)


def test_time_grid_times_computed_once_and_read_only():
    grid = TimeGrid(0.0, pi, 100)
    assert grid.times is grid.times
    assert np.array_equal(grid.times, np.linspace(0.0, pi, 101))
    with pytest.raises(ValueError):
        grid.times[0] = 1.0
    assert grid == TimeGrid(0.0, pi, 100) and hash(grid) == hash(TimeGrid(0.0, pi, 100))
