"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``[ACCEPTANCE nn] name: PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output on failure) and then asserts.

Criterion 03 runs its clauses at two cutoffs.  The inequality, norm-defect
and runtime clauses run on the stock ``s=20`` config, which is deliberately
unconverged: the displaced squeezed vacuum alpha=2+i, z=0.5+0.5i keeps
~1.1e-4 of its probability above n=20, and doubling the cutoff to 40 moves
the channels by 3.96e-2.  The run must report that itself (a
``truncation_tail_mass`` warning).  The truncation-stability clause (every
channel within 1e-8 when the cutoff doubles) therefore runs at s=60 against
s=120, where the state is represented (see the criterion-03 truncation note
of README.md).
"""

import json
import time

import numpy as np
import pytest

from fluctdyn import bloch, bounds, linops
from fluctdyn.bounds import mt_integral_check, snr_trace
from fluctdyn.cli import main as cli_main
from fluctdyn.dynamics import TimeDepOperator, TimeGrid, propagate
from fluctdyn.fluctuation import covariance, higher_order_chain, std_dev, variance
from fluctdyn.hilbert import pauli, qubit_plus, truncated_mean_photon
from fluctdyn.scenarios import (
    ScenarioConfig,
    default_config,
    picture_equivalence_check,
    run_scenario,
    snr_comparison,
)

SEED = 20240617

# Frozen from the analytic overlay (differentiated closed forms) at t = 1;
# the overlay is the authority for this value, so the check enforces
# agreement with it plus strict positivity.
EX2_RESIDUAL_AT_1 = 0.007358260045578824


def report_line(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def ex1():
    start = time.perf_counter()
    rep = run_scenario(default_config("example1"))
    rep.runtime = time.perf_counter() - start
    return rep


@pytest.fixture(scope="module")
def ex2():
    return run_scenario(default_config("example2"))


@pytest.fixture(scope="module")
def ex3():
    start = time.perf_counter()
    rep = run_scenario(default_config("example3"))
    rep.runtime = time.perf_counter() - start
    return rep


def test_criterion_01_tight_bound(ex1):
    s = ex1.series
    nondeg = ~s.degenerate
    worst = float(np.max(np.abs(s.residual_r2[nondeg]) / np.maximum(1.0, s.v2_mean[nondeg])))
    ok = worst <= 1e-6 and ex1.runtime < 5.0
    report_line(1, "tight bound, driven qubit", ok, f"max rel residual {worst:.2e}, runtime {ex1.runtime:.2f}s")
    assert worst <= 1e-6
    assert ex1.runtime < 5.0


def test_criterion_02_loose_bound(ex2):
    s = ex2.series
    floor = float(np.min(s.residual_r2[~s.degenerate]))
    idx = int(np.argmin(np.abs(ex2.times - 1.0)))
    at_one = s.residual_r2[idx]
    idx_pi = int(np.argmin(np.abs(ex2.times - np.pi)))
    t_pi = s.t[idx_pi]
    special = abs(s.residual_r2[idx_pi] - 4.0 * t_pi**2 * np.cos(t_pi) ** 2)
    ok = (
        floor >= -1e-8
        and abs(at_one - EX2_RESIDUAL_AT_1) <= 1e-6
        and at_one > 5e-3
        and special <= 1e-4
    )
    report_line(
        2,
        "loose bound, two-component qubit observable",
        ok,
        f"min residual {floor:.2e}; residual(1)={at_one:.6f} (overlay {EX2_RESIDUAL_AT_1:.6f}); "
        f"special-point gap {special:.2e}",
    )
    assert floor >= -1e-8
    assert abs(at_one - EX2_RESIDUAL_AT_1) <= 1e-6
    assert at_one > 5e-3
    assert special <= 1e-4


def _example3_at(s):
    """The stock example3 state and grid (4000 steps over one period) at cutoff ``s``."""
    raw = {
        "name": "example3",
        "params": {"alpha": [2.0, 1.0], "z": [0.5, 0.5], "s": s},
        "grid": {"t0": 0.0, "t1": 2.0 * np.pi, "n_steps": 4000},
    }
    return run_scenario(ScenarioConfig.from_dict(raw))


def _channel_drift(rep_a, rep_b):
    channels = ("mu", "sigma", "mu_dot", "sigma_dot", "sigma_v", "v2_mean", "residual_r2")
    a, b = rep_a.series, rep_b.series
    return max(float(np.max(np.abs(getattr(a, ch) - getattr(b, ch)))) for ch in channels)


def test_criterion_03_oscillator_inequality(ex3):
    floor = float(np.min(ex3.series.residual_r2[~ex3.series.degenerate]))
    norm_ok = ex3.max_norm_defect <= 1e-9
    runtime_ok = ex3.runtime < 30.0
    # The stock cutoff s=20 leaves ~1.1e-4 of the state above n=20 (s=20->40
    # drift 3.96e-2); the run must flag its own truncation.
    tail_flagged = ex3.tail_mass > 1e-8 and any(
        w.startswith("truncation_tail_mass") for w in ex3.warnings
    )
    # Truncation stability is asserted where the state is represented.
    drift = _channel_drift(_example3_at(60), _example3_at(120))
    stable = drift <= 1e-8
    ok = floor >= -1e-8 and norm_ok and runtime_ok and tail_flagged and stable
    report_line(
        3,
        "oscillator inequality + truncation stability",
        ok,
        f"s=20: min residual {floor:.2e}; max norm defect {ex3.max_norm_defect:.2e}; "
        f"runtime {ex3.runtime:.1f}s; tail mass {ex3.tail_mass:.2e} (flagged: {tail_flagged}); "
        f"s=60->120 channel drift {drift:.2e} (<=1e-8 required)",
    )
    assert floor >= -1e-8
    assert norm_ok
    assert runtime_ok
    assert tail_flagged, (
        f"s=20 run did not report its truncation: tail mass {ex3.tail_mass}, warnings {ex3.warnings}"
    )
    assert stable, (
        f"channel drift {drift:.3e} from s=60 to s=120 exceeds 1e-8 for alpha=2+i, z=0.5+0.5i "
        "(see the criterion-03 truncation note of README.md)"
    )


def test_criterion_04_truncation_number():
    err = abs(5.0 - truncated_mean_photon(5.0, 20))
    ok = 1e-7 <= err <= 1e-5
    report_line(4, "mean-excitation truncation error", ok, f"|5 - mean| = {err:.3e}")
    assert 1e-7 <= err <= 1e-5


def test_criterion_05_cauchy_schwarz_suite():
    rng = np.random.default_rng(SEED)
    cs_viol = 0.0
    dec_worst = 0.0
    cov_viol = 0.0
    for _ in range(1000):
        dim = int(rng.choice([2, 3, 4, 8]))
        a = linops.random_hermitian(dim, rng)
        b = linops.random_hermitian(dim, rng)
        psi = linops.random_state(dim, rng)
        var_a = variance(a, psi)
        var_b = variance(b, psi)
        cov = covariance(a, b, psi)
        cs = var_a * var_b - cov * cov
        cs_viol = min(cs_viol, cs / max(1.0, var_a * var_b))
        cov_viol = max(cov_viol, abs(cov) - np.sqrt(var_a * var_b))
        ev = lambda m: complex(np.vdot(psi, m @ psi))
        da = a - ev(a).real * np.eye(dim)
        db = b - ev(b).real * np.eye(dim)
        lhs = 4.0 * abs(ev(da @ db)) ** 2
        rhs = abs(ev(linops.commutator(da, db))) ** 2 + abs(ev(linops.anticommutator(da, db))) ** 2
        dec_worst = max(dec_worst, abs(lhs - rhs) / max(1.0, lhs))
    ok = cs_viol >= -1e-10 and dec_worst <= 1e-10
    report_line(
        5,
        "covariance Cauchy-Schwarz + magnitude decomposition, 1000 draws",
        ok,
        f"worst scaled CS violation {cs_viol:.2e}; decomposition defect {dec_worst:.2e}",
    )
    assert cs_viol >= -1e-10
    assert dec_worst <= 1e-10
    assert cov_viol <= 1e-10


def test_criterion_06_acceleration_limit(ex1):
    def residual_sweep(h_op, traj):
        worst = -np.inf
        for k, t in enumerate(traj.grid.times):
            psi = traj.states[k]
            h_t = h_op.value(t)
            hd_t = h_op.deriv(t)
            var_h = variance(h_t, psi)
            if var_h <= 1e-18:
                continue
            cov = covariance(h_t, hd_t, psi)
            var_hd = variance(hd_t, psi)
            worst = max(worst, cov * cov / var_h - var_hd)
        return worst

    worst = residual_sweep(ex1.pieces.hamiltonian, ex1.trajectory)

    rng = np.random.default_rng(SEED)
    from fluctdyn.scenarios import _COEFFS, coefficient

    names = sorted(_COEFFS)
    paulis = np.stack([pauli("x"), pauli("y"), pauli("z")])
    for _ in range(200):
        nvec = rng.normal(size=3)
        nvec /= np.linalg.norm(nvec)
        kvec = rng.normal(size=3)
        kvec /= np.linalg.norm(kvec)
        f, fd, _ = coefficient({"fn": str(rng.choice(names)), "scale": float(rng.uniform(0.3, 2.0))})
        g, gd, _ = coefficient({"fn": str(rng.choice(names)), "scale": float(rng.uniform(0.3, 2.0))})
        mat_n = np.tensordot(nvec, paulis, axes=1)
        mat_k = np.tensordot(kvec, paulis, axes=1)
        h_op = TimeDepOperator(
            value=lambda t, f=f, g=g, mn=mat_n, mk=mat_k: f(t) * mn + g(t) * mk,
            dvalue=lambda t, fd=fd, gd=gd, mn=mat_n, mk=mat_k: fd(t) * mn + gd(t) * mk,
            dim=2,
        )
        traj = propagate(h_op, linops.random_state(2, rng), TimeGrid(0.0, 2.0, 150), method="midpoint")
        worst = max(worst, residual_sweep(h_op, traj))
    ok = worst <= 1e-8
    report_line(6, "acceleration limit, driven + 200 random qubits", ok, f"max residual {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_07_bloch_oracle_equivalence():
    worst = 0.0
    for name in ("example1", "example2"):
        rep = run_scenario(default_config(name, n_steps=1000))
        model = rep.pieces.bloch_model
        s = rep.series
        for k, t in enumerate(rep.times):
            st = bloch.bloch_stats(model, float(t))
            worst = max(
                worst,
                abs(st.mean - s.mu[k]),
                abs(st.sigma_sq - s.sigma[k] ** 2),
                abs(st.v_mean - s.mu_dot[k]),
                abs(st.v2_mean - s.v2_mean[k]),
            )
    rep1 = run_scenario(default_config("example1", n_steps=1000))
    members = all(
        bloch.tightness_span_test(rep1.pieces.bloch_model, float(t))[0] for t in rep1.times
    )
    rep2 = run_scenario(default_config("example2", n_steps=1000))
    idx = int(np.argmin(np.abs(rep2.times - 1.0)))
    member_loose, defect_loose = bloch.tightness_span_test(
        rep2.pieces.bloch_model, float(rep2.times[idx])
    )
    ok = worst <= 1e-8 and members and not member_loose
    report_line(
        7,
        "geometric oracle equivalence + span membership",
        ok,
        f"max channel gap {worst:.2e}; member everywhere on tight case: {members}; "
        f"loose case defect at t=1: {defect_loose:.3f}",
    )
    assert worst <= 1e-8
    assert members
    assert not member_loose


def test_criterion_08_mt_bound(ex1, ex2, ex3):
    floors = []
    for rep in (ex1, ex2, ex3):
        _, _, defect = mt_integral_check(rep.pieces.hamiltonian, rep.trajectory, hbar=rep.pieces.hbar)
        floors.append(float(np.min(defect)))
    omega = 1.0
    h = TimeDepOperator.stationary(omega * pauli("z"))
    t_star = np.pi / (2.0 * omega)
    traj = propagate(h, qubit_plus(), TimeGrid(0.0, t_star, 500), method="exact_commuting")
    _, _, defect = mt_integral_check(h, traj)
    floors.append(float(np.min(defect)))
    saturation = abs(float(defect[-1]))
    floor = min(floors)
    ok = floor >= -1e-6 and saturation <= 1e-6
    report_line(
        8,
        "uncertainty-time integral bound",
        ok,
        f"min defect over suite trajectories {floor:.2e}; saturation gap {saturation:.2e}",
    )
    assert floor >= -1e-6
    assert saturation <= 1e-6


def test_criterion_09_snr_floor(ex1, ex2):
    # The floor is analytically saturated on the early stretch, so meeting
    # -1e-8 is a quadrature-resolution question: the trapezoid rule the
    # floor is defined with needs a ~500k-step grid (error ~ dt^2).
    cfg = default_config("example1", n_steps=500_000)
    pieces = cfg.build()
    traj = propagate(pieces.hamiltonian, pieces.psi0, cfg.grid, method=cfg.method, hbar=pieces.hbar)
    trace = snr_trace(pieces.observable, pieces.hamiltonian, traj)
    mask = (trace.times >= 0.1) & trace.mean_valid & np.isfinite(trace.snr)
    gap = float(np.min(trace.snr[mask] - trace.snr_min[mask]))

    comp = snr_comparison(ex1, ex2)
    snr_ratio = comp["snr_ratio"][comp["snr_valid"]]
    v2_ratio = comp["v2_ratio"][comp["v2_valid"]]
    ratios_ok = (
        np.all(snr_ratio >= -1e-12)
        and np.all(snr_ratio <= 1.0 + 1e-12)
        and np.all(v2_ratio >= -1e-12)
        and np.all(v2_ratio <= 1.0 + 1e-12)
    )
    ok = gap >= -1e-8 and ratios_ok
    report_line(
        9,
        "SNR floor + cross-scenario orderings",
        ok,
        f"min snr - snr_min = {gap:.2e} (500k-step grid); ratios in [0,1]: {ratios_ok}",
    )
    assert gap >= -1e-8
    assert ratios_ok


def test_criterion_10_picture_equivalence():
    worst = 0.0
    for name, steps in (("example1", 1000), ("example2", 1000), ("example3", 400)):
        rep = run_scenario(default_config(name, n_steps=steps), store_propagators=True)
        defect = picture_equivalence_check(
            rep.pieces.observable, rep.pieces.hamiltonian, rep.trajectory, hbar=rep.pieces.hbar
        )
        worst = max(worst, defect)
    ok = worst <= 1e-9
    report_line(10, "representation equivalence of <v_A>", ok, f"max defect {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_11_higher_order_chain(ex1):
    a = ex1.pieces.observable
    h = ex1.pieces.hamiltonian
    traj = ex1.trajectory
    chain = higher_order_chain(a, h, 3)
    stride = len(traj.grid.times) // 250
    worst = 0.0
    for k in range(0, len(traj.grid.times), stride):
        t = float(traj.grid.times[k])
        psi = traj.states[k]
        for n in range(3):
            vn = chain[n].value(t)
            vnp = chain[n + 1].value(t)
            sig_n = std_dev(vn, psi)
            if sig_n <= 1e-6:
                continue
            residual = variance(vnp, psi) - (covariance(vn, vnp, psi) / sig_n) ** 2
            worst = min(worst, residual)
    ok = worst >= -1e-6
    report_line(11, "iterated velocity chain, levels 0-2", ok, f"min residual {worst:.2e}")
    assert worst >= -1e-6


def test_criterion_12_determinism(tmp_path):
    configs = {
        "example1": {
            "name": "example1",
            "params": {"omega0": 1.0, "nu0": 1.0, "a": "t"},
            "grid": {"t0": 0.0, "t1": 5.0, "n_steps": 500},
        },
        "example3": {
            "name": "example3",
            "params": {"alpha": [2.0, 1.0], "z": [0.5, 0.5], "s": 20},
            "grid": {"t0": 0.0, "t1": 6.283185307179586, "n_steps": 300},
        },
    }
    identical = True
    for name, raw in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(raw))
        out1 = tmp_path / f"{name}_a"
        out2 = tmp_path / f"{name}_b"
        cli_main(["run", "--config", str(cfg_path), "--output-dir", str(out1)])
        cli_main(["run", "--config", str(cfg_path), "--output-dir", str(out2)])
        for stem in (f"{name}_series.csv", f"{name}_report.json"):
            identical = identical and (out1 / stem).read_bytes() == (out2 / stem).read_bytes()
    report_line(12, "byte-identical repeated runs", identical)
    assert identical
