"""Executable scenario reproductions with analytic overlays.

Three built-in scenarios exercise the rate bounds end to end:

``example1``
    Qubit with sinusoidally modulated splitting ``H = hbar w0 cos(n0 t) sz``
    and scaled observable ``A = a(t) sx`` from the balanced superposition.
    The bound is an equality at every instant (tight).

``example2``
    Same dynamics, observable ``A = a(t) sx + b(t) sz``; the bound is
    strict at generic times (loose).

``example3``
    Truncated oscillator under ``H = hbar w (N + 1/2)`` with a rotating
    quadrature observable ``cos(theta) x + sin(theta) p``, starting from a
    displaced squeezed vacuum.

Every scenario carries closed-form overlays for the mean, the deviation,
and the squared-velocity channel; runs compare the numeric pipeline to the
overlays and summarize tight/loose classification per grid point.
Coefficient functions come from a whitelisted expression set with analytic
derivatives (a general expression parser is deliberately out of scope); a
``custom`` scenario accepts constant or tabulated operators instead, the
latter interpolated piecewise-linearly by
:meth:`~fluctdyn.dynamics.TimeDepOperator.tabulated`, with central
differences of the samples as derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bloch
from .dynamics import TimeDepOperator, TimeGrid, Trajectory, propagate, time_chunks
from .fluctuation import BoundSeries, bound_series, velocity
from .hilbert import (
    FockSpace,
    SqueezedCoherentParams,
    displaced_squeezed_vacuum,
    fock_tail_mass,
    oscillator_hamiltonian,
    pauli,
    quadratures,
    qubit_plus,
    recommended_dim,
)

RESIDUAL_VIOLATION_TOL = 1e-8
DEFAULT_OVERLAY_TOL = 1e-6
TAIL_MASS_TOL = 1e-8


class ConfigError(ValueError):
    """Configuration problem, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# Whitelisted coefficient expressions (value, derivative).
_COEFFS: dict[str, tuple[Callable, Callable]] = {
    "t": (lambda t: np.asarray(t, dtype=float) + 0.0, lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "t2": (lambda t: np.asarray(t, dtype=float) ** 2, lambda t: 2.0 * np.asarray(t, dtype=float)),
    "cos": (np.cos, lambda t: -np.sin(t)),
    "sin": (np.sin, np.cos),
    "const": (lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda t: np.zeros_like(np.asarray(t, dtype=float))),
}


def coefficient(spec, path: str = "coefficient") -> tuple[Callable, Callable, dict]:
    """Resolve a whitelisted coefficient selector to ``(f, fdot, echo)``.

    ``spec`` is either a bare name from the whitelist or a mapping
    ``{"fn": name, "scale": s}``.
    """
    if isinstance(spec, str):
        name, scale = spec, 1.0
    elif isinstance(spec, dict):
        name = spec.get("fn")
        scale = _real(spec.get("scale", 1.0), f"{path}.scale")
    else:
        raise ConfigError(path, f"expected a selector string or {{'fn', 'scale'}} mapping, got {type(spec).__name__}")
    if name not in _COEFFS:
        raise ConfigError(path, f"unknown coefficient {name!r}; whitelist: {sorted(_COEFFS)}")
    base_f, base_d = _COEFFS[name]
    return (
        lambda t: scale * base_f(t),
        lambda t: scale * base_d(t),
        {"fn": name, "scale": scale},
    )


def _is_number(value) -> bool:
    # JSON true/false arrive as bools, which Python counts as ints.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(params: dict, key: str, scenario: str):
    if key not in params:
        raise ConfigError(f"params.{key}", f"required for scenario {scenario!r}")
    return params[key]


def _real(value, path: str) -> float:
    """The one check for a scalar config number: finite, real, not a bool."""
    try:
        x = float(value) if _is_number(value) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"must be a finite real number, got {value!r}")
    return x


def _real_array(raw, shape: tuple, path: str) -> np.ndarray:
    """``raw`` as a float array of ``shape``; every entry goes through :func:`_real`.

    The error path names the first entry that fails, e.g. ``params.psi0[0][1]``.
    """
    entries = np.asarray(raw, dtype=object)  # ragged nesting gives a shallower shape
    if entries.shape != shape:
        raise ConfigError(path, f"expected a nested list of finite real numbers of shape {shape}")
    arr = np.empty(shape)
    for index, value in np.ndenumerate(entries):
        try:
            arr[index] = _real(value, path)
        except ConfigError:
            # Check again under the entry's path; formatting a path for
            # every entry would double the cost of a large sample table.
            _real(value, path + "".join(f"[{i}]" for i in index))
    return arr


def _positive(value, path: str) -> float:
    x = _real(value, path)
    if not x > 0:
        raise ConfigError(path, f"must be a finite positive number, got {value!r}")
    return x


def _complex_pair(value, path: str) -> complex:
    if _is_number(value):
        return complex(_real(value, path))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0], f"{path}[0]"), _real(value[1], f"{path}[1]"))
    raise ConfigError(path, f"expected a real number or [re, im] pair, got {value!r}")


@dataclass
class ScenarioConfig:
    """Validated scenario description (normally parsed from JSON)."""

    name: str
    params: dict
    grid: TimeGrid
    method: str = "exact_commuting"
    tolerances: dict = field(default_factory=dict)
    seed: int = 20240617

    KNOWN = ("example1", "example2", "example3", "custom")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        name = raw.get("name")
        if name not in cls.KNOWN:
            raise ConfigError("name", f"expected one of {cls.KNOWN}, got {name!r}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params", "must be an object")
        grid_raw = raw.get("grid")
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid", "must be an object with t0, t1, n_steps")
        for key in ("t1", "n_steps"):
            if key not in grid_raw:
                raise ConfigError(f"grid.{key}", "required")
        if not _is_int(grid_raw["n_steps"]):
            raise ConfigError("grid.n_steps", f"must be an integer, got {grid_raw['n_steps']!r}")
        t0 = _real(grid_raw.get("t0", 0.0), "grid.t0")
        t1 = _real(grid_raw["t1"], "grid.t1")
        try:
            grid = TimeGrid(t0=t0, t1=t1, n_steps=grid_raw["n_steps"])
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from None
        method = raw.get("method", "exact_commuting")
        if method not in ("exact_commuting", "midpoint"):
            raise ConfigError("method", f"expected exact_commuting or midpoint, got {method!r}")
        tolerances = raw.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError("tolerances", "must be an object")
        for key, value in tolerances.items():
            _positive(value, f"tolerances.{key}")
        seed = raw.get("seed", 20240617)
        if not _is_int(seed):
            raise ConfigError("seed", "must be an integer")
        cfg = cls(name=name, params=params, grid=grid, method=method, tolerances=dict(tolerances), seed=seed)
        cfg.build()  # validate scenario-specific parameters eagerly
        return cfg

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def build(self) -> "ScenarioPieces":
        if self.name == "example1":
            return _build_example1(self)
        if self.name == "example2":
            return _build_example2(self)
        if self.name == "example3":
            return _build_example3(self)
        return _build_custom(self)


@dataclass
class ScenarioPieces:
    """Operators, initial state, and overlays assembled from a config."""

    observable: TimeDepOperator
    hamiltonian: TimeDepOperator
    psi0: np.ndarray
    hbar: float
    overlays: Optional[Callable[[np.ndarray], dict]] = None
    bloch_model: Optional[bloch.BlochModel] = None
    warnings: list = field(default_factory=list)
    tail_levels: int = 0
    params_echo: dict = field(default_factory=dict)


def _rows(x, y, z) -> np.ndarray:
    """Components broadcast together and stacked as the rows' last axis."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def _qubit_pieces(cfg: ScenarioConfig, with_b: bool) -> ScenarioPieces:
    scenario = cfg.name
    omega0 = _positive(_require(cfg.params, "omega0", scenario), "params.omega0")
    nu0 = _positive(_require(cfg.params, "nu0", scenario), "params.nu0")
    hbar = _positive(cfg.params.get("hbar", 1.0), "params.hbar")
    af, afd, a_echo = coefficient(_require(cfg.params, "a", scenario), "params.a")
    if with_b:
        bf, bfd, b_echo = coefficient(_require(cfg.params, "b", scenario), "params.b")
    else:
        bf = bfd = None
        b_echo = None

    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    h_op = TimeDepOperator.scaled(
        lambda t: hbar * omega0 * np.cos(nu0 * t),
        lambda t: -hbar * omega0 * nu0 * np.sin(nu0 * t),
        sz,
    )
    if with_b:
        a_op = TimeDepOperator.linear([(af, afd, sx), (bf, bfd, sz)])
    else:
        a_op = TimeDepOperator.scaled(af, afd, sx)

    def phase(t):
        return 2.0 * (omega0 / nu0) * np.sin(nu0 * t)

    def overlays(times: np.ndarray) -> dict:
        phi = phase(times)
        a_vals = np.asarray(af(times), dtype=float)
        ad_vals = np.asarray(afd(times), dtype=float)
        mu = a_vals * np.cos(phi)
        v2 = ad_vals**2 + 4.0 * omega0**2 * a_vals**2 * np.cos(nu0 * times) ** 2
        if with_b:
            b_vals = np.asarray(bf(times), dtype=float)
            bd_vals = np.asarray(bfd(times), dtype=float)
            sigma = np.sqrt(a_vals**2 * np.sin(phi) ** 2 + b_vals**2)
            v2 = v2 + bd_vals**2
        else:
            # The closed form a(t) sin(phi) can go negative; the deviation is
            # its magnitude.
            sigma = np.abs(a_vals * np.sin(phi))
        return {"mu": mu, "sigma": sigma, "v2_mean": v2}

    # Bloch vectors over an array of times, one (n, 3) row per time.
    def a_vec(t):
        phi = phase(t)
        return _rows(np.cos(phi), np.sin(phi), 0.0)

    h_vec = lambda t: _rows(0.0, 0.0, omega0 * np.cos(nu0 * t))
    if with_b:
        m_vec = lambda t: _rows(af(t), 0.0, bf(t))
        md_vec = lambda t: _rows(afd(t), 0.0, bfd(t))
    else:
        m_vec = lambda t: _rows(af(t), 0.0, 0.0)
        md_vec = lambda t: _rows(afd(t), 0.0, 0.0)
    model = bloch.BlochModel(a=a_vec, h=h_vec, m=m_vec, m_dot=md_vec)

    echo = {"omega0": omega0, "nu0": nu0, "hbar": hbar, "a": a_echo}
    if with_b:
        echo["b"] = b_echo
    return ScenarioPieces(
        observable=a_op,
        hamiltonian=h_op,
        psi0=qubit_plus(),
        hbar=hbar,
        overlays=overlays,
        bloch_model=model,
        params_echo=echo,
    )


def _build_example1(cfg: ScenarioConfig) -> ScenarioPieces:
    return _qubit_pieces(cfg, with_b=False)


def _build_example2(cfg: ScenarioConfig) -> ScenarioPieces:
    return _qubit_pieces(cfg, with_b=True)


def _build_example3(cfg: ScenarioConfig) -> ScenarioPieces:
    alpha = _complex_pair(_require(cfg.params, "alpha", "example3"), "params.alpha")
    z = _complex_pair(_require(cfg.params, "z", "example3"), "params.z")
    s = _require(cfg.params, "s", "example3")
    if not _is_int(s) or s < 1:
        raise ConfigError("params.s", f"must be an integer >= 1, got {s!r}")
    hbar = _positive(cfg.params.get("hbar", 1.0), "params.hbar")
    mass = _positive(cfg.params.get("mass", 1.0), "params.mass")
    omega = _positive(cfg.params.get("omega", 1.0), "params.omega")
    thf, thfd, th_echo = coefficient(cfg.params.get("theta", "cos"), "params.theta")

    warnings = []
    needed = recommended_dim(abs(alpha) ** 2, 1e-6)
    if s < needed and not cfg.params.get("allow_small_s", False):
        warnings.append(
            f"truncation_below_recommended: s={s} < recommended {needed} for |alpha|^2={abs(alpha)**2:.3g}"
        )

    space = FockSpace(s=s, hbar=hbar, mass=mass, omega=omega)
    x_op, p_op = quadratures(space)
    h_mat = oscillator_hamiltonian(space)
    psi0 = displaced_squeezed_vacuum(space, SqueezedCoherentParams(alpha=alpha, z=z))

    a_op = TimeDepOperator.linear(
        [
            (lambda t: np.cos(thf(t)), lambda t: -np.sin(thf(t)) * thfd(t), x_op),
            (lambda t: np.sin(thf(t)), lambda t: np.cos(thf(t)) * thfd(t), p_op),
        ]
    )
    h_op = TimeDepOperator.stationary(h_mat)

    echo = {
        "alpha": [alpha.real, alpha.imag],
        "z": [z.real, z.imag],
        "s": s,
        "hbar": hbar,
        "mass": mass,
        "omega": omega,
        "theta": th_echo,
    }
    return ScenarioPieces(
        observable=a_op,
        hamiltonian=h_op,
        psi0=psi0,
        hbar=hbar,
        overlays=None,
        warnings=warnings,
        tail_levels=2,
        params_echo=echo,
    )


def _hermitian_from_json(raw, dim: int, path: str) -> np.ndarray:
    arr = _real_array(raw, (dim, dim, 2), path)
    mat = arr[..., 0] + 1j * arr[..., 1]
    if np.abs(mat - mat.conj().T).max() > 1e-12:
        raise ConfigError(path, "matrix is not Hermitian")
    return mat


def _build_custom(cfg: ScenarioConfig) -> ScenarioPieces:
    dim = _require(cfg.params, "dim", "custom")
    if not _is_int(dim) or dim < 1:
        raise ConfigError("params.dim", "must be a positive integer")
    hbar = _positive(cfg.params.get("hbar", 1.0), "params.hbar")

    def tabulated(key: str) -> TimeDepOperator:
        raw = _require(cfg.params, key, "custom")
        if not isinstance(raw, dict):
            raise ConfigError(f"params.{key}", "expected an object with 'constant' or 'samples'")
        if "constant" in raw:
            mat = _hermitian_from_json(raw["constant"], dim, f"params.{key}.constant")
            return TimeDepOperator.stationary(mat)
        if "samples" not in raw:
            raise ConfigError(f"params.{key}", "needs either 'constant' or 'samples'")
        samples = raw["samples"]
        times = cfg.grid.times
        if not isinstance(samples, list) or len(samples) != len(times):
            raise ConfigError(
                f"params.{key}.samples",
                f"expected one matrix per grid point ({len(times)})",
            )
        mats = np.stack(
            [
                _hermitian_from_json(s, dim, f"params.{key}.samples[{i}]")
                for i, s in enumerate(samples)
            ]
        )
        return TimeDepOperator.tabulated(times, mats)

    psi_arr = _real_array(_require(cfg.params, "psi0", "custom"), (dim, 2), "params.psi0")
    psi0 = psi_arr[:, 0] + 1j * psi_arr[:, 1]
    nrm = np.linalg.norm(psi0)
    if nrm == 0:
        raise ConfigError("params.psi0", "state has zero norm")
    psi0 = psi0 / nrm

    h_op = tabulated("hamiltonian")
    a_op = tabulated("observable")
    # A rule on the config, not on commuting_family: a diagonal table commutes.
    if cfg.method == "exact_commuting" and "constant" not in cfg.params["hamiltonian"]:
        raise ConfigError("method", "tabulated custom Hamiltonians require method=midpoint")
    return ScenarioPieces(
        observable=a_op,
        hamiltonian=h_op,
        psi0=psi0,
        hbar=hbar,
        params_echo={"dim": dim, "hbar": hbar},
    )


@dataclass
class ScenarioReport:
    """Outcome of one scenario run: the bound series plus the summary."""

    config: ScenarioConfig
    series: BoundSeries
    trajectory: Trajectory
    overlays: dict
    overlay_dev: dict
    tight_fraction: float
    min_residual: float
    min_cs_residual: float
    max_norm_defect: float
    tail_mass: Optional[float]
    flags: list[str]
    warnings: list[str]
    failed: bool
    pieces: ScenarioPieces


def run_scenario(cfg: ScenarioConfig, store_propagators: bool = False) -> ScenarioReport:
    """Propagate, evaluate the bound series, and compare with overlays."""
    pieces = cfg.build()
    norm_budget = cfg.tol("norm_budget", 1e-8)
    traj = propagate(
        pieces.hamiltonian,
        pieces.psi0,
        cfg.grid,
        method=cfg.method,
        hbar=pieces.hbar,
        store_propagators=store_propagators,
        norm_budget=norm_budget,
    )
    series = bound_series(
        pieces.observable,
        pieces.hamiltonian,
        traj,
        hbar=pieces.hbar,
        sigma_floor=cfg.tol("sigma_floor", 1e-9),
        tight_tol=cfg.tol("tight_tol", 1e-6),
    )

    flags: list[str] = []
    warnings = list(pieces.warnings)
    overlay_dev: dict = {}
    overlays: dict = {}
    if pieces.overlays is not None:
        overlays = pieces.overlays(series.t)
        overlay_tol = cfg.tol("overlay_tol", DEFAULT_OVERLAY_TOL)
        for channel, analytic in overlays.items():
            dev = float(np.max(np.abs(getattr(series, channel) - analytic)))
            overlay_dev[channel] = dev
            # Verdicts are relative to each channel's own scale (the
            # inequality is homogeneous in A and H), so units cannot fail a run.
            if dev > overlay_tol * max(1.0, float(np.max(np.abs(analytic)))):
                flags.append(f"overlay_deviation:{channel}:{dev:.3e}")

    nondeg = ~series.degenerate
    n_nondeg = int(np.count_nonzero(nondeg))
    residual_tol = cfg.tol("residual_tol", RESIDUAL_VIOLATION_TOL)
    min_residual = float(np.min(series.residual_r2[nondeg])) if n_nondeg else float("nan")
    min_cs = float(np.min(series.cs_residual))
    if np.any(series.residual_r2[nondeg] < -residual_tol * np.maximum(1.0, series.v2_mean[nondeg])):
        flags.append(f"bound_violation:residual_r2:{min_residual:.3e}")
    cs_scale = float(np.max(series.sigma**2 * series.sigma_v**2, initial=1.0))
    if min_cs < -residual_tol * cs_scale:
        flags.append(f"bound_violation:cs_residual:{min_cs:.3e}")
    if traj.flagged:
        flags.append(f"norm_budget_exceeded:{float(np.max(traj.norm_defects)):.3e}")

    tail_mass = None
    if pieces.tail_levels:
        tail_mass = float(np.max(fock_tail_mass(traj.states, pieces.tail_levels)))
        if tail_mass > TAIL_MASS_TOL:
            # With the mandated default cutoffs this is the expected regime
            # for squeezed inputs; recorded as a warning, not a failure.
            warnings.append(f"truncation_tail_mass:{tail_mass:.3e}")

    tight_fraction = int(np.count_nonzero(series.tight)) / n_nondeg if n_nondeg else 0.0
    return ScenarioReport(
        config=cfg,
        series=series,
        trajectory=traj,
        overlays=overlays,
        overlay_dev=overlay_dev,
        tight_fraction=tight_fraction,
        min_residual=min_residual,
        min_cs_residual=min_cs,
        max_norm_defect=float(np.max(traj.norm_defects)),
        tail_mass=tail_mass,
        flags=flags,
        warnings=warnings,
        failed=bool(flags),
        pieces=pieces,
    )


def picture_equivalence_check(
    a: TimeDepOperator, h: TimeDepOperator, traj: Trajectory, hbar: float = 1.0
) -> float:
    """Max defect between the two representations of ``<v_A>``.

    Compares ``<psi(0)| U^dag v U |psi(0)>`` (rotated observable, fixed
    state) with ``<psi(t)| v |psi(t)>`` (rotated state, fixed observable)
    along the trajectory; requires the trajectory to carry its cumulative
    propagators.
    """
    if traj.propagators is None:
        raise ValueError("trajectory lacks stored propagators; propagate(store_propagators=True)")
    times = traj.grid.times
    psi0 = traj.states[0]
    v_op = velocity(a, h, hbar)
    worst = 0.0
    for chunk in time_chunks(len(times), a.dim):
        v, u, psi = v_op.sample(times[chunk]), traj.propagators[chunk], traj.states[chunk]
        rotated = np.einsum("i,kij,j->k", psi0.conj(), u.conj().swapaxes(1, 2) @ v @ u, psi0).real
        direct = np.einsum("ki,kij,kj->k", psi.conj(), v, psi).real
        worst = max(worst, float(np.max(np.abs(rotated - direct))))
    return worst


def default_config(name: str, n_steps: Optional[int] = None) -> ScenarioConfig:
    """The stock parameter set for each built-in scenario."""
    if name == "example1":
        raw = {
            "name": "example1",
            "params": {"omega0": 1.0, "nu0": 1.0, "a": "t"},
            "grid": {"t0": 0.0, "t1": 5.0, "n_steps": n_steps or 5000},
        }
    elif name == "example2":
        raw = {
            "name": "example2",
            "params": {"omega0": 1.0, "nu0": 1.0, "a": "t", "b": "t"},
            "grid": {"t0": 0.0, "t1": 5.0, "n_steps": n_steps or 5000},
        }
    elif name == "example3":
        raw = {
            "name": "example3",
            "params": {
                "alpha": [2.0, 1.0],
                "z": [0.5, 0.5],
                "s": 20,
                "omega": 1.0,
                "hbar": 1.0,
                "mass": 1.0,
                "theta": "cos",
            },
            "grid": {"t0": 0.0, "t1": 2.0 * math.pi, "n_steps": n_steps or 4000},
        }
    else:
        raise ValueError(f"no default config for {name!r}")
    return ScenarioConfig.from_dict(raw)


def snr_comparison(
    report_a: ScenarioReport, report_b: ScenarioReport
) -> dict:
    """Joint signal-quality comparison of two runs on a shared grid.

    Returns the pointwise ratio of SNRs (second over first) and of the
    squared-velocity means (first over second) with validity masks; for the
    stock qubit pair both ratios stay inside [0, 1].
    """
    times = report_a.series.t
    if len(times) != len(report_b.series.t) or not np.allclose(times, report_b.series.t):
        raise ValueError("reports must share a time grid")
    mu_a, mu_b = report_a.series.mu, report_b.series.mu
    var_a, var_b = report_a.series.sigma**2, report_b.series.sigma**2
    v2_a, v2_b = report_a.series.v2_mean, report_b.series.v2_mean

    snr_valid = (mu_a != 0) & (mu_b != 0) & (var_a > 0) & (var_b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr_a = np.where(snr_valid, mu_a**2 / np.where(var_a > 0, var_a, 1.0), np.nan)
        snr_b = np.where(snr_valid, mu_b**2 / np.where(var_b > 0, var_b, 1.0), np.nan)
        snr_ratio = np.where(snr_valid & (snr_a > 0), snr_b / np.where(snr_a > 0, snr_a, 1.0), np.nan)
        v2_valid = v2_b > 0
        v2_ratio = np.where(v2_valid, v2_a / np.where(v2_valid, v2_b, 1.0), np.nan)
    return {
        "times": times,
        "snr_ratio": snr_ratio,
        "snr_valid": snr_valid & (snr_a > 0),
        "v2_ratio": v2_ratio,
        "v2_valid": v2_valid,
    }
