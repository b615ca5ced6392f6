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

Each scenario is one entry of ``SCENARIOS``: its builder, the ``params``
keys that builder reads, and its stock ``params`` and ``grid``.  Every
object of a config takes only its declared keys; any other key is a
:class:`ConfigError` at its path.  Runs compare the numeric pipeline with
the closed-form overlays of the mean, the deviation and the squared
velocity, classify each grid point tight or loose, and flag a trajectory
whose largest norm defect exceeds ``norm_budget`` (a non-finite defect
counts as over budget).  Coefficient functions come from a whitelist with
analytic derivatives (a general expression parser is out of scope); a
``custom`` scenario takes constant or tabulated operators instead, the
latter interpolated by :meth:`~fluctdyn.dynamics.TimeDepOperator.tabulated`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bloch
from .dynamics import TimeDepOperator, TimeGrid, Trajectory, propagate
from .fluctuation import SIGMA_FLOOR, TIGHT_TOL, BoundSeries, bound_series, inner_re, velocity, walk_grid
from .hilbert import (
    MAX_RECOMMENDED_CUTOFF,
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
from .linops import HERM_TOL, NumericBreakdown, at_time, hermitian_defect

RESIDUAL_VIOLATION_TOL = 1e-8
DEFAULT_OVERLAY_TOL = 1e-6
NORM_BUDGET = 1e-8
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
        name = _known_keys(spec, ("fn", "scale"), path).get("fn")
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


def _require(cfg: "ScenarioConfig", key: str):
    if key not in cfg.params:
        raise ConfigError(f"params.{key}", f"required for scenario {cfg.name!r}")
    return cfg.params[key]


def _known_keys(obj, keys, path: str, what: str = "key") -> dict:
    """``obj``, checked to be an object whose keys are all among ``keys``.

    The one key check of a config: the first other key is a config error
    at its own path (``path`` is empty at the top level).
    """
    if not isinstance(obj, dict):
        raise ConfigError(path or "<root>", f"must be an object with keys from {tuple(keys)}")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key, f"unknown {what}; expected one of {tuple(keys)}")
    return obj


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

    # Each tolerance a config may set, with the value it takes when unset.
    TOLERANCES = {
        "tight_tol": TIGHT_TOL,
        "sigma_floor": SIGMA_FLOOR,
        "norm_budget": NORM_BUDGET,
        "overlay_tol": DEFAULT_OVERLAY_TOL,
        "residual_tol": RESIDUAL_VIOLATION_TOL,
    }

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        _known_keys(raw, ("name", "params", "grid", "method", "tolerances"), "")
        name = raw.get("name")
        if name not in SCENARIOS:
            raise ConfigError("name", f"expected one of {tuple(SCENARIOS)}, got {name!r}")
        params = _known_keys(raw.get("params", {}), SCENARIOS[name].keys, "params", f"parameter of {name}")
        grid_raw = _known_keys(raw.get("grid"), ("t0", "t1", "n_steps"), "grid")
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
        tolerances = _known_keys(raw.get("tolerances", {}), cls.TOLERANCES, "tolerances", "tolerance")
        for key, value in tolerances.items():
            _positive(value, f"tolerances.{key}")
        cfg = cls(name=name, params=params, grid=grid, method=method, tolerances=dict(tolerances))
        cfg.build()  # validate scenario-specific parameters eagerly
        return cfg

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, self.TOLERANCES[key]))

    def build(self) -> "ScenarioPieces":
        return SCENARIOS[self.name].build(self)


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


def _qubit_pieces(cfg: ScenarioConfig) -> ScenarioPieces:
    with_b = "b" in SCENARIOS[cfg.name].keys  # A = a(t) sx + b(t) sz
    omega0 = _positive(_require(cfg, "omega0"), "params.omega0")
    nu0 = _positive(_require(cfg, "nu0"), "params.nu0")
    hbar = _positive(cfg.params.get("hbar", 1.0), "params.hbar")
    af, afd, a_echo = coefficient(_require(cfg, "a"), "params.a")
    bf, bfd, b_echo = coefficient(_require(cfg, "b"), "params.b") if with_b else (None, None, None)

    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    # The primitive is written as phase writes it, so the propagated phase
    # and the overlays round alike.
    h_op = TimeDepOperator.scaled(
        lambda t: hbar * omega0 * np.cos(nu0 * t),
        lambda t: -hbar * omega0 * nu0 * np.sin(nu0 * t),
        sz,
        lambda t: hbar * (omega0 / nu0) * np.sin(nu0 * t),
    )
    if with_b:
        a_op = TimeDepOperator.linear([(af, afd, sx), (bf, bfd, sz)])
    else:
        a_op = TimeDepOperator.scaled(af, afd, sx)

    def phase(t):
        return 2.0 * (omega0 / nu0) * np.sin(nu0 * t)

    def overlays(times: np.ndarray) -> dict:
        # A numpy omega0 overflows to inf where a Python float raises;
        # run_scenario rejects a channel that is not finite.
        w0 = np.float64(omega0)
        with np.errstate(over="ignore", invalid="ignore"):
            phi = phase(times)
            a_vals = np.asarray(af(times), dtype=float)
            ad_vals = np.asarray(afd(times), dtype=float)
            mu = a_vals * np.cos(phi)
            # (omega0 a)^2, not omega0^2 a^2: omega0^2 alone can overflow.
            v2 = ad_vals**2 + 4.0 * (w0 * a_vals) ** 2 * np.cos(nu0 * times) ** 2
            if with_b:
                b_vals = np.asarray(bf(times), dtype=float)
                bd_vals = np.asarray(bfd(times), dtype=float)
                sigma = np.sqrt(a_vals**2 * np.sin(phi) ** 2 + b_vals**2)
                v2 = v2 + bd_vals**2
            else:
                # The closed form a(t) sin(phi) can go negative; the
                # deviation is its magnitude.
                sigma = np.abs(a_vals * np.sin(phi))
        return {"mu": mu, "sigma": sigma, "v2_mean": v2}

    # Bloch vectors over an array of times, one (n, 3) row per time.
    def a_vec(t):
        phi = phase(t)
        return _rows(np.cos(phi), np.sin(phi), 0.0)

    h_vec = lambda t: _rows(0.0, 0.0, omega0 * np.cos(nu0 * t))
    m_vec = lambda t: _rows(af(t), 0.0, bf(t) if with_b else 0.0)
    md_vec = lambda t: _rows(afd(t), 0.0, bfd(t) if with_b else 0.0)
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


def _oscillator_pieces(cfg: ScenarioConfig) -> ScenarioPieces:
    alpha = _complex_pair(_require(cfg, "alpha"), "params.alpha")
    z = _complex_pair(_require(cfg, "z"), "params.z")
    s = _require(cfg, "s")
    if not _is_int(s) or s < 1:
        raise ConfigError("params.s", f"must be an integer >= 1, got {s!r}")
    hbar = _positive(cfg.params.get("hbar", 1.0), "params.hbar")
    mass = _positive(cfg.params.get("mass", 1.0), "params.mass")
    omega = _positive(cfg.params.get("omega", 1.0), "params.omega")
    thf, thfd, th_echo = coefficient(cfg.params.get("theta", "cos"), "params.theta")

    space = FockSpace(s=s, hbar=hbar, mass=mass, omega=omega)
    # Each number is in range, but together they can take the matrices out of it.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x_op, p_op = quadratures(space)
            h_mat = oscillator_hamiltonian(space)
            psi0 = displaced_squeezed_vacuum(space, SqueezedCoherentParams(alpha=alpha, z=z))
            try:
                needed = recommended_dim(abs(alpha) ** 2, 1e-6)
            except ValueError:  # no cutoff up to MAX_RECOMMENDED_CUTOFF is enough
                needed = None
    except ArithmeticError as exc:
        raise ConfigError("params", f"hbar, mass, omega, alpha and z leave the float range ({exc})") from None
    warnings = []
    if needed is None or s < needed:
        recommended = f"above {MAX_RECOMMENDED_CUTOFF}" if needed is None else needed
        warnings.append(
            f"truncation_below_recommended: s={s} < recommended {recommended} for |alpha|^2={abs(alpha)**2:.3g}"
        )

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
    if hermitian_defect(mat) > HERM_TOL:
        raise ConfigError(path, "matrix is not Hermitian")
    return mat


def _custom_pieces(cfg: ScenarioConfig) -> ScenarioPieces:
    dim = _require(cfg, "dim")
    if not _is_int(dim) or dim < 1:
        raise ConfigError("params.dim", "must be a positive integer")
    hbar = _positive(cfg.params.get("hbar", 1.0), "params.hbar")

    def tabulated(key: str) -> TimeDepOperator:
        raw = _known_keys(_require(cfg, key), ("constant", "samples"), f"params.{key}")
        if len(raw) != 1:
            raise ConfigError(f"params.{key}", "needs exactly one of 'constant' and 'samples'")
        if "constant" in raw:
            mat = _hermitian_from_json(raw["constant"], dim, f"params.{key}.constant")
            return TimeDepOperator.stationary(mat)
        samples = raw["samples"]
        times = cfg.grid.times
        if not isinstance(samples, list) or len(samples) != len(times):
            raise ConfigError(f"params.{key}.samples", f"expected one matrix per grid point ({len(times)})")
        mats = [_hermitian_from_json(m, dim, f"params.{key}.samples[{i}]") for i, m in enumerate(samples)]
        return TimeDepOperator.tabulated(times, np.stack(mats))

    psi_arr = _real_array(_require(cfg, "psi0"), (dim, 2), "params.psi0")
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


class Scenario(NamedTuple):
    """A built-in scenario: its builder, the ``params`` keys it reads, and its stock ``params`` and ``grid``."""

    build: Callable[[ScenarioConfig], ScenarioPieces]
    keys: tuple
    stock: Optional[dict] = None


_QUBIT_KEYS = ("omega0", "nu0", "a", "hbar")
_QUBIT_GRID = {"t0": 0.0, "t1": 5.0, "n_steps": 5000}

# The one table of scenarios: a name is a config's "name", and the keys
# are all that its "params" may hold.
SCENARIOS = {
    "example1": Scenario(
        _qubit_pieces,
        _QUBIT_KEYS,
        {"params": {"omega0": 1.0, "nu0": 1.0, "a": "t"}, "grid": _QUBIT_GRID},
    ),
    "example2": Scenario(
        _qubit_pieces,
        _QUBIT_KEYS + ("b",),
        {"params": {"omega0": 1.0, "nu0": 1.0, "a": "t", "b": "t"}, "grid": _QUBIT_GRID},
    ),
    "example3": Scenario(
        _oscillator_pieces,
        ("alpha", "z", "s", "hbar", "mass", "omega", "theta"),
        {
            "params": dict(alpha=[2.0, 1.0], z=[0.5, 0.5], s=20, omega=1.0, hbar=1.0, mass=1.0, theta="cos"),
            "grid": {"t0": 0.0, "t1": 2.0 * math.pi, "n_steps": 4000},
        },
    ),
    "custom": Scenario(_custom_pieces, ("dim", "hbar", "psi0", "hamiltonian", "observable")),
}


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


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Propagate, evaluate the bound series, and compare with overlays."""
    pieces = cfg.build()
    traj = propagate(pieces.hamiltonian, pieces.psi0, cfg.grid, method=cfg.method, hbar=pieces.hbar)
    series = bound_series(
        pieces.observable,
        pieces.hamiltonian,
        traj,
        hbar=pieces.hbar,
        sigma_floor=cfg.tol("sigma_floor"),
        tight_tol=cfg.tol("tight_tol"),
    )

    flags: list[str] = []
    warnings = list(pieces.warnings)
    overlay_dev: dict = {}
    overlays: dict = {}
    if pieces.overlays is not None:
        overlays = pieces.overlays(series.t)
        overlay_tol = cfg.tol("overlay_tol")
        for channel, analytic in overlays.items():
            bad = ~np.isfinite(analytic)
            if bad.any():
                raise NumericBreakdown(f"overlay {channel} is not finite{at_time(series.t, int(np.argmax(bad)))}")
            dev = float(np.max(np.abs(getattr(series, channel) - analytic)))
            overlay_dev[channel] = dev
            # Verdicts are relative to each channel's own scale (the
            # inequality is homogeneous in A and H), so units cannot fail a run.
            if dev > overlay_tol * max(1.0, float(np.max(np.abs(analytic)))):
                flags.append(f"overlay_deviation:{channel}:{dev:.3e}")

    nondeg = ~series.degenerate
    n_nondeg = int(np.count_nonzero(nondeg))
    residual_tol = cfg.tol("residual_tol")
    min_residual = float(np.min(series.residual_r2[nondeg])) if n_nondeg else float("nan")
    min_cs = float(np.min(series.cs_residual))
    if np.any(series.residual_r2[nondeg] < -residual_tol * np.maximum(1.0, series.v2_mean[nondeg])):
        flags.append(f"bound_violation:residual_r2:{min_residual:.3e}")
    cs_scale = float(np.max(series.sigma**2 * series.sigma_v**2, initial=1.0))
    if min_cs < -residual_tol * cs_scale:
        flags.append(f"bound_violation:cs_residual:{min_cs:.3e}")
    max_norm_defect = float(np.max(traj.norm_defects))
    if not max_norm_defect <= cfg.tol("norm_budget"):
        flags.append(f"norm_budget_exceeded:{max_norm_defect:.3e}")

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
        max_norm_defect=max_norm_defect,
        tail_mass=tail_mass,
        flags=flags,
        warnings=warnings,
        failed=bool(flags),
        pieces=pieces,
    )


def picture_equivalence_check(
    a: TimeDepOperator, h: TimeDepOperator, traj: Trajectory, method: str, hbar: float = 1.0
) -> float:
    """Max defect between the two representations of ``<v_A>``.

    Compares ``<psi(0)| U^dag v U |psi(0)>`` (rotated observable, fixed
    state) with ``<psi(t)| v |psi(t)>`` (rotated state, fixed observable)
    along the trajectory that ``method`` produced.  The columns of ``U(t)``
    are the trajectories of the basis states, from one stacked
    :func:`propagate` call; a defect that is not finite breaks down.
    """
    basis = propagate([h] * h.dim, np.eye(h.dim, dtype=complex), traj.grid, method=method, hbar=hbar)
    psi0 = traj.states[0]
    v_op = velocity(a, h, hbar)

    def defects(t, psi, *columns):
        # The walk hands on (d, len) blocks; u[k] has the evolved basis states as columns.
        u = np.stack(columns, axis=-1).swapaxes(0, 1)
        rotated = np.einsum("i,kij,j->k", psi0.conj(), u.conj().swapaxes(1, 2) @ v_op.sample(t) @ u, psi0).real
        return (np.abs(rotated - inner_re(psi, v_op.act(t, psi))),)

    arrays = [traj.states] + [b.states for b in basis]
    return float(np.max(walk_grid(traj.grid.times, arrays, defects, 1, "picture-equivalence defects", a.dim)[0]))


def default_config(name: str, n_steps: Optional[int] = None) -> ScenarioConfig:
    """The stock parameter set of a built-in scenario, from its entry in ``SCENARIOS``."""
    stock = SCENARIOS[name].stock if name in SCENARIOS else None
    if stock is None:
        raise ValueError(f"no default config for {name!r}")
    raw = {"name": name, **copy.deepcopy(stock)}
    raw["grid"]["n_steps"] = n_steps or raw["grid"]["n_steps"]
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
