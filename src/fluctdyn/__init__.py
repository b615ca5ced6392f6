"""Unitary dynamics of finite quantum systems with verified rate bounds.

The package simulates pure states under time-dependent Hermitian generators
and checks, per time point, the bounds governing how fast the mean and the
standard deviation of an observable may change:

    |d sigma_A / dt| <= sigma_{v_A}
    (d mu_A / dt)^2 + (d sigma_A / dt)^2 <= <v_A^2>

with ``v_A = dA/dt + (i/hbar)[H, A]``.  Built-in scenarios cover a driven
qubit with tight and loose variants and a truncated-oscillator homodyne
observable, each with analytic overlays and independent geometric oracles.

Submodules and the names in ``__all__`` are imported on first access, so
``import fluctdyn`` itself loads none of them.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("linops", "hilbert", "dynamics", "fluctuation", "bloch", "bounds", "scenarios")
# Names re-exported from the modules, by module.
_EXPORTS = {
    "TimeDepOperator": "dynamics",
    "TimeGrid": "dynamics",
    "Trajectory": "dynamics",
    "propagate": "dynamics",
    "BoundSeries": "fluctuation",
    "bound_series": "fluctuation",
    "ScenarioConfig": "scenarios",
    "ScenarioReport": "scenarios",
    "run_scenario": "scenarios",
}

__all__ = ["__version__", *_MODULES, *_EXPORTS]


def __getattr__(name: str):
    # Modules load on first use (PEP 562), so a command imports only what it runs.
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
