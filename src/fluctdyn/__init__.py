"""Unitary dynamics of finite quantum systems with verified rate bounds.

The package simulates pure states under time-dependent Hermitian generators
and checks, per time point, the bounds governing how fast the mean and the
standard deviation of an observable may change:

    |d sigma_A / dt| <= sigma_{v_A}
    (d mu_A / dt)^2 + (d sigma_A / dt)^2 <= <v_A^2>

with ``v_A = dA/dt + (i/hbar)[H, A]``.  Built-in scenarios cover a driven
qubit with tight and loose variants and a truncated-oscillator homodyne
observable, each with analytic overlays and independent geometric oracles.
"""

__version__ = "0.1.0"

from . import bloch, bounds, dynamics, fluctuation, hilbert, linops, scenarios
from .dynamics import TimeDepOperator, TimeGrid, Trajectory, propagate
from .fluctuation import BoundSeries, bound_series
from .scenarios import ScenarioConfig, ScenarioReport, run_scenario

__all__ = [
    "__version__",
    "linops",
    "hilbert",
    "dynamics",
    "fluctuation",
    "bloch",
    "bounds",
    "scenarios",
    "TimeDepOperator",
    "TimeGrid",
    "Trajectory",
    "propagate",
    "BoundSeries",
    "bound_series",
    "ScenarioConfig",
    "ScenarioReport",
    "run_scenario",
]
