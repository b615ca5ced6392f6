"""Fuzz of the config surface: mutated stock configs through ``fluctdyn run``.

Each case starts from a stock example1-3 config under ``exact_commuting``
or ``midpoint`` on a grid of at most 200 steps, renames, drops or adds a
key at some level, and sets numeric parameters and the grid's ends to
values across the float range.  Run in-process with warnings as errors,
every case must end in exit 0, 2 (config error) or 3 (invariant failure
or numeric breakdown) within its time limit, with no exception and no
warning.
"""

import copy
import json
import os
import tempfile
import time
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fluctdyn.cli import main
from fluctdyn.scenarios import SCENARIOS

NAMES = ("example1", "example2", "example3")
METHODS = ("exact_commuting", "midpoint")
# The numeric parameters each scenario reads; "scale" is a selector's, and
# "t0" and "t1" are the grid's.  The cutoff "s" is left out: a large one
# allocates dense (s+1)^2 operators, so its time is not bounded yet.
NUMERIC = {
    "example1": ("omega0", "nu0", "hbar", "scale", "t0", "t1"),
    "example2": ("omega0", "nu0", "hbar", "scale", "t0", "t1"),
    "example3": ("hbar", "alpha", "z", "mass", "omega", "scale", "t0", "t1"),
}
SELECTOR = {"example1": "a", "example2": "b", "example3": "theta"}
VALUES = (0, 0.0, -1.0, -1e308, 5e-324, 1e-309, 1e308, 0.5, 3)
# Keys an added or renamed entry takes: declared at some level, or at none.
KEYS = ("seed", "methd", "n_steps", "nsteps", "omega0", "b", "fn", "scale", "s", "constant", "tolerances", "x")
EXITS = (0, 2, 3)
CASE_SECONDS = 5.0


def _objects(raw: dict) -> list:
    """Every JSON object of ``raw``: the top level, then the nested ones."""
    out = [raw]
    for value in raw.values():
        if isinstance(value, dict):
            out += _objects(value)
    return out


@st.composite
def configs(draw) -> dict:
    name = draw(st.sampled_from(NAMES))
    raw = {"name": name, "method": draw(st.sampled_from(METHODS)), **copy.deepcopy(SCENARIOS[name].stock)}
    raw["grid"]["n_steps"] = draw(st.integers(1, 200))
    params = raw["params"]
    for key in draw(st.lists(st.sampled_from(NUMERIC[name]), max_size=3)):
        value = draw(st.sampled_from(VALUES))
        if key == "scale":
            params[SELECTOR[name]] = {"fn": draw(st.sampled_from(("t", "t2", "cos", "sin", "const"))), "scale": value}
        elif key in ("t0", "t1"):
            raw["grid"][key] = value
        elif key in ("alpha", "z"):
            params[key] = [value, draw(st.sampled_from(VALUES))]
        else:
            params[key] = value
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from(_objects(raw)))
        action = draw(st.sampled_from(("rename", "drop", "add")))
        if action != "add" and obj:
            key = draw(st.sampled_from(sorted(obj)))
            value = obj.pop(key)
            if action == "rename":
                obj[draw(st.sampled_from(KEYS))] = value
        elif action == "add":
            obj[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(VALUES + ("t", "midpoint")))
    return raw


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs())
def test_a_mutated_config_exits_0_2_or_3(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", path, "--output-dir", os.path.join(tmp, "out")])
        assert time.perf_counter() - start < CASE_SECONDS
    assert code in EXITS
