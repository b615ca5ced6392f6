"""Fixtures shared across test modules."""

import json

import pytest

from fluctdyn import scenarios
from fluctdyn.cli import main


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory):
    """``fluctdyn verify all --output`` at the default seed, run once: ``(exit code, payload)``."""
    out = tmp_path_factory.mktemp("verify") / "verify.json"
    code = main(["verify", "all", "--output", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture
def count_builds(monkeypatch):
    """``count_builds(name)``: a list that collects each config the scenario ``name`` is built for, from then on."""

    def install(name):
        entry = scenarios.SCENARIOS[name]
        builds = []

        def build(cfg):
            builds.append(cfg)
            return entry.build(cfg)

        monkeypatch.setitem(scenarios.SCENARIOS, name, entry._replace(build=build))
        return builds

    return install
