"""Fixtures shared across test modules."""

import json

import pytest

from fluctdyn.cli import main


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory):
    """``fluctdyn verify all --output`` at the default seed, run once: ``(exit code, payload)``."""
    out = tmp_path_factory.mktemp("verify") / "verify.json"
    code = main(["verify", "all", "--output", str(out)])
    return code, json.loads(out.read_text())
