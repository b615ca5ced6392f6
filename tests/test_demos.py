"""Each demo script runs to completion on the current API.

The demos call ``default_config``, ``ScenarioConfig.from_dict``,
``run_scenario`` and the report's ``pieces``.  Each runs in its own process
from a temporary directory, so a figure it saves (only where matplotlib is
installed) lands there.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_a_demo_runs_cleanly(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
