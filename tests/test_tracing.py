"""The benchmark tracer still finds every library name it wraps, and a traced cycle still checks.

``perfbench/tracing.py`` patches fluctdyn functions by name and drops the
metrics whose targets are gone; its self-check takes minutes.  The first
guard installs the tracer once: no target may be missing, an operator
built under it must still evaluate, and uninstalling must restore every
binding.  The second runs each bounded workload at the stock seed the way
the benchmark's trace mode does, one plain cycle and then one traced
cycle, and checks both against ``perfbench/reference.json``: a library
change that the tracer's wrappers or its binding check break fails here.
"""

import json
import os

import numpy as np
import pytest

from fluctdyn.dynamics import TimeDepOperator
from fluctdyn.hilbert import pauli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_tracer_wraps_every_target_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        op = TimeDepOperator.stationary(pauli("z"))
        assert np.array_equal(op.value(0.0), pauli("z"))
    finally:
        tracer.uninstall()
    assert tracer.restore_errors == []
    assert tracer.changed_bindings() == []


@pytest.mark.parametrize("workload", ["cli_scenarios", "long_trace", "verify_all"])
def test_a_traced_benchmark_cycle_passes_its_checks(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import worker
    from workloads import STOCK_SEED

    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh).get(workload, {})
    # The order of worker.trace: set-up plain and under the tracer, then a
    # plain cycle and a traced one.
    runner = worker.Runner(workload, ROOT, STOCK_SEED, str(tmp_path), reference)
    plain_state = worker.setup(workload, ROOT, STOCK_SEED)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    traced_state = worker.setup(workload, ROOT, STOCK_SEED)
    tracer.end_op()
    tracer.uninstall()

    plain = runner.check(runner.cycle(plain_state))
    tracer.install()
    tracer.begin_op(1)
    try:
        results = runner.cycle(traced_state)
    finally:
        tracer.end_op()
        tracer.uninstall()
    traced = runner.check(results)

    assert [r["errors"] for r in plain + traced] == [[]] * (len(plain) + len(traced))
    assert tracer.missing == []
    assert tracer.restore_errors == []
    assert tracer.changed_bindings() == []
