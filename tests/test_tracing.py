"""The benchmark tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches fluctdyn functions by name and drops the
metrics whose targets are gone; its self-check takes minutes.  This guard
installs the tracer once: no target may be missing, an operator built under
it must still evaluate, and uninstalling must restore every binding.
"""

import os

import numpy as np

from fluctdyn.dynamics import TimeDepOperator
from fluctdyn.hilbert import pauli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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
