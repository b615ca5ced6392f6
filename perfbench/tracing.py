"""Spans and counts for the traced pass, recorded from outside the library.

The tracer wraps public fluctdyn functions at their module attributes.
Modules bind functions with ``from .x import y`` and keep tables such as
``verify.SUITES``, so each target is patched at every binding found in the
``fluctdyn`` modules' namespaces and in their module-level dicts, and all
of them are restored by :meth:`Tracer.uninstall`.  A target that no longer
exists is reported as missing and the metrics built on it are omitted.

Span targets record a span (name, start, end, parent, operation id).  Hot
per-point functions get count-only wrappers.  Spans stay in memory until
the run ends.  Threads started inside an operation (the sweep pool) hang
their outermost spans under the span that the operation's own thread has
open at the time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from statistics import median, median_low

SPAN_TARGETS = {
    "fluctdyn.cli:main": "cli.main",
    "fluctdyn.cli:series_csv": "cli.series_csv",
    "fluctdyn.cli:report_json": "cli.report_json",
    "fluctdyn.scenarios:ScenarioConfig.from_dict": "scenarios.from_dict",
    "fluctdyn.scenarios:ScenarioConfig.build": "scenarios.build",
    "fluctdyn.scenarios:run_scenario": "scenarios.run_scenario",
    "fluctdyn.hilbert:displaced_squeezed_vacuum": "hilbert.state_prep",
    "fluctdyn.dynamics:propagate": "dynamics.propagate",  # suffixed with the method
    "fluctdyn.linops:herm_expm": "linops.herm_expm",
    "fluctdyn.fluctuation:bound_series": "fluctuation.bound_series",
    "fluctdyn.bounds:snr_trace": "bounds.snr_trace",
    "fluctdyn.bounds:mt_integral_check": "bounds.mt_integral_check",
    "fluctdyn.bounds:fs_kinematics": "bounds.fs_kinematics",
    "fluctdyn.verify:algebra_suite": "verify.algebra",
    "fluctdyn.verify:bounds_suite": "verify.bounds",
    "fluctdyn.verify:bloch_suite": "verify.bloch",
    "fluctdyn.verify:truncation_suite": "verify.truncation",
    "fluctdyn.bloch:bloch_evolve": "bloch",
    "fluctdyn.bloch:bloch_stats": "bloch",
    "fluctdyn.bloch:geometric_residual": "bloch",
    "fluctdyn.bloch:tightness_span_test": "bloch",
}
COUNT_TARGETS = {
    "fluctdyn.fluctuation:velocity_observable": "velocity_observable",
    "fluctdyn.linops:commutator": "commutator",
    "fluctdyn.dynamics:TimeGrid.times": "grid_times",
    # Wraps each new operator's value/dvalue callables.
    "fluctdyn.dynamics:TimeDepOperator.__init__": "operator_evals",
}
# Argument that carries the grid, for per-point ratios.
POINTS_ARG = {
    "dynamics.propagate": "grid",
    "fluctuation.bound_series": "traj",
    "bounds.snr_trace": "traj",
    "bounds.mt_integral_check": "traj",
    "bounds.fs_kinematics": "traj",
}
BOUNDS_SPANS = ("bounds.snr_trace", "bounds.mt_integral_check", "bounds.fs_kinematics")

# metric: (how, span or count names it is built from)
LAYER_METRICS = {
    "cli.series_csv_s": ("incl", ["cli.series_csv"]),
    "cli.report_json_s": ("incl", ["cli.report_json"]),
    "cli.main_self_s": ("self", ["cli.main"]),
    "scenarios.from_dict_s": ("incl", ["scenarios.from_dict"]),
    "scenarios.build_s": ("incl", ["scenarios.build"]),
    "scenarios.run_scenario_self_s": ("self", ["scenarios.run_scenario"]),
    "hilbert.state_prep_s": ("incl", ["hilbert.state_prep"]),
    "dynamics.propagate_exact_s": ("incl", ["dynamics.propagate_exact"]),
    "dynamics.propagate_midpoint_s": ("incl", ["dynamics.propagate_midpoint"]),
    "dynamics.grid_times_calls": ("count", ["grid_times"]),
    "dynamics.operator_evals_per_point": (
        "count_per_point",
        ["operator_evals", "dynamics.propagate_exact", "dynamics.propagate_midpoint"],
    ),
    "linops.herm_expm_calls": ("calls", ["linops.herm_expm"]),
    "linops.herm_expm_s": ("incl", ["linops.herm_expm"]),
    "linops.commutator_calls": ("count", ["commutator"]),
    "fluctuation.bound_series_s": ("incl", ["fluctuation.bound_series"]),
    "fluctuation.us_per_point": ("us_per_point", ["fluctuation.bound_series"]),
    "fluctuation.velocity_observable_calls": ("count", ["velocity_observable"]),
    "bounds.snr_trace_s": ("incl", ["bounds.snr_trace"]),
    "bounds.mt_integral_check_s": ("incl", ["bounds.mt_integral_check"]),
    "bounds.fs_kinematics_s": ("incl", ["bounds.fs_kinematics"]),
    "bounds.us_per_point": ("us_per_point", list(BOUNDS_SPANS)),
    "verify.algebra_s": ("incl", ["verify.algebra"]),
    "verify.bounds_s": ("incl", ["verify.bounds"]),
    "verify.bloch_s": ("incl", ["verify.bloch"]),
    "verify.truncation_s": ("incl", ["verify.truncation"]),
    "bloch.calls": ("calls", ["bloch"]),
    "bloch.s": ("incl", ["bloch"]),
}
# Metrics that must repeat exactly across traced runs at one seed.
COUNT_METRICS = (
    "dynamics.grid_times_calls",
    "dynamics.operator_evals_per_point",
    "linops.herm_expm_calls",
    "linops.commutator_calls",
    "fluctuation.velocity_observable_calls",
    "bloch.calls",
    "cli.bytes_written",
    "verify.checks_failed",
)


def _resolve(target: str):
    """``(namespaces holding the target, original object)``, or None if gone."""
    module_name, path = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    *owner_path, attr = path.split(".")
    if owner_path:
        owner = getattr(module, owner_path[0], None)
        if owner is None or attr not in vars(owner):
            return None
        return [(owner, attr)], vars(owner)[attr]
    original = vars(module).get(attr)
    if original is None:
        return None
    bindings = []
    for _, mod in _fluctdyn_modules():
        for key, value in vars(mod).items():
            if value is original:
                bindings.append((mod, key))
            elif type(value) is dict:
                bindings += [(value, k) for k, v in value.items() if v is original]
    return bindings, original


def _fluctdyn_modules() -> list:
    return [(n, m) for n, m in list(sys.modules.items()) if n == "fluctdyn" or n.startswith("fluctdyn.")]


def namespace_snapshot() -> dict:
    """Every binding in the fluctdyn modules, their module-level dicts and their classes."""
    snapshot = {}
    for name, module in _fluctdyn_modules():
        for key, value in vars(module).items():
            snapshot[(name, key)] = value
            if type(value) is dict:
                snapshot.update({(name, key, k): v for k, v in value.items()})
            elif isinstance(value, type) and value.__module__ == name:
                snapshot.update({(name, key, "." + k): v for k, v in vars(value).items()})
    return snapshot


def _get(namespace, key):
    return namespace[key] if isinstance(namespace, dict) else vars(namespace)[key]


def _set(namespace, key, value):
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


def _points(grid) -> int:
    return grid.n_steps + 1


class Tracer:
    """Installs wrappers, records spans and counts per operation id."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []  # [op, name, start, end, parent index, grid points]
        self.counts = Counter()  # (op, name) -> calls
        self.op = None
        self._owner_stack = None
        self._patches = []
        self.missing = []
        self.restore_errors = []
        self._snapshot = namespace_snapshot()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        self.op = op
        self._owner_stack = self._stack()

    def end_op(self) -> None:
        self.op = None
        self._owner_stack = None

    def _open(self, name: str, points) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner and owner is not stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([self.op, name, time.perf_counter(), None, parent, points])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    def _count(self, name: str) -> None:
        if self.op is not None:
            with self._lock:
                self.counts[(self.op, name)] += 1

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, fn, name: str):
        signature = inspect.signature(fn)
        points_arg = POINTS_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_name, points = name, None
            if points_arg or name == "dynamics.propagate":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if name == "dynamics.propagate":
                    span_name = f"{name}_{'exact' if bound.arguments['method'] == 'exact_commuting' else 'midpoint'}"
                arg = bound.arguments[points_arg]
                points = _points(arg if points_arg == "grid" else arg.grid)
            index = self._open(span_name, points)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _operator_init_wrapper(self, init, name: str):
        @functools.wraps(init)
        def wrapper(op, *args, **kwargs):
            init(op, *args, **kwargs)
            op.value = self._count_wrapper(op.value, name)
            if op.dvalue is not None:
                op.dvalue = self._count_wrapper(op.dvalue, name)

        return wrapper

    def _wrap(self, original, name: str, counted: bool):
        if isinstance(original, classmethod):
            return classmethod(self._span_wrapper(original.__func__, name))
        if isinstance(original, property) and counted:
            return property(self._count_wrapper(original.fget, name))
        if not inspect.isfunction(original):
            return None
        if name == "operator_evals":
            return self._operator_init_wrapper(original, name)
        return self._count_wrapper(original, name) if counted else self._span_wrapper(original, name)

    def install(self) -> None:
        targets = [(t, n, False) for t, n in SPAN_TARGETS.items()]
        targets += [(t, n, True) for t, n in COUNT_TARGETS.items()]
        self.missing = []
        for target, name, counted in targets:
            resolved = _resolve(target)
            wrapper = resolved and self._wrap(resolved[1], name, counted)
            if not wrapper:
                self.missing.append(target)
                continue
            bindings, original = resolved
            for namespace, key in bindings:
                _set(namespace, key, wrapper)
                self._patches.append((namespace, key, original))

    def uninstall(self) -> None:
        """Restore every patched binding and record any that did not come back."""
        for namespace, key, original in reversed(self._patches):
            _set(namespace, key, original)
        for namespace, key, original in self._patches:
            if _get(namespace, key) is not original:
                self.restore_errors.append(f"{getattr(namespace, '__name__', 'dict')}.{key}")
        self._patches = []

    def changed_bindings(self) -> list:
        """Bindings that differ from the snapshot taken before the first install."""
        now = namespace_snapshot()
        return [".".join(map(str, key)) for key, value in self._snapshot.items() if now.get(key) is not value]

    # -- aggregation -----------------------------------------------------
    def missing_names(self) -> set:
        table = {**SPAN_TARGETS, **COUNT_TARGETS}
        names = {table[t] for t in self.missing}
        if "dynamics.propagate" in names:
            names |= {"dynamics.propagate_exact", "dynamics.propagate_midpoint"}
        return names

    def op_stats(self, op: int) -> dict:
        """Per span name: inclusive and self time, calls and grid points.

        Times are lengths of unions of intervals, so spans that overlap in
        the sweep's threads, or nest under a span of the same name, count
        once.  Self intervals are a span's interval minus its children's.
        """
        indices = [i for i, s in enumerate(self.spans) if s[0] == op]
        children = defaultdict(list)
        for i in indices:
            if self.spans[i][4] is not None:
                children[self.spans[i][4]].append(self.spans[i][2:4])
        spans, self_spans = defaultdict(list), defaultdict(list)
        calls, points = Counter(), Counter()
        for i in indices:
            _, name, start, end, _, npoints = self.spans[i]
            calls[name] += 1
            points[name] += npoints or 0
            spans[name].append((start, end))
            self_spans[name] += _subtract((start, end), _union(children[i]))
        return {
            "incl": Counter({name: _length(_union(v)) for name, v in spans.items()}),
            "self": Counter({name: _length(_union(v)) for name, v in self_spans.items()}),
            "calls": calls,
            "points": points,
            "counts": Counter({name: n for (o, name), n in self.counts.items() if o == op}),
        }

    def layer_metrics(self, setup_op: int, ops: list) -> dict:
        """Per-operation layer metrics: setup value plus the median over ``ops``.

        Ratios (per point) are medians over ``ops`` alone; counts take the
        lower median so that they stay whole numbers.
        """
        missing = self.missing_names()
        setup = self.op_stats(setup_op)
        per_op = [self.op_stats(op) for op in ops]
        out = {}
        for metric, (how, names) in LAYER_METRICS.items():
            if missing & set(names):
                continue
            if how in ("us_per_point", "count_per_point"):
                out[metric] = median(_ratio(how, names, s) for s in per_op)
            else:
                values = [_value(how, names[0], s) for s in per_op]
                mid = median_low(values) if how in ("count", "calls") else median(values)
                out[metric] = _value(how, names[0], setup) + mid
        return out


def _value(how: str, name: str, stats: dict) -> float:
    if how == "count":
        return stats["counts"][name]
    return stats[how][name]


def _ratio(how: str, names: list, stats: dict) -> float:
    if how == "count_per_point":
        points = sum(stats["points"][n] for n in names[1:])
        return stats["counts"][names[0]] / points if points else 0.0
    seconds = sum(stats["incl"][n] for n in names)
    points = sum(stats["points"][n] for n in names)
    return 1e6 * seconds / points if points else 0.0


def _union(intervals: list) -> list:
    """Sorted, disjoint intervals covering the same points as ``intervals``."""
    out = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def _subtract(interval: tuple, holes: list) -> list:
    """``interval`` minus the sorted, disjoint ``holes``."""
    start, end = interval
    out = []
    for hole_start, hole_end in holes:
        if hole_start > start:
            out.append((start, min(hole_start, end)))
        start = max(start, hole_end)
    if end > start:
        out.append((start, end))
    return out


def _length(intervals: list) -> float:
    return sum(end - start for start, end in intervals)
