"""Child process of the benchmark: runs fluctdyn in-process.

Library workloads run here so that their peak memory is the child's own,
and every traced run happens here.  The parent passes the checkout root,
the workload and seed, and a path for the JSON result.

Modes:
  env                 print the environment record
  setup               import fluctdyn, parse and build, report the time
  run                 setup, then operations until --seconds have passed
  trace               like run, alternating untraced and traced cycles
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import sys
import time
import traceback
from statistics import median, median_low

import checks
import workloads
from workloads import CLI_WORKLOADS


def env_info() -> dict:
    """Interpreter, numpy and BLAS as loaded in a fresh child."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# -- operations ----------------------------------------------------------
def setup(workload: str, root: str, seed: int):
    """Config parse and build; returns what the operations need."""
    from fluctdyn.scenarios import ScenarioConfig

    if workload == "oscillator_midpoint":
        # from_dict validates by building once, which prepares the state.
        return ScenarioConfig.from_dict(workloads.oscillator_config(root, seed))
    if workload == "long_trace":
        cfg = ScenarioConfig.from_dict(workloads.long_trace_config(root, seed))
        return cfg, cfg.build()
    return None


def library_op(workload: str, state):
    from fluctdyn.bounds import fs_kinematics, mt_integral_check, snr_trace
    from fluctdyn.dynamics import propagate
    from fluctdyn.scenarios import run_scenario

    if workload == "oscillator_midpoint":
        return run_scenario(state)
    cfg, pieces = state
    traj = propagate(pieces.hamiltonian, pieces.psi0, cfg.grid, method=cfg.method, hbar=pieces.hbar)
    snr = snr_trace(pieces.observable, pieces.hamiltonian, traj, hbar=pieces.hbar)
    mt = mt_integral_check(pieces.hamiltonian, traj, hbar=pieces.hbar)
    fs = fs_kinematics(pieces.hamiltonian, traj, hbar=pieces.hbar)
    return traj, snr, mt, fs


def summarize_library(workload: str, output) -> dict:
    if workload == "oscillator_midpoint":
        from fluctdyn.cli import report_json, series_csv

        return checks.summarize_run(series_csv(output), report_json(output))
    import numpy as np

    traj, snr, (mt_lhs, mt_rhs, mt_defect), (fs_length, fs_speed, fs_accel) = output
    mask = (snr.times >= 0.1) & snr.mean_valid & np.isfinite(snr.snr)
    return {
        "n_points": int(traj.states.shape[0]),
        "max_norm_defect": float(np.max(traj.norm_defects)),
        "snr_gap_min": float(np.min(snr.snr[mask] - snr.snr_min[mask])),
        "snr_min_end": float(snr.snr_min[-1]),
        "mt_lhs_end": float(mt_lhs[-1]),
        "mt_rhs_end": float(mt_rhs[-1]),
        "mt_defect_min": float(np.min(mt_defect)),
        "fs_length_end": float(fs_length[-1]),
        "fs_speed_max": float(np.max(fs_speed)),
        "fs_accel_absmax": float(np.nanmax(np.abs(fs_accel))),
    }


def check_library(workload: str, summary: dict, points: int, seed: int, reference: dict) -> list:
    ref = reference.get("op") if seed == workloads.STOCK_SEED else None
    if workload == "oscillator_midpoint":
        return checks.check_run(summary, ref, points, False, workload)
    return checks.check_long_trace(summary, ref, points)


def library_points(workload: str, root: str, seed: int) -> int:
    if workload == "oscillator_midpoint":
        return workloads.points(workloads.oscillator_config(root, seed))
    return workloads.points(workloads.long_trace_config(root, seed))


def _bytes_in(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


class Runner:
    """One cycle of operations, in-process, with outputs checked afterwards."""

    def __init__(self, workload: str, root: str, seed: int, workdir: str, reference: dict):
        self.workload, self.seed = workload, seed
        self.reference = reference
        self.cli_ops = self.points = None
        if workload in CLI_WORKLOADS:
            self.cli_ops = workloads.cli_cycle(workload, root, seed, workdir)
        else:
            self.points = library_points(workload, root, seed)

    def cycle(self, state) -> list:
        """Run one cycle; returns ``(seconds, output)`` per operation."""
        if self.cli_ops is None:
            t0 = time.perf_counter()
            out = library_op(self.workload, state)
            return [(time.perf_counter() - t0, out)]
        from fluctdyn.cli import main

        results = []
        for op in self.cli_ops:
            shutil.rmtree(op.outdir, ignore_errors=True)
            os.makedirs(op.outdir)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    rc = main(op.argv)
                except Exception:
                    rc = traceback.format_exc(limit=3)
                seconds = time.perf_counter() - t0
            results.append((seconds, rc))
        return results

    def check(self, results) -> list:
        """Per operation: ``{"seconds", "work", "errors", ...}``."""
        records = []
        if self.cli_ops is None:
            for seconds, output in results:
                summary = summarize_library(self.workload, output)
                errors = check_library(self.workload, summary, self.points, self.seed, self.reference)
                records.append({"seconds": seconds, "work": self.points, "errors": errors, "summary": summary})
            return records
        for op, (seconds, rc) in zip(self.cli_ops, results):
            if not isinstance(rc, int):
                work, errors, summary = 0, [f"{op.key}: {rc}"], None
            else:
                work, errors, summary = checks.check_cli_op(op, rc, self.seed, self.reference)
            records.append(
                {
                    "seconds": seconds,
                    "work": work,
                    "errors": errors,
                    "key": op.key,
                    "summary": summary,
                    "bytes": _bytes_in(op.outdir),
                }
            )
        return records


def _p50(records: list) -> float:
    return median(r["seconds"] for r in records)


def run(args, reference: dict) -> dict:
    t0 = time.perf_counter()
    import fluctdyn  # noqa: F401  (the import is part of set-up)

    state = setup(args.workload, args.root, args.seed)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    runner = Runner(args.workload, args.root, args.seed, args.workdir, reference)
    records, cycles = [], []
    start = time.perf_counter()
    while workloads.more_cycles(time.perf_counter() - start, cycles, args.seconds):
        t0 = time.perf_counter()
        records += [dict(r, cycle=len(cycles)) for r in runner.check(runner.cycle(state))]
        cycles.append(time.perf_counter() - t0)
    return {"setup_s": setup_s, "ops": records}


def trace(args, reference: dict) -> dict:
    from tracing import Tracer

    t0 = time.perf_counter()
    import fluctdyn.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    runner = Runner(args.workload, args.root, args.seed, args.workdir, reference)
    plain_state = setup(args.workload, args.root, args.seed)
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    traced_state = setup(args.workload, args.root, args.seed)
    tracer.end_op()
    tracer.uninstall()

    plain, traced, cycles, pairs = [], [], [], []
    start = time.perf_counter()
    while workloads.more_cycles(time.perf_counter() - start, pairs, args.seconds):
        t0 = time.perf_counter()
        plain.append(runner.check(runner.cycle(plain_state)))
        cycle_id = len(traced) + 1
        tracer.install()
        tracer.begin_op(cycle_id)
        results = runner.cycle(traced_state)
        tracer.end_op()
        tracer.uninstall()
        traced.append(runner.check(results))
        cycles.append(cycle_id)
        pairs.append(time.perf_counter() - t0)

    metrics = tracer.layer_metrics(0, cycles)
    metrics["cli.import_s"] = import_s
    metrics["cli.bytes_written"] = median_low(sum(r.get("bytes", 0) for r in c) for c in traced)
    metrics["verify.checks_failed"] = median_low(
        sum(not p for r in c if r.get("key", "").startswith("verify:") for _, _, p in (r["summary"] or {}).get("checks", []))
        for c in traced
    )
    traced_ops = [r for c in traced for r in c]
    plain_ops = [r for c in plain for r in c]
    metrics["trace.overhead_frac"] = _p50(traced_ops) / _p50(plain_ops) - 1.0
    with open(args.spans, "w") as fh:
        json.dump({"fields": ["op", "name", "start", "end", "parent", "points"], "spans": tracer.spans}, fh)
    return {
        "ops": plain_ops + traced_ops,
        "metrics": metrics,
        "missing": tracer.missing,
        "restore_errors": tracer.restore_errors + tracer.changed_bindings(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("env", "setup", "run", "trace"))
    parser.add_argument("--root")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.STOCK_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workdir")
    parser.add_argument("--reference")
    parser.add_argument("--spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    reference = {}
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh).get(args.workload, {})
    if args.mode == "env":
        result = env_info()
    elif args.mode == "trace":
        result = trace(args, reference)
    else:
        result = run(args, reference)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
