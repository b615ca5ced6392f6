"""fluctdyn benchmark: one workload, one seed, one measured run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_scenarios --seed 0 --seconds 35 --trace 0

The load is closed-loop with one client: this process starts at most one
fluctdyn child at a time, and the next operation starts only after the
previous one has finished and its outputs were checked.  Operations run in
whole cycles until ``--seconds`` have passed.  On ``verify_all`` a cycle is
``verify all`` run one suite per command, and counts as one operation.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``op_s_p50``,
``work_per_s``, ``peak_rss_mb``), plus ``op_s_tail`` where at least eleven
operations ran and ``failed_frac``, by name and unit.  ``--trace 1`` runs
the workload in one child with the wrappers of ``tracing.py`` and prints
the per-module metrics.  The last line of standard output is always one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--write-reference`` (seed 0 only) stores the outputs' summaries in
``reference.json`` instead of comparing with them.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median

import checks
import workloads
from workloads import CLI_WORKLOADS, STOCK_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
OUTPUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 7
# Every child is killed once the run is this old, so a run ends within 180 s.
RUN_LIMIT_S = 170.0
# What the installed ``fluctdyn`` console script runs.
CONSOLE = "import sys; from fluctdyn.cli import main; sys.exit(main())"
IMPORT_ONLY = "import fluctdyn.cli; print(fluctdyn.cli.__file__)"
# Operands are at most 41x41.  On 2 cores a second BLAS thread made example3
# midpoint stepping 1.6x slower, and 3x slower while another process was
# busy, because OpenBLAS threads spin while they wait.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LSCPU_FIELDS = ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache")


class Run:
    """Children, their environment and the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.nproc = len(os.sched_getaffinity(0))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workdir = os.path.join(OUTPUT, args.workload)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.children = 0

    def spawn(self, cmd: list) -> tuple:
        """Run ``cmd`` to completion: ``(exit code, seconds, peak RSS in MB, log path)``."""
        self.children += 1
        log = os.path.join(self.workdir, f"child{self.children}.log")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, log

    def worker(self, mode: str, **extra) -> tuple:
        """Run ``worker.py``; returns ``(result dict or None, peak RSS in MB, error)``."""
        out = os.path.join(self.workdir, f"worker{self.children + 1}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--root", ROOT, "--out", out]
        cmd += [f"--{k}={v}" for k, v in extra.items()]
        rc, _, rss, log = self.spawn(cmd)
        if rc != 0:
            return None, rss, f"worker {mode} exit code {rc}: {_tail(log)}"
        with open(out) as fh:
            return json.load(fh), rss, None


def _tail(path: str, lines: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def environment(run: Run) -> dict:
    record = {"nproc": run.nproc, "seed": run.args.seed}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        text = ""
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    record["cpu"] = {k: fields[k].strip() for k in LSCPU_FIELDS if k in fields}
    info, _, error = run.worker("env")
    record.update(info or {"error": error})
    record["thread_env"] = {var: run.env[var] for var in THREAD_VARS}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    record["git_commit"] = commit
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    record["source_sha256"] = digest.hexdigest()
    return record


def run_cli(run: Run, reference: dict) -> tuple:
    """Each operation is a fresh ``fluctdyn`` process, as users run it."""
    args, errors, setup = run.args, [], []
    for _ in range(SETUP_SAMPLES):
        rc, seconds, _, log = run.spawn([sys.executable, "-c", IMPORT_ONLY])
        setup.append(seconds)
        if rc != 0:
            errors.append(f"import exit code {rc}: {_tail(log)}")
        elif not _tail(log, 1).startswith(os.path.join(ROOT, "src")):
            errors.append(f"fluctdyn imported from {_tail(log, 1)}, not from this checkout")
    ops = workloads.cli_cycle(args.workload, ROOT, args.seed, run.workdir)
    records, cycles, peak = [], [], 0.0
    start = time.perf_counter()
    while workloads.more_cycles(time.perf_counter() - start, cycles, args.seconds):
        t0 = time.perf_counter()
        for op in ops:
            shutil.rmtree(op.outdir, ignore_errors=True)
            os.makedirs(op.outdir)
            rc, seconds, rss, log = run.spawn([sys.executable, "-c", CONSOLE, *op.argv])
            work, op_errors, summary = checks.check_cli_op(op, rc, args.seed, reference)
            if rc != 0:
                op_errors.append(_tail(log))
            records.append(
                {"key": op.key, "cycle": len(cycles), "seconds": seconds, "work": work, "errors": op_errors, "summary": summary}
            )
            peak = max(peak, rss)
        cycles.append(time.perf_counter() - t0)
    return setup, records, peak, errors


def run_library(run: Run) -> tuple:
    """Operations in one fresh child, so that its memory is the workload's own."""
    args, errors, setup = run.args, [], []
    common = {"workload": args.workload, "seed": args.seed, "workdir": run.workdir, "reference": REFERENCE}
    for _ in range(SETUP_SAMPLES - 1):
        result, _, error = run.worker("setup", **common)
        if error:
            errors.append(error)
        else:
            setup.append(result["setup_s"])
    result, peak, error = run.worker("run", seconds=args.seconds, **common)
    if error:
        return setup, [], peak, errors + [error]
    return setup + [result["setup_s"]], result["ops"], peak, errors


def per_cycle(records: list) -> list:
    """Merge the commands of each cycle into one operation record."""
    merged = {}
    for r in records:
        m = merged.setdefault(r["cycle"], {"cycle": r["cycle"], "seconds": 0.0, "work": 0, "errors": []})
        m["seconds"] += r["seconds"]
        m["work"] += r["work"]
        m["errors"] += r["errors"]
    return list(merged.values())


def work_per_s(records: list) -> float:
    """Median over cycles of work completed per second of operation time.

    Failed operations take time but complete no work.
    """
    cycles = {}
    for r in records:
        work, seconds = cycles.get(r["cycle"], (0, 0.0))
        cycles[r["cycle"]] = (work + (0 if r["errors"] else r["work"]), seconds + r["seconds"])
    return median(work / seconds for work, seconds in cycles.values())


def op_s_tail(seconds: list):
    """Highest percentile with at least ten samples above it: ``(percentile, value)``."""
    if len(seconds) < 11:
        return None
    ordered = sorted(seconds)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def write_reference(workload: str, records: list) -> None:
    summaries = {}
    for r in records:
        summaries.setdefault(r.get("key", "op"), r["summary"])
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data[workload] = summaries
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=STOCK_SEED, help="0 runs the stock configs")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fluctdyn", "__init__.py")):
        print(f"no fluctdyn sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != STOCK_SEED or args.trace):
        print("--write-reference needs --seed 0 --trace 0", file=sys.stderr)
        return 2
    reference = {}
    if args.seed == STOCK_SEED and not args.write_reference:
        if not os.path.exists(REFERENCE):
            print(f"missing {REFERENCE}", file=sys.stderr)
            return 2
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(args.workload, {})

    run = Run(args)
    env = environment(run)
    print("env " + json.dumps(env, sort_keys=True))
    extra = {}
    if args.trace:
        spans = os.path.join(OUTPUT, f"spans-{args.workload}-seed{args.seed}.json")
        result, _, error = run.worker(
            "trace", workload=args.workload, seed=args.seed, seconds=args.seconds,
            workdir=run.workdir, reference=REFERENCE, spans=spans,
        )
        errors = [error] if error else []
        records = ops = result["ops"] if result else []
        metrics = result["metrics"] if result else {}
        if result:
            extra = {"missing_wrappers": result["missing"], "restore_errors": result["restore_errors"]}
            errors += [f"attribute not restored: {name}" for name in result["restore_errors"]]
    else:
        if args.workload in CLI_WORKLOADS:
            setup, records, peak, errors = run_cli(run, reference)
        else:
            setup, records, peak, errors = run_library(run)
        ops = per_cycle(records) if args.workload in workloads.ONE_OP_PER_CYCLE else records
        metrics = {}
        if ops and setup:
            metrics = {
                "setup_s": median(setup),
                "op_s_p50": median(r["seconds"] for r in ops),
                "work_per_s": work_per_s(ops),
                "peak_rss_mb": peak,
            }
            tail = op_s_tail([r["seconds"] for r in ops])
            extra = {"ops": len(ops), "op_s_tail": tail and {"percentile": tail[0], "value": tail[1]}}

    failed = sum(1 for r in ops if r["errors"])
    attempted = max(len(ops), 1)
    errors += [e for r in ops for e in r["errors"]]
    extra["failed_frac"] = failed / attempted
    if args.write_reference and not errors:
        write_reference(args.workload, records)

    units = _units(args.trace)
    work_item = "verify checks" if args.workload == "verify_all" else "grid points"
    for name, value in sorted(metrics.items()):
        note = f" ({work_item})" if name == "work_per_s" else ""
        print(f"{args.workload:<20} {name:<40} {value:.6g} {units.get(name, '')}{note}")
    if extra.get("op_s_tail"):
        tail = extra["op_s_tail"]
        print(f"{args.workload:<20} {'op_s_tail':<40} {tail['value']:.6g} s (p{tail['percentile']:.1f} of {extra['ops']} ops)")
    print(f"{args.workload:<20} {'failed_frac':<40} {extra['failed_frac']:.6g} ({failed} of {attempted} ops)")
    for e in errors[:20]:
        print(f"error: {e}")
    with open(os.path.join(OUTPUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "extra": extra, "errors": errors}, fh, indent=1, sort_keys=True)
    shutil.rmtree(run.workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not errors and failed == 0 and bool(ops),
        "attempted": attempted,
        "failed": failed if ops else attempted,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 0


def _units(trace: int) -> dict:
    """Units as declared in BENCHMARK.json at the root of the checkout."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
