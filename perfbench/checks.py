"""Output checks that allow for rounding.

Every operation's outputs are reduced to a small summary: the report
JSON's summary fields, flags and warnings, and per-column sum/min/max of
the series CSV (or, for ``long_trace``, reductions of the library
outputs, and for ``verify`` the check names with pass/fail).  At the stock
seed the summary is compared with ``reference.json`` within tolerance; at
any seed it must satisfy the run's own invariants.  Only CLI files and
report summary fields are read, never per-point library records, so the
checks survive changes to the in-memory result layout.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

from workloads import NORM_BUDGET, OVERLAY_TOL, SIGMA_FLOOR, STOCK_SEED, SWEEP_VALUES, TIGHT_TOL

# Reordered arithmetic moves values by ~1e-14 relative; physics errors are
# orders of magnitude larger.  Sums get the absolute slack once per row.
RTOL = 1e-6
ATOL = 1e-9
# A point whose reference residual (variance) lies this close to the
# tight (degenerate) threshold may flip class under rounding.
TIGHT_MARGIN = 1e-9
VARIANCE_MARGIN = 1e-15
# Columns left empty on degenerate points.
DEGENERATE_BLANK = ("sigma_dot", "lhs_sq_sum", "residual_r2")
FLAG_COLUMNS = ("tight", "degenerate")
# Report fields derived from those columns, checked through them instead.
FLAG_FIELDS = ("tight_fraction", "degenerate_points")
# The criterion-03 physics: example3 at its stock cutoff s=20 keeps ~1e-4
# of its mass in the top two levels, which must stay visible.
TAIL_WARNING = "truncation_tail_mass"


def _kind(message: str) -> str:
    return message.split(":", 1)[0]


def close(actual, expected, atol: float = ATOL) -> bool:
    if actual is None or expected is None or isinstance(expected, str):
        return actual == expected
    return abs(actual - expected) <= atol + RTOL * abs(expected)


def summarize_run(csv_text: str, report_text: str) -> dict:
    """Summary of one scenario run from its series CSV and report JSON."""
    report = json.loads(report_text)
    summary = dict(report["summary"])
    overlay = summary.pop("max_overlay_deviation")
    out = {"fields": summary, "overlay": overlay}
    out["failed"] = report["failed"]
    out["flags"] = sorted({_kind(f) for f in report["flags"]})
    out["warnings"] = sorted({_kind(w) for w in report["warnings"]})

    rows = list(csv.DictReader(io.StringIO(csv_text)))
    columns = {}
    for name in rows[0] if rows else ():
        if name in FLAG_COLUMNS:
            continue
        values = [float(r[name]) for r in rows if r[name] != ""]
        columns[name] = [len(values), math.fsum(values), min(values, default=None), max(values, default=None)]
    out["columns"] = columns
    out["rows"] = len(rows)
    tight = borderline = degenerate = deg_borderline = 0
    for r in rows:
        tight += r["tight"] == "1"
        degenerate += r["degenerate"] == "1"
        if abs(float(r["sigma"]) ** 2 - SIGMA_FLOOR**2) <= VARIANCE_MARGIN:
            deg_borderline += 1
        if r["residual_r2"] != "":
            scale = max(1.0, float(r["rhs_v2"]))
            if abs(float(r["residual_r2"]) - TIGHT_TOL * scale) <= TIGHT_MARGIN * scale:
                borderline += 1
    out["tight"] = [tight, borderline]
    out["degenerate"] = [degenerate, deg_borderline]
    return out


def summarize_files(outdir: str, stem: str) -> dict:
    with open(os.path.join(outdir, f"{stem}_series.csv")) as fh:
        csv_text = fh.read()
    with open(os.path.join(outdir, f"{stem}_report.json")) as fh:
        report_text = fh.read()
    return summarize_run(csv_text, report_text)


def summarize_sweep(outdir: str) -> dict:
    """The sweep of example3 over ``params.s``: each run, and the sweep table."""
    out = {v: summarize_files(outdir, f"example3_params_s_{v}") for v in SWEEP_VALUES}
    with open(os.path.join(outdir, "example3_params_s_sweep.csv")) as fh:
        table = list(csv.DictReader(fh))
    out["table"] = [[float(x) if x != "" else None for x in r.values()] for r in table]
    return out


def summarize_verify(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    return {"checks": [[c["suite"], c["name"], c["passed"]] for c in payload["checks"]]}


def _invariants_run(s: dict, points: int, expect_tail: bool, where: str) -> list:
    errors = []
    if s["failed"] or s["flags"]:
        errors.append(f"{where}: failed={s['failed']} flags={s['flags']}")
    if s["fields"]["n_points"] != points or s["rows"] != points:
        errors.append(f"{where}: {s['rows']} rows, {s['fields']['n_points']} points, expected {points}")
    for channel, dev in s["overlay"].items():
        if not dev <= OVERLAY_TOL:
            errors.append(f"{where}: overlay deviation {channel}={dev}")
    if not s["fields"]["max_norm_defect"] <= NORM_BUDGET:
        errors.append(f"{where}: norm defect {s['fields']['max_norm_defect']}")
    if expect_tail and TAIL_WARNING not in s["warnings"]:
        errors.append(f"{where}: expected warning {TAIL_WARNING} missing")
    return errors


def _compare_run(s: dict, ref: dict, where: str) -> list:
    errors = []
    for key in ("failed", "flags"):
        if s[key] != ref[key]:
            errors.append(f"{where}: {key} {s[key]} != {ref[key]}")
    missing = sorted(set(ref["warnings"]) - set(s["warnings"]))
    if missing:
        errors.append(f"{where}: expected warnings missing: {missing}")
    for group in ("fields", "overlay"):
        for key, expected in ref[group].items():
            if key in FLAG_FIELDS:
                continue
            if not close(s[group].get(key), expected):
                errors.append(f"{where}: {group}.{key} {s[group].get(key)} != {expected}")
    for flag in FLAG_COLUMNS:
        (count, _), (ref_count, ref_borderline) = s[flag], ref[flag]
        if abs(count - ref_count) > ref_borderline:
            errors.append(f"{where}: {flag} count {count} != {ref_count} (+-{ref_borderline})")
    same_degenerate = s["degenerate"][0] == ref["degenerate"][0]
    for name, (n, total, lo, hi) in ref["columns"].items():
        if name in DEGENERATE_BLANK and not same_degenerate:
            continue
        got = s["columns"].get(name)
        if got is None or got[0] != n:
            errors.append(f"{where}: column {name} has {got and got[0]} values, expected {n}")
        elif not (close(got[1], total, ATOL * max(1, n)) and close(got[2], lo) and close(got[3], hi)):
            errors.append(f"{where}: column {name} sum/min/max {got[1:]} != {[total, lo, hi]}")
    return errors


def check_run(s: dict, ref, points: int, expect_tail: bool, where: str) -> list:
    errors = _invariants_run(s, points, expect_tail, where)
    if ref is not None:
        errors += _compare_run(s, ref, where)
    return errors


def check_cli_op(op, rc: int, seed: int, reference: dict) -> tuple:
    """Check one command's exit code and files: ``(work done, errors, summary)``."""
    errors = [] if rc == 0 else [f"{op.key}: exit code {rc}"]
    ref = reference.get(op.key) if seed == STOCK_SEED else None
    try:
        if op.key.startswith("verify:"):
            # Exit code 1 still writes the results, which name the failed checks.
            s = summarize_verify(op.argv[op.argv.index("--output") + 1])
            errors += [f"{op.key}: {c[0]}.{c[1]} failed" for c in s["checks"] if not c[2]]
            if ref is not None and s["checks"] != ref["checks"]:
                errors.append(f"{op.key}: checks {s['checks']} != reference {ref['checks']}")
            return len(s["checks"]), errors, s
        if rc != 0:
            return 0, errors, None
        if op.key == "sweep":
            s = summarize_sweep(op.outdir)
            per_value = op.work // len(SWEEP_VALUES)
            for v in SWEEP_VALUES:
                errors += check_run(s[v], ref and ref[v], per_value, v == SWEEP_VALUES[0], f"sweep s={v}")
            if ref is not None:
                for row, ref_row in zip(s["table"], ref["table"]):
                    if not all(close(a, b) for a, b in zip(row, ref_row)):
                        errors.append(f"sweep table row {row} != {ref_row}")
            return op.work, errors, s
        name = op.key.split(":")[1]
        s = summarize_files(op.outdir, name)
        return op.work, check_run(s, ref, op.work, name == "example3", op.key), s
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return 0, errors + [f"{op.key}: unreadable output: {exc!r}"], None


def check_long_trace(s: dict, ref, points: int) -> list:
    """Invariants of the criterion-09 path, plus the reference at seed 0."""
    errors = []
    if s["n_points"] != points:
        errors.append(f"long_trace: {s['n_points']} points, expected {points}")
    if not s["max_norm_defect"] <= NORM_BUDGET:
        errors.append(f"long_trace: norm defect {s['max_norm_defect']}")
    # Trapezoid quadrature of the SNR floor and the MT integral: the same
    # slack the verify suite allows on 5000 steps.
    if not s["snr_gap_min"] >= -1e-4:
        errors.append(f"long_trace: snr below its floor by {s['snr_gap_min']}")
    if not s["mt_defect_min"] >= -1e-6:
        errors.append(f"long_trace: MT integral defect {s['mt_defect_min']}")
    if not close(s["fs_length_end"], 2.0 * s["mt_lhs_end"]):
        errors.append(f"long_trace: FS length {s['fs_length_end']} != 2 * MT integral {s['mt_lhs_end']}")
    if ref is not None:
        for key, expected in ref.items():
            if not close(s.get(key), expected):
                errors.append(f"long_trace: {key} {s.get(key)} != {expected}")
    return errors
