"""Command-line front end: scenario runs, sweeps, and verification suites.

Outputs are built for scripts and CI: a fixed-schema CSV per run, a JSON
report, and a manifest listing every emitted file.  An identical config
yields byte-identical files (shortest round-trip float formatting, fixed
column order, writes go to a temp file and are renamed into place).
The series CSV is formatted and written ``ROWS_PER_BLOCK`` rows at a time.
A sweep writes each value's files to temp files as soon as the value has
run and drops its report, so its memory does not grow with the number of
values, then stages the summary and renames every file into place, none
while any final path is a directory.

Exit codes: 0 success; 1 verification failure; 2 malformed config or
arguments, or an output directory or file that cannot be created or
written (one ``output error`` line on stderr naming it, no temp file
left); 3 scenario invariant failure or numeric breakdown (a non-finite or
non-real value met during a run, reported on stderr; no files written, also
when a sweep breaks down after earlier values completed).

The scenario layer is imported by ``run`` and ``sweep`` only, so a
``verify`` command loads no more of the package than its suite needs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

from . import __version__, verify
from .linops import NumericBreakdown

if TYPE_CHECKING:
    from .scenarios import ScenarioConfig, ScenarioReport

CSV_COLUMNS = (
    "t",
    "mu",
    "sigma",
    "mu_dot",
    "sigma_dot",
    "sigma_v",
    "v2_mean",
    "lhs_sq_sum",
    "rhs_v2",
    "residual_r2",
    "cs_residual",
    "tight",
    "degenerate",
    "norm_defect",
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

OUTDIR_ENV = "FLUCTDYN_OUTDIR"

# Series rows formatted and written at a time, so that emission holds the
# strings of one block, not of the whole grid.
ROWS_PER_BLOCK = 512


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(x))


class OutputError(Exception):
    """An output directory or file could not be created or written."""


def _makedirs(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(exc) from None


@contextlib.contextmanager
def _staging():
    """A list for ``(temp file, final path)`` pairs; if the block raises, every temp file is removed."""
    staged = []
    try:
        yield staged
    except BaseException:
        for tmp, _ in staged:
            # A temp file already renamed into place is gone.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _stage(staged: list, path: str, chunks) -> None:
    """Write the strings ``chunks`` to a new temp file beside ``path`` and add the pair to ``staged``.

    ``chunks`` is an iterable of strings: a plain ``str`` would be written one
    character at a time.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp_", suffix=".part")
        staged.append((tmp, path))
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        # Name the file asked for, not the temp file beside it.
        raise OutputError(OSError(exc.errno, exc.strerror, path)) from None


def _commit(staged: list) -> list[str]:
    """Rename every staged temp file into place, in order; returns the final paths.

    Raises before the first rename if any final path is a directory.
    """
    for _, path in staged:
        if os.path.isdir(path):
            raise OutputError(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path))
    for tmp, path in staged:
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OutputError(OSError(exc.errno, exc.strerror, path)) from None
    return [path for _, path in staged]


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def series_csv(report: ScenarioReport, start: int = 0, stop: int | None = None) -> str:
    """Rows ``start`` to ``stop`` of the series as CSV text, in ``CSV_COLUMNS`` order.

    The text starts with the header row when ``start`` is 0, so the texts of
    consecutive row ranges join into the file, and ``series_csv(report)`` is
    the whole file.  Degenerate rows leave ``sigma_dot``, ``lhs_sq_sum`` and
    ``residual_r2`` blank.  ``lhs_sq_sum`` is the Python-float
    ``mu_dot**2 + sigma_dot**2`` of each value: numpy's array square differs
    from it by one ulp at some points, which would change the emitted bytes.
    """
    s = report.series
    rows = slice(start, stop)
    degenerate = s.degenerate[rows].tolist()

    def numbers(values):
        # tolist() gives Python floats, whose repr is _fmt's string.
        return list(map(repr, values[rows].tolist()))

    def rates(cells):
        return ["" if d else c for d, c in zip(degenerate, cells)]

    def flags(values):
        return ["1" if x else "0" for x in values[rows].tolist()]

    v2 = numbers(s.v2_mean)
    lhs = [_fmt(m**2 + d**2) for m, d in zip(s.mu_dot[rows].tolist(), s.sigma_dot[rows].tolist())]
    columns = (
        numbers(s.t),
        numbers(s.mu),
        numbers(s.sigma),
        numbers(s.mu_dot),
        rates(numbers(s.sigma_dot)),
        numbers(s.sigma_v),
        v2,
        rates(lhs),
        v2,
        rates(numbers(s.residual_r2)),
        numbers(s.cs_residual),
        flags(s.tight),
        flags(s.degenerate),
        numbers(s.norm_defect),
    )
    lines = [",".join(CSV_COLUMNS)] if start == 0 else []
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _config_echo(cfg: ScenarioConfig, report: ScenarioReport) -> dict:
    return {
        "name": cfg.name,
        "params": cfg.params,
        "params_resolved": report.pieces.params_echo,
        "grid": {"t0": cfg.grid.t0, "t1": cfg.grid.t1, "n_steps": cfg.grid.n_steps},
        "method": cfg.method,
        "tolerances": cfg.tolerances,
    }


def report_json(report: ScenarioReport) -> str:
    payload = {
        "version": __version__,
        "config": _config_echo(report.config, report),
        "summary": {
            "n_points": len(report.series.t),
            "tight_fraction": report.tight_fraction,
            "min_residual_r2": report.min_residual,
            "min_cs_residual": report.min_cs_residual,
            "max_norm_defect": report.max_norm_defect,
            "max_overlay_deviation": report.overlay_dev,
            "tail_mass_top_levels": report.tail_mass,
            "degenerate_points": int(report.series.degenerate.sum()),
        },
        "flags": report.flags,
        "warnings": report.warnings,
        "failed": report.failed,
    }
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _load_config(path: str) -> tuple[ScenarioConfig, dict]:
    """The validated config at ``path`` and the JSON it was parsed from."""
    from .scenarios import ConfigError, ScenarioConfig

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from None
    return ScenarioConfig.from_dict(raw), raw


def _outdir(args) -> str:
    out = args.output_dir or os.environ.get(OUTDIR_ENV) or "."
    _makedirs(out)
    return out


def _stage_run(staged: list, report: ScenarioReport, outdir: str, stem: str, config_path: str) -> None:
    """Write a run's series, report and manifest to temp files, added to ``staged`` in that order."""
    series_path = os.path.join(outdir, f"{stem}_series.csv")
    report_path = os.path.join(outdir, f"{stem}_report.json")
    n = len(report.series.t)
    _stage(staged, series_path, (series_csv(report, k, k + ROWS_PER_BLOCK) for k in range(0, n, ROWS_PER_BLOCK)))
    _stage(staged, report_path, (report_json(report),))
    manifest = {
        "version": __version__,
        "config_path": os.path.abspath(config_path),
        "output_dir": os.path.abspath(outdir),
        "files": [os.path.abspath(series_path), os.path.abspath(report_path)],
        "flags": report.flags,
        "warnings": report.warnings,
        "failed": report.failed,
        "tolerances": report.config.tolerances,
    }
    manifest_path = os.path.join(outdir, f"{stem}_manifest.json")
    _stage(staged, manifest_path, (json.dumps(_jsonable(manifest), indent=2, sort_keys=True) + "\n",))


def cmd_run(args) -> int:
    from .scenarios import ConfigError, run_scenario

    try:
        cfg, _ = _load_config(args.config)
    except ConfigError as exc:
        # The error's text starts with its field path.
        print(f"config error at {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = _outdir(args)
    try:
        report = run_scenario(cfg)
    except NumericBreakdown as exc:
        print(f"numeric breakdown: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    with _staging() as staged:
        _stage_run(staged, report, outdir, args.name or cfg.name, args.config)
        emitted = _commit(staged)
    for path in emitted:
        print(path)
    if report.failed:
        print(f"invariant flags: {report.flags}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, seed=args.seed)
    passed = sum(1 for r in results if r.passed)
    payload = {
        "version": __version__,
        "seed": args.seed,
        "suites": names,
        "checks": [r.as_dict() for r in results],
        "passed": passed,
        "failed": len(results) - passed,
    }
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.output:
        _makedirs(os.path.dirname(args.output) or ".")
        with _staging() as staged:
            _stage(staged, args.output, (text,))
            _commit(staged)
        print(args.output)
    else:
        print(text, end="")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY_FAIL


def _set_by_path(raw: dict, path: str, value) -> None:
    """Set ``value`` at the dotted ``path``, adding missing objects; a non-object in the way is a ``ConfigError``."""
    from .scenarios import ConfigError

    keys = path.split(".")
    node = raw
    for depth, key in enumerate(keys[:-1], start=1):
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(keys[:depth]), f"{json.dumps(node)} is not an object, so {path} cannot be set")
    node[keys[-1]] = value


def _parse_value(token: str):
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def _summary_row(value, report: ScenarioReport) -> str:
    min_res = report.min_residual
    return ",".join(
        (
            json.dumps(value),
            "" if (isinstance(min_res, float) and math.isnan(min_res)) else _fmt(min_res),
            _fmt(report.tight_fraction),
            _fmt(report.max_norm_defect),
        )
    )


def cmd_sweep(args) -> int:
    from .scenarios import ConfigError, ScenarioConfig, run_scenario

    if not args.values:
        print("sweep needs a non-empty --values list", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base_cfg, raw_base = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return EXIT_CONFIG

    values = [_parse_value(v) for v in args.values]
    configs = []
    for value in values:
        raw = json.loads(json.dumps(raw_base))
        try:
            _set_by_path(raw, args.param, value)
            configs.append(ScenarioConfig.from_dict(raw))
        except ConfigError as exc:
            print(f"config error at {exc} (for {args.param}={value})", file=sys.stderr)
            return EXIT_CONFIG

    outdir = _outdir(args)
    param_token = args.param.replace(".", "_")
    summary_lines = [",".join(("value", "min_residual", "tight_fraction", "max_norm_defect"))]
    any_failed = False
    # Each value's files are written as it completes and renamed into place
    # with the summary once every value has run: a breakdown leaves no files.
    try:
        with _staging() as staged:
            for value, cfg in zip(values, configs):
                report = run_scenario(cfg)
                _stage_run(staged, report, outdir, f"{base_cfg.name}_{param_token}_{value}", args.config)
                any_failed = any_failed or report.failed
                summary_lines.append(_summary_row(value, report))
                # Free this value's trajectory before the next value runs.
                del report
            summary_path = os.path.join(outdir, f"{base_cfg.name}_{param_token}_sweep.csv")
            _stage(staged, summary_path, ("\n".join(summary_lines) + "\n",))
            emitted = _commit(staged)
    except NumericBreakdown as exc:
        print(f"numeric breakdown for {args.param}={value}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    for path in emitted:
        print(path)
    return EXIT_INVARIANT if any_failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluctdyn",
        description="Simulate unitary dynamics and verify observable rate bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the scenario JSON")
    p_run.add_argument("--output-dir", default=None, help=f"output directory (default ${OUTDIR_ENV} or .)")
    p_run.add_argument("--name", default=None, help="basename for emitted files (default: scenario name)")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the seeded property suites")
    p_verify.add_argument(
        "suite", choices=sorted(verify.SUITES) + ["all"], help="which suite to run"
    )
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_verify.add_argument("--output", default=None, help="write the JSON result here instead of stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="re-run a config over a list of parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted path into the config, e.g. params.s")
    p_sweep.add_argument("--values", nargs="*", default=[], help="values (JSON literals)")
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
