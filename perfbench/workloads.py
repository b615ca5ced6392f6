"""Seeded inputs for the four benchmark workloads.

Seed 0 reproduces the stock configs in ``demos/configs`` and the default
``verify`` seed; its outputs are compared with ``reference.json``.  Any
other seed scales the continuous scenario parameters by factors in
[0.9, 1.1] and picks another ``verify --seed`` for every suite but the
algebra suite (see ``STOCK_SEED_SUITES``).  Grid sizes and Hilbert
space cutoffs never change, so the cost of an operation does not depend
on the seed and the workload keeps its place in the layer mix.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# BENCHMARK.json bounds all but oscillator_midpoint: its timings are bound by
# BLAS and spread 30-37% between runs on a shared 2-vCPU host, beyond the
# largest bound a metric may have.  It still runs by name, traced or not.
WORKLOADS = ("cli_scenarios", "oscillator_midpoint", "long_trace", "verify_all")
CLI_WORKLOADS = ("cli_scenarios", "verify_all")
STOCK_SEED = 0
SWEEP_VALUES = ("20", "24", "28", "32")
# ``verify all`` as one command per suite, so that each suite can take its
# seed.  The commands of one cycle together count as one operation.
VERIFY_SUITES = ("algebra", "bounds", "bloch", "truncation")
ONE_OP_PER_CYCLE = ("verify_all",)
# Suites that keep the command's default seed at every workload seed.  The
# algebra suite's herm_expm_additive check fails at about one seed in nine:
# its 1e-10 limit on the relative defect is below the rounding of
# exponentials with random complex scalings (seed 995202943 gives 3.4e-10).
# That is a defect of the check in fluctdyn, not of the benchmark.
STOCK_SEED_SUITES = ("algebra",)
OSCILLATOR_CUTOFF = 40
LONG_TRACE_STEPS = 50_000

# The CSV tight/degenerate columns and the report's overlay check use the
# library defaults, because no workload config sets "tolerances".
TIGHT_TOL = 1e-6
SIGMA_FLOOR = 1e-9
OVERLAY_TOL = 1e-6
NORM_BUDGET = 1e-8


@dataclass
class CliOp:
    """One ``fluctdyn`` command and what its outputs must show."""

    key: str  # entry in reference.json
    argv: list  # arguments after the program name
    outdir: str  # where the command writes; emptied before it runs
    work: int  # grid points evaluated (0 for verify: counted from its output)


def _scale(rng: random.Random) -> float:
    return rng.uniform(0.9, 1.1)


def _jitter_coefficient(spec, rng: random.Random) -> dict:
    name = spec if isinstance(spec, str) else spec["fn"]
    scale = 1.0 if isinstance(spec, str) else spec.get("scale", 1.0)
    return {"fn": name, "scale": scale * _scale(rng)}


def scenario_configs(root: str, seed: int) -> dict:
    """Raw config dicts for example1..3 (stock at seed 0, jittered otherwise)."""
    configs = {}
    for name in ("example1", "example2", "example3"):
        with open(os.path.join(root, "demos", "configs", f"{name}.json")) as fh:
            configs[name] = json.load(fh)
    if seed == STOCK_SEED:
        return configs
    rng = random.Random(seed)
    for name in ("example1", "example2"):
        params = configs[name]["params"]
        params["omega0"] *= _scale(rng)
        params["nu0"] *= _scale(rng)
        for key in ("a", "b"):
            if key in params:
                params[key] = _jitter_coefficient(params[key], rng)
    params = configs["example3"]["params"]
    params["alpha"] = [x * _scale(rng) for x in params["alpha"]]
    params["z"] = [x * _scale(rng) for x in params["z"]]
    params["omega"] *= _scale(rng)
    params["theta"] = _jitter_coefficient(params["theta"], rng)
    return configs


def verify_seed(seed: int):
    """``verify --seed`` value, or None for the command's default."""
    if seed == STOCK_SEED:
        return None
    return random.Random(f"verify-{seed}").randrange(1, 2**31)


def oscillator_config(root: str, seed: int) -> dict:
    raw = scenario_configs(root, seed)["example3"]
    raw["params"]["s"] = OSCILLATOR_CUTOFF
    raw["method"] = "midpoint"
    return raw


def long_trace_config(root: str, seed: int) -> dict:
    raw = scenario_configs(root, seed)["example1"]
    raw["grid"]["n_steps"] = LONG_TRACE_STEPS
    return raw


def more_cycles(elapsed: float, cycle_seconds: list, seconds: float) -> bool:
    """Start another cycle only if one more, at the median pace so far, fits in ``seconds``."""
    if not cycle_seconds:
        return True
    ordered = sorted(cycle_seconds)
    return elapsed + ordered[len(ordered) // 2] <= seconds


def points(raw: dict) -> int:
    """Grid points one run of a scenario config evaluates."""
    return raw["grid"]["n_steps"] + 1


def cli_cycle(workload: str, root: str, seed: int, workdir: str) -> list:
    """The commands of one cycle; configs for jittered seeds and outputs go to ``workdir``."""
    outdir = os.path.join(workdir, "out")
    if workload == "verify_all":
        vseed = verify_seed(seed)
        ops = []
        for suite in VERIFY_SUITES:
            out = os.path.join(outdir, suite)
            argv = ["verify", suite, "--output", os.path.join(out, "verify.json")]
            if vseed is not None and suite not in STOCK_SEED_SUITES:
                argv += ["--seed", str(vseed)]
            ops.append(CliOp(f"verify:{suite}", argv, out, 0))
        return ops
    configs = scenario_configs(root, seed)
    paths = {}
    for name, raw in configs.items():
        if seed == STOCK_SEED:
            paths[name] = os.path.join(root, "demos", "configs", f"{name}.json")
        else:
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(raw, fh)
    ops = []
    for name in ("example1", "example2", "example3"):
        out = os.path.join(outdir, name)
        ops.append(CliOp(f"run:{name}", ["run", "--config", paths[name], "--output-dir", out], out, points(configs[name])))
    out = os.path.join(outdir, "sweep")
    sweep = ["sweep", "--config", paths["example3"], "--param", "params.s", "--values", *SWEEP_VALUES]
    ops.append(CliOp("sweep", sweep + ["--output-dir", out], out, points(configs["example3"]) * len(SWEEP_VALUES)))
    return ops
