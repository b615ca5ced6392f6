"""Self-check of the traced pass.

    python3 perfbench/selfcheck.py [--seed 0] [--seconds 1]

For every workload, runs ``run.py --trace 1`` twice at one seed.  Every
count metric must be identical across the two runs, and each run must
report that all patched module attributes (indeed every binding in the
fluctdyn modules) were left identical to the originals.  Exits 1 if not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from tracing import COUNT_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced(workload: str, seed: int, seconds: float) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench", f"result-{workload}-seed{seed}-trace1.json")) as fh:
        extra = json.load(fh)["extra"]
    return result, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        runs = [traced(workload, args.seed, args.seconds) for _ in range(2)]
        for result, extra in runs:
            if not result["correct"] or extra["restore_errors"]:
                ok = False
                print(f"{workload}: correct={result['correct']} not restored: {extra['restore_errors']}")
        (first, extra), (second, _) = runs
        for name in COUNT_METRICS:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            same = a == b and a is not None
            ok = ok and same
            print(f"{workload:<20} {name:<40} {a} {b} {'same' if same else 'DIFFERENT'}")
        if extra["missing_wrappers"]:
            print(f"{workload:<20} missing wrapper targets: {extra['missing_wrappers']}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
