"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--seed 0] [--seconds 35] [--trace 0]

Runs ``run.py`` once per workload, one after another, and passes its
lines through: the environment record once, then per workload each metric,
``op_s_tail`` where defined, ``failed_frac`` and any failed check.  With
``--trace 1`` it prints the per-module metrics instead.  Exits 1 if any
workload's outputs were not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for i, workload in enumerate(WORKLOADS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE)).stdout.splitlines()
        try:
            ok = ok and json.loads(lines[-1])["correct"]
        except (IndexError, ValueError):
            ok = False
        for line in lines[:-1]:
            if i == 0 or not line.startswith("env "):
                print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
