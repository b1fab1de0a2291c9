"""Run the benchmark over several seeds and report each metric's spread.

Usage: python3 perfbench/steady.py --workload NAME --seeds 1,2,3 --seconds S
       [--trace 0|1]

For every metric prints the median over the runs and the interquartile
distance as a share of the median (statistics.quantiles, n=4), the
figure BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from statistics import median

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values = defaultdict(list)
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, cwd=os.path.dirname(HERE), check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)
    for name, vals in values.items():
        shown = f"{spread(vals):.4f}" if len(vals) >= 2 and median(vals) else "-"
        print(f"{name:<48} median {median(vals):>14.6g}  spread {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
