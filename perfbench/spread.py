"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads grid wide --seeds 1 2 3 4 5 --seconds 20

Runs one benchmark process at a time, keeps each result line in
perfbench/out/, and prints per workload and metric the median and the
interquartile range as a share of the median (the figure the bounds in
BENCHMARK.json are set against), plus the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            line = proc.stdout.splitlines()[-1]
            name = f"{args.label}-{workload}-{seed}-t{args.trace}.json"
            (OUT / name).write_text(line + "\n")
            results.append(json.loads(line))
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, "
              f"failed shares {sorted(shares)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {metric:36s} median {median:14.6g}  iqr/median {spread:7.4f}"
                  f"  min {min(values):.6g} max {max(values):.6g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
