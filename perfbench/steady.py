"""Steadiness command: repeat a workload and report the spread of each metric.

    python3 perfbench/steady.py --workload stream-replay --runs 10 [--first-seed 0]
        [--seconds 20] [--trace 0]

Runs ``perfbench/run.py`` once per seed (``first-seed``, ``first-seed+1``,
...), sequentially, from the checkout root, and prints per metric the
median, the quartiles (``statistics.quantiles(n=4)``), the quartile spread
and (max - min) as shares of the median, and each run's value.  The bounds
in BENCHMARK.json are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
        for line in proc.stderr.splitlines():
            if line.startswith(args.workload) or "FAILED" in line:
                print(f"  {line}")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", flush=True)
            return 1
        result = json.loads(lines[-1])
        shares.append(result["failed"] / result["attempted"])
        summary = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + json.dumps({k: round(v, 4) for k, v in summary.items()}),
              flush=True)
        for name, value in summary.items():
            values.setdefault(name, []).append(value)
    print(f"\n{args.workload}: {args.runs} runs, failed share {sorted(set(shares))}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'range/med':>9s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        scale = abs(med) or 1.0
        print(f"{name:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / scale:8.3f} "
              f"{(max(vals) - min(vals)) / scale:9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
