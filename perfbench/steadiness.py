"""Run the benchmark several times with distinct seeds and report its spread.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workload channel-mix --runs 10 --seconds 35

For each end-to-end metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median, which is the
figure to hold below a third of the metric's bound in BENCHMARK.json. It also
prints each run's share of failed ops, which must be the same in every run.
Runs are sequential, so they never compete with each other for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: {json.dumps(result)}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {seconds} s")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:12s} median {med:10.4f}  IQR/median {(q3 - q1) / med:6.3f}  (bound {bound})")
    shares = sorted({Fraction(r["failed"], r["attempted"]) for r in results})
    print(f"  share of failed ops: {', '.join(str(s) for s in shares)}")
    print(f"  correct in every run: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
