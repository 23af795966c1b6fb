#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics, against their bounds.

    python3 perfbench/tests/spread.py --workload svc_resubmit --seeds 1-10

Runs the benchmark once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, per metric, the median of the runs and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. A spread above a third of the bound
is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    ok = True
    for seed in parse_seeds(args.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        correct = p.returncode == 0 and result.get("correct")
        ok = ok and bool(correct)
        print(f"seed {seed}: exit {p.returncode} correct {correct} "
              f"attempted {result.get('attempted')} "
              f"failed {result.get('failed')}", flush=True)
        for name, m in result.get("metrics", {}).items():
            values[name].append(m["value"])

    for name, v in values.items():
        if len(v) < 2:
            continue
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        flag = ""
        if spread > bounds[name] / 3:
            flag = "  above a third of the bound"
        print(f"{name:18s} median {med:<12.6g} spread {spread:7.4f} "
              f"bound {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
