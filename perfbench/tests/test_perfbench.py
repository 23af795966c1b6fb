#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/tests/test_perfbench.py

- The one-node drill: capping branch-and-bound at one node per window (what
  `vm1_sweep --perturb=greedy` does) must make the QoR metrics read worse,
  which shows they catch a trade of quality for speed.
- Repeatability: two runs of one seed report identical QoR and work counts
  on every workload.
- A directory holding only BENCHMARK.json and perfbench/ has no program to
  build: the benchmark must fail there without printing a result.

Runs take a few seconds each; the flow runs about twenty. Build output and
reports go where run.py puts them ($CARGO_TARGET_DIR, default
.bench_build/).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def run(workload, seed, seconds, trace, max_nodes=0):
    """Runs the benchmark; returns (exit code, result line, full report)."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if max_nodes:
        cmd += ["--max-nodes", str(max_nodes)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    tag = f"{workload}-seed{seed}-trace{trace}"
    if max_nodes:
        tag += f"-nodes{max_nodes}"
    report = None
    path = os.path.join(build_root(), "perfbench", "results", tag + ".json")
    if os.path.exists(path):
        with open(path) as f:
            report = json.load(f)
    return p.returncode, result, report


class DrillTest(unittest.TestCase):
    def test_one_node_cap_reads_worse(self):
        rc, res, base = run("flow_closedm1", 0, 1, 1)
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        rc, res, drill = run("flow_closedm1", 0, 1, 1, max_nodes=1)
        self.assertEqual(rc, 0, "the drill must still pass every output check")
        for name in ("qor.align_gain", "qor.dm1_gain"):
            self.assertLess(drill["per_layer"][name], base["per_layer"][name],
                            name)
        self.assertGreater(drill["end_to_end"]["objective_ratio"],
                           base["end_to_end"]["objective_ratio"])


class RepeatTest(unittest.TestCase):
    def check_repeats(self, workload, seconds):
        reports = []
        for _ in range(2):
            rc, res, report = run(workload, 3, seconds, 0)
            self.assertEqual(rc, 0, workload)
            self.assertTrue(res["correct"], workload)
            self.assertEqual(res["failed"], 0)
            reports.append(report)
        a, b = reports
        self.assertTrue(a["work"], workload)
        self.assertEqual(a["work"], b["work"], workload)
        for name in ("hpwl_ratio", "objective_ratio"):
            self.assertEqual(a["end_to_end"][name], b["end_to_end"][name],
                             f"{workload} {name}")

    def test_flow_repeats(self):
        self.check_repeats("flow_closedm1", 1)

    def test_svc_resubmit_repeats(self):
        self.check_repeats("svc_resubmit", 2)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=build_root()) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "flow_closedm1", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    os.makedirs(build_root(), exist_ok=True)
    unittest.main()
