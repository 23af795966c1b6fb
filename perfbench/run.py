#!/usr/bin/env python3
"""Repository benchmark: builds the openvm1 library and the vm1bench driver
from this checkout, runs one workload, checks its outputs and prints the
result.

    python3 perfbench/run.py --workload flow_closedm1 --seed 0 \
        --seconds 30 --trace 0

Workloads (see perfbench/README.md): flow_closedm1, svc_resubmit. --trace 0
reports the end-to-end metrics; --trace 1 is a separate, traced invocation
that reports the per-layer metrics. The last line of standard output is one
JSON object:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Build output goes to $CARGO_TARGET_DIR (default .bench_build at the root of
the checkout), together with each run's report and trace under results/.
Exit code 0 means the run completed and every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flow_closedm1", "svc_resubmit")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the driver and the worker. Returns the
    driver's path, or None when the build fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(out, "vm1bench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """sha256 over the program's sources and build files, so a result names
    the code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "apps", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_driver(binary, args, out_dir, sha):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--git-sha", sha]
    if args.max_nodes:
        cmd += ["--max-nodes", str(args.max_nodes)]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s; killed")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def contract_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if the
    file is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-nodes", type=int, default=0,
                    help="cap branch-and-bound nodes per window (drill)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    sha = git_sha()
    digest = source_digest()
    nodes = f"-nodes{args.max_nodes}" if args.max_nodes else ""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{nodes}"
    work_dir = os.path.join(out, "runs", f"{tag}-{os.getpid()}")
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)

    rc = run_driver(binary, args, work_dir, sha)
    report_path = os.path.join(work_dir, "report.json")
    if rc is None or rc == 2 or not os.path.exists(report_path):
        log("perfbench: the driver produced no report")
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    with open(report_path) as f:
        report = json.load(f)
    report["provenance"]["source_digest"] = digest
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    trace_path = os.path.join(work_dir, "trace.json")
    if os.path.exists(trace_path):
        shutil.copy(trace_path, os.path.join(results, tag + ".trace.json"))
    shutil.rmtree(work_dir, ignore_errors=True)

    values = report["per_layer" if args.trace else "end_to_end"]
    units = report["units"]
    wanted = contract_metrics(args.trace) or sorted(values)
    missing = [m for m in wanted if m not in values]
    if missing:
        log("perfbench: the driver did not report", ", ".join(missing))
        return 1

    p = report["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"git {p['git_sha'][:12]} source {digest} nproc {p['nproc']} "
          f"{p['build_type']} [{p['compile_flags']}]")
    lat = report["latency_s"]
    print(f"  {len(lat)} jobs in {report['window_s']:.2f} s; "
          f"set-up x{len(report['setup_s'])}")
    for name in wanted:
        print(f"  {name:28s} {values[name]:>16.6g} {units[name]}")
    if args.trace:
        untraced = os.path.join(
            results, f"{args.workload}-seed{args.seed}-trace0{nodes}.json")
        if os.path.exists(untraced):
            with open(untraced) as f:
                base = json.load(f)["end_to_end"]["job_p50_s"]
            traced = values["trace.job_p50_s"]
            print(f"  tracing overhead: job p50 {traced:.6g} s traced vs "
                  f"{base:.6g} s untraced (same seed), "
                  f"{100.0 * (traced / base - 1):+.2f}%")
    for failure in report["failures"]:
        print(f"  FAILED CHECK: {failure}")

    correct = rc == 0 and report["failed"] == 0
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
