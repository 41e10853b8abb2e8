#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload run-resident --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), configured
as RelWithDebInfo like the repository's own default build; spill files,
the serve socket and span dumps go to $CARGO_TARGET_DIR/perfbench-run.
Build output goes to stderr, so stdout carries only the benchmark's lines:
a metadata line and, last, the result object.  Exits non-zero without a
result when the product sources are missing, the build fails, the run
fails, or the result does not carry exactly the metrics BENCHMARK.json
names for the requested mode.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("run-resident", "batch-stream", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "ro", "engine",
                                       "engine.h")):
        fail("no product sources under src/ in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no perfbench binary")
    return exe


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    exe = build(os.path.join(out_root, "perfbench"))
    scratch = os.path.join(out_root, "perfbench-run")
    os.makedirs(scratch, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.relpath(scratch, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has unexpected keys")
    if set(result["metrics"]) != expected_metrics(args.trace):
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ expected_metrics(args.trace)))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
