#!/usr/bin/env python3
"""Build and run the hippo end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (and with it the libraries under src/)
into .bench_build/perfbench. The benchmark's last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The traced run also writes its spans to
.bench_build/traces/. --self-test checks that every workload counts
failures when one of its reference values is falsified.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "hippo_perfbench")
WORKLOADS = ("repair-pipeline", "crash-explore", "interleave-explore",
             "kv-ycsb")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hippo sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, corrupt=False):
    """Run one workload; returns (stdout lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")]
    if corrupt:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: printed no result")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics {sorted(got.items())} differ from "
             f"BENCHMARK.json {sorted(want.items())}")
    return lines, result


def self_test():
    ok = True
    for w in WORKLOADS:
        _, clean = run(w, 1, 1, False)
        _, bad = run(w, 1, 1, False, corrupt=True)
        passed = (clean["correct"] and clean["failed"] == 0 and
                  not bad["correct"] and bad["failed"] > 0 and
                  bad["metrics"]["correct_frac"]["value"] <
                  clean["metrics"]["correct_frac"]["value"])
        print(f"{w}: failed {clean['failed']}/{clean['attempted']} "
              f"with the true references, {bad['failed']}/"
              f"{bad['attempted']} with one falsified: "
              f"{'ok' if passed else 'FAIL'}")
        ok &= passed
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    lines, _ = run(args.workload, args.seed, args.seconds,
                   bool(args.trace))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
