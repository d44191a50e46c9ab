#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the library (../src)
and the benchmark with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only rebuild what changed. Before each
measurement the benchmark's statistics self-test runs, and afterwards the
metric names and units the program printed are checked against
BENCHMARK.json. The program's output is passed through; its last line is
the JSON result. Exits nonzero, printing no result, if anything fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175  # a run must end within 180 s


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
         "perfbench_stats_test"],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}, [w["name"] for w in spec["workloads"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build_dir = build()
    want, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {', '.join(workloads)}", 2)

    test = subprocess.run([os.path.join(build_dir, "perfbench_stats_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        fail("statistics self-test failed")

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("last output line is not a JSON result")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(run.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in got.keys() & want.keys() if got[k] != want[k])}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
