#!/usr/bin/env python3
"""Wall-clock farm benchmark: build, self-test, run one workload.

    python3 farmbench/run.py --workload cradle_journal --seed 1 \
        --seconds 20 --trace 0 [--alter-frame]

Run from the repository root. Builds the benchmark (farmbench/CMakeLists.txt,
which compiles the farm from src/) into .bench_build/farmbench, runs the
benchmark's self-tests, then runs the workload. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The exit code is non-zero when the build, a self-test or a frame
check fails, or when the metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "farmbench")
WORKLOADS = ("cradle_journal", "random_dense", "service_tcp")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("render farm sources (src/) not found next to farmbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "farmbench", "farmbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--alter-frame", action="store_true",
                        help="flip one pixel of one frame before checking "
                             "(the checker must report exactly one failure)")
    args = parser.parse_args()

    if not build():
        return 1
    selftest = subprocess.run(
        [os.path.join(BUILD_DIR, "farmbench_selftest"),
         os.path.join(".bench_build", "farmbench-selftest")],
        cwd=ROOT, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        log("benchmark self-test failed")
        return 1

    cmd = [os.path.join(BUILD_DIR, "farmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.alter_frame:
        cmd.append("--alter-frame")
    # Own process group, so a timeout stops the run's children too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        log(f"no result (exit code {proc.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"malformed result line (exit code {proc.returncode})")
        return 1
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        log("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
        return 1
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        log(f"frame checks failed: {result['failed']} of "
            f"{result['attempted']} frames")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
