#!/usr/bin/env python3
"""Wall-clock benchmark of the toltiers serving stack.

Run from the repository root:

    python3 perfbench/run.py --workload asr_tiers --seed 1 --seconds 10 --trace 0

Builds the library and the `ttbench` tool from source into .bench_build/
(configured once, rebuilt incrementally), fills the benchmark's own
weight/trace/oracle cache there with an untimed prepare step (one
directory per build of ttbench, so a rebuild never reuses it), checks the
benchmark's own math, then runs one measurement. The last line of stdout
is the result object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a separate traced run (see perfbench/README.md).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CACHE = os.path.join(BUILD, "cache")
RUN_DIR = os.path.join(BUILD, "run")
TTBENCH = os.path.join(BUILD, "ttbench")
WORKLOADS = ("asr_tiers", "ic_hot", "ic_flood")
# TT_THREADS for every child: the library's global pool (rule
# generation at server boot, training in the prepare step). The
# server's serving pool is pinned separately, in ttbench/stack.hh.
TT_THREADS_PIN = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, env=None):
    """Run a step with its output on stderr; fail the benchmark on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        log(f"step failed: {' '.join(cmd)}: {err}")
        sys.exit(1)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to perfbench/ (src/ is missing)")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"], 300, env)
    run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4)], 800,
        env)


def describe(env):
    """Host facts recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "commit": commit or "unknown"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env["TT_THREADS"] = TT_THREADS_PIN
    env["TOLTIERS_CACHE"] = CACHE

    build(env)
    os.makedirs(RUN_DIR, exist_ok=True)
    run([TTBENCH, "prepare", "--cache", CACHE], 880, env)
    run([TTBENCH, "selftest", "--cache", CACHE], 60, env)

    cmd = [TTBENCH, "drive", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", CACHE,
           "--run-dir", RUN_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("drive timed out")
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"drive exited {proc.returncode} without a result")
        sys.exit(1)
    record = describe(env)
    record["run"] = lines[-2] if len(lines) > 1 else ""
    record["result"] = result
    with open(os.path.join(RUN_DIR, "last_run.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: record[k] for k in ("nproc", "cpu_model",
                                             "commit")}))
    print(record["run"])
    print(json.dumps(result))
    # A run with oracle mismatches (or an invalid, late generator)
    # still prints its result, then fails.
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
