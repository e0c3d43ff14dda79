#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload online_cold --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. Builds the program under test
(`wmp` library and `wmpctl`, from the repository's own CMake build) and the
load generator `wmpbench` into .bench_build/, then runs one workload and relays its
output: a human summary on stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__), ROOT))
WORKLOADS = ("online_cold", "online_recurring", "offline_retrain")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "wmpbench", "wmpctl"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    # Write the build's output back now, not during the measured phases.
    os.sync()
    return True


def find_wmpctl():
    for path in (os.path.join(BUILD, "repo", "wmpctl"),
                 os.path.join(BUILD, "wmpctl")):
        if os.access(path, os.X_OK):
            return path
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 1
    wmpctl = find_wmpctl()
    bench = os.path.join(BUILD, "wmpbench")
    if wmpctl is None or not os.access(bench, os.X_OK):
        log("build produced no wmpctl/wmpbench")
        return 1

    # Scratch space for logs, models and the socket; relative paths keep the
    # Unix socket path short wherever the checkout lives.
    workdir = os.path.join(".bench_build", "run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--wmpctl", wmpctl, "--workdir", workdir,
           "--trace-out", os.path.join(
               traces, f"{args.workload}-seed{args.seed}.jsonl")]
    # Its own process group, so a timeout can take down wmpbench and every
    # wmpctl it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    # A run whose outputs were wrong still reports what it measured.
    if lines and lines[-1].startswith("{"):
        print(lines[-1], flush=True)
    if proc.returncode != 0 or not lines:
        log(f"wmpbench exited with {proc.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
