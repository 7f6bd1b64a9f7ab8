#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload fabric8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and compiles
perfbench/ (which pulls the simulator libraries from src/) into
.bench_build/perfbench; later calls only re-check that build. The runner's
last stdout line is the JSON result. Build output goes to stderr.

Any MGJ_* variable is removed from the runner's environment, since several
of them change simulator behaviour or attach observability sinks.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fabric8", "host_skew8", "serve_mixed", "tpch6")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures (once) and builds the runner; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--host-threads", type=int, default=None,
                   help="override the pinned host thread count (tests only)")
    args = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("MGJ_")}
    cleared = sorted(set(os.environ) - set(env))
    if cleared:
        print("perfbench: cleared " + " ".join(cleared), file=sys.stderr)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(
               BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    if args.host_threads is not None:
        cmd += ["--host-threads", str(args.host_threads)]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
