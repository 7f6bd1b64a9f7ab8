#!/usr/bin/env python3
"""Determinism self-check of the benchmark's simulated numbers.

    python3 perfbench/test_determinism.py [workload ...]

For each workload (default: all four) runs the benchmark with one seed
twice at the pinned host thread count and once at one host thread, untraced
and traced, and requires every simulated metric to be bit-identical across
the three runs: the sim_* end-to-end metrics and every per-layer metric
that describes the modelled system rather than host time. Any drift is a
bug, not noise. Also checks that every run passes its oracle. Exits 0 when
all checks pass.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("fabric8", "host_skew8", "serve_mixed", "tpch6")
SEED = 7

# Per-layer metrics measured in host time; all others are simulated.
HOST_LAYER = {
    "data.gen_ms", "join.histogram_ms", "join.assignment_ms",
    "join.shuffle_ms", "join.local_ms", "net.run_ms", "sim.ns_per_event",
    "net.us_per_packet", "svc.run_ms", "oracle.ms", "trace.glue_ms",
    "trace.overhead_frac",
} | {"tpch.%s.host_ms" % q for q in ("Q3", "Q5", "Q10", "Q12", "Q14", "Q19")}


def run(workload, trace, host_threads=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace)]
    if host_threads is not None:
        cmd += ["--host-threads", str(host_threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def simulated(result, trace):
    metrics = result["metrics"]
    if trace:
        return {k: v["value"] for k, v in metrics.items() if k not in HOST_LAYER}
    return {k: v["value"] for k, v in metrics.items() if k.startswith("sim_")}


def main():
    failures = 0
    for workload in sys.argv[1:] or WORKLOADS:
        for trace in (0, 1):
            runs = {"pinned": run(workload, trace),
                    "pinned again": run(workload, trace),
                    "1 thread": run(workload, trace, host_threads=1)}
            base = simulated(runs["pinned"], trace)
            before = failures
            for label, result in runs.items():
                if not result["correct"] or result["failed"]:
                    print("FAIL %s trace=%d %s: oracle check failed"
                          % (workload, trace, label))
                    failures += 1
                got = simulated(result, trace)
                drift = sorted(k for k in base if got.get(k) != base[k])
                if drift:
                    print("FAIL %s trace=%d %s: drift in %s"
                          % (workload, trace, label, ", ".join(drift)))
                    failures += 1
            if failures == before:
                print("ok   %s trace=%d: %d simulated metrics identical"
                      % (workload, trace, len(base)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
