#!/usr/bin/env python3
"""Checks EXPERIMENTS.md's verdicts for the network figures at paper scale.

Runs bench_fig06/08/09/11 at scale 1 (MGJ_BENCH_SCALE unset) with
MGJ_BENCH_JSON and asserts each "reproduced" verdict of EXPERIMENTS.md as
a tolerance or an ordering on the written BENCH_*.json documents. The
paper's figures are the only hardware reference this simulator has, so a
model change must keep these claims.

Usage: paper_claims.py <dir holding the bench_fig* binaries>
Exit status 0 iff every claim holds; each failed claim is printed.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCHES = ["fig06_multihop", "fig08_bisection_util", "fig09_skew",
           "fig11_overall"]
POLICIES = ["Bandwidth", "HopCount", "Latency", "MG-Join"]


def series(doc, name):
    """The named series as {x: y}."""
    for s in doc["series"]:
        if s["name"] == name:
            return {p["x"]: p["y"] for p in s["points"]}
    raise KeyError(f"{doc['name']}: no series {name!r}")


class Claims:
    def __init__(self):
        self.failed = 0

    def check(self, ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        self.failed += not ok


def fig06(doc, c):
    direct, multihop = series(doc, "DPRJ"), series(doc, "MG-Join")
    for g in (2, 3, 4):
        r = multihop[g] / direct[g]
        c.check(abs(r - 1.0) <= 0.02,
                f"fig06: multi-hop/direct at {g} GPUs is 1.00 +- 0.02 "
                f"(paper: identical), got {r:.3f}")
    for g in range(2, 9):
        c.check(multihop[g] >= 0.98 * direct[g],
                f"fig06: multi-hop not below direct at {g} GPUs "
                f"({multihop[g]:.1f} vs {direct[g]:.1f} GB/s)")
    r8 = multihop[8] / direct[8]
    c.check(r8 >= 2.0,
            f"fig06: multi-hop/direct at 8 GPUs >= 2.0 (paper: 2.35x), "
            f"got {r8:.2f}")


def fig08(doc, c):
    direct, mg = series(doc, "DPRJ"), series(doc, "MG-Join")
    c.check(mg[8] >= 90.0,
            f"fig08: MG-Join bisection utilization at 8 GPUs >= 90% "
            f"(paper: 97%), got {mg[8]:.1f}%")
    c.check(direct[8] <= 40.0,
            f"fig08: DPRJ utilization at 8 GPUs <= 40% (paper: ~30%), "
            f"got {direct[8]:.1f}%")
    for g in (6, 8):
        c.check(mg[g] >= 2.0 * direct[g],
                f"fig08: MG-Join >= 2x DPRJ utilization at {g} GPUs "
                f"({mg[g]:.1f}% vs {direct[g]:.1f}%)")


def fig09(doc, c):
    # Runs are z-major, one per policy in POLICIES order. A z's runs move
    # the same payload, so the shortest run is the fastest in absolute
    # terms.
    zs = sorted(series(doc, "MG-Join"))
    runs = doc["runs"]
    c.check(len(runs) == len(zs) * len(POLICIES),
            f"fig09: {len(zs) * len(POLICIES)} run digests, got {len(runs)}")
    if len(runs) != len(zs) * len(POLICIES):
        return
    for i, z in enumerate(zs):
        ms = [r["sim_total_ms"] for r in runs[4 * i:4 * i + 4]]
        best = min(range(4), key=lambda k: ms[k])
        c.check(POLICIES[best] == "MG-Join",
                f"fig09: MG-Join fastest in absolute terms at z={z} "
                f"(makespans ms {dict(zip(POLICIES, map(round, ms)))})")
    for name in ("HopCount", "Latency"):
        y = series(doc, name)[zs[-1]]
        c.check(y <= 0.67,
                f"fig09: static {name} degrades >= 1.5x by z={zs[-1]} "
                f"(paper: statics degrade up to 3x), got {y:.3f}")


def fig11(doc, c):
    umj, dprj, mg = (series(doc, n) for n in ("UMJ", "DPRJ", "MG-Join"))
    c.check(mg[8] >= 2.0 * dprj[8],
            f"fig11: MG-Join >= 2x DPRJ at 8 GPUs (paper: up to 2.5x), "
            f"got {mg[8] / dprj[8]:.2f}x")
    c.check(mg[8] >= 8.0 * umj[8],
            f"fig11: MG-Join >= 8x UMJ at 8 GPUs (paper: ~10x), "
            f"got {mg[8] / umj[8]:.1f}x")
    c.check(mg[8] >= 6.0 * mg[1],
            f"fig11: MG-Join scales >= 6x from 1 to 8 GPUs (paper: close "
            f"to linear), got {mg[8] / mg[1]:.2f}x")
    for g in range(5, 9):
        c.check(umj[g] < umj[1],
                f"fig11: UMJ on {g} GPUs below its 1-GPU throughput "
                f"({umj[g]:.2f} vs {umj[1]:.2f})")
    for g in range(2, 9):
        c.check(mg[g] > max(umj[g], dprj[g]),
                f"fig11: MG-Join fastest at {g} GPUs")


CHECKS = {"fig06_multihop": fig06, "fig08_bisection_util": fig08,
          "fig09_skew": fig09, "fig11_overall": fig11}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    bench_dir = sys.argv[1]
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, MGJ_BENCH_JSON=out)
        for var in ("MGJ_BENCH_SCALE", "MGJ_FAULTS", "MGJ_TRACE",
                    "MGJ_TELEMETRY"):
            env.pop(var, None)
        # The four benches are independent: run them side by side.
        procs = [subprocess.Popen([os.path.join(bench_dir, "bench_" + b)],
                                  env=env, stdout=subprocess.DEVNULL)
                 for b in BENCHES]
        for b, p in zip(BENCHES, procs):
            if p.wait() != 0:
                sys.exit(f"bench_{b} exited with {p.returncode}")
        c = Claims()
        for b in BENCHES:
            with open(os.path.join(out, f"BENCH_{b}.json"),
                      encoding="utf-8") as f:
                CHECKS[b](json.load(f), c)
    if c.failed:
        sys.exit(f"{c.failed} paper claim(s) failed")
    print("every paper claim holds")


if __name__ == "__main__":
    main()
