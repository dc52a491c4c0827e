#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--workloads q3_cache,q9_warm,q3_gray]
        [--seeds 1,2,...,10] [--seconds N]

Runs `perfbench/run.py` once per (workload, seed) with `--trace 0`, then
prints, per workload and end-to-end metric of `BENCHMARK.json`, the median,
the quartile spread as a share of the median (as
`statistics.quantiles(values, n=4)` gives the quartiles) and the metric's
bound. A spread at or above a third of its bound is flagged; `setup_s` is
listed but, like the acceptance rule, not held to its bound. Exits 1 if
any run failed or reported incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_one(workload, seed, seconds):
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            res = run_one(workload, seed, args.seconds)
            ok &= bool(res["correct"]) and res["failed"] == 0
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: "
                  + " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        for name, bound in bounds.items():
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- over bound/3"
            print(f"{workload:<9} {name:<12} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
