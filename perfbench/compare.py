#!/usr/bin/env python3
"""Compare two sets of benchmark runs: behaviour first, then timing.

Usage:

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file is a `perfbench/out/runs.jsonl` run log (one JSON record per run,
appended by the benchmark). Runs are matched by (workload, seed, trace).

* Behaviour: `virtual_s`, the output fingerprint and every count metric
  are deterministic for given code and seed. Any difference between the
  two files is listed as a behaviour change, separately from timing, so a
  performance change can show that its `virtual_s` is bit-identical.
* Timing: per workload, the median of each time metric over the matched
  runs, before and after. Timings are compared only when every run in
  both files carries the same machine tag (nproc, CPU model, rustc);
  otherwise they are not comparable and are not printed.

Exits 1 when a behaviour change was found.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            runs.setdefault((r["workload"], r["seed"], r["trace"]), []).append(r)
    return runs


def behaviour_diffs(a, b):
    if a is None or b is None:
        return [] if a == b else ["behaviour missing on one side"]
    out = []
    if a["virtual_s"] != b["virtual_s"]:
        out.append(f"virtual_s {a['virtual_s']!r} -> {b['virtual_s']!r}")
    if a["fingerprint"] != b["fingerprint"]:
        out.append(f"output fingerprint {a['fingerprint']} -> {b['fingerprint']}")
    for name in sorted(set(a["counts"]) | set(b["counts"])):
        x, y = a["counts"].get(name), b["counts"].get(name)
        if x != y:
            out.append(f"{name} {x!r} -> {y!r}")
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(sys.argv[1]), load(sys.argv[2])
    shared = sorted(set(before) & set(after))
    if not shared:
        print("no (workload, seed, trace) run appears in both files")
        return 2

    changed = False
    print("== behaviour ==")
    for key in shared:
        # Within one file all runs of a key must agree too.
        ref = before[key][0]["behaviour"]
        for side, runs in (("before", before[key]), ("after", after[key])):
            for r in runs[1:]:
                for d in behaviour_diffs(ref if side == "before" else runs[0]["behaviour"],
                                         r["behaviour"]):
                    print(f"  {key[0]} seed {key[1]}: runs {side} disagree: {d}")
                    changed = True
        for d in behaviour_diffs(ref, after[key][0]["behaviour"]):
            print(f"  BEHAVIOUR CHANGE {key[0]} seed {key[1]}: {d}")
            changed = True
    if not changed:
        print(f"  identical on all {len(shared)} matched (workload, seed, trace) runs")

    print("== timing ==")
    tags = {r["machine"] for side in (before, after) for k in shared for r in side[k]}
    if len(tags) != 1:
        print("  runs come from different machines; timings are not comparable:")
        for t in sorted(tags):
            print(f"    {t}")
        return 1 if changed else 0
    print(f"  machine: {tags.pop()}")
    for workload in sorted({k[0] for k in shared}):
        for trace in (0, 1):
            keys = [k for k in shared if k[0] == workload and k[2] == trace]
            if not keys:
                continue
            # Virtual seconds are behaviour, compared above, not host timing.
            names = [n for n, m in before[keys[0]][0]["metrics"].items()
                     if m["unit"] == "s" and "virtual" not in n]
            for name in names:
                xs = [r["metrics"][name]["value"] for k in keys for r in before[k]]
                ys = [r["metrics"][name]["value"] for k in keys for r in after[k]]
                mx, my = statistics.median(xs), statistics.median(ys)
                rel = f"{(my - mx) / mx:+.1%}" if mx else "n/a"
                print(f"  {workload:<9} {name:<24} {mx:12.6f} -> {my:12.6f} s  {rel}"
                      f"  (n={len(xs)}/{len(ys)})")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
