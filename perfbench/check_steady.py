#!/usr/bin/env python3
"""Repeat the benchmark on fresh seeds and report how steady it is.

    python3 perfbench/check_steady.py [--runs 10] [--first-seed 1] [--trace 0]
                                      [--out DIR] [--compare OLD_DIR] [WORKLOAD ...]

Runs the BENCHMARK.json command once per seed for each workload (all by
default) and prints, for every metric, the median, the quartiles and the
spread (inter-quartile distance as a share of the median) next to the
metric's bound. The raw results go to DIR/steady-<workload>.json (default
DIR: .perfbench_out/steady). --compare takes the DIR of an earlier set and
applies the acceptance rule: both spreads within the bound, and the new
median no worse than the old by more than the bound. Every metric, setup_s
included, is held to both rules. Exit code 1 when a rule fails.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import subprocess

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(".perfbench_out", "steady"))
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    os.makedirs(args.out, exist_ok=True)
    for workload in workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            runs.append({"seed": seed, "exit": p.returncode, "result": result})
            print("%s seed %d: exit %d %s" % (workload, seed, p.returncode,
                                               json.dumps(result.get("metrics", {}))), flush=True)
            if p.returncode != 0 or not result.get("correct"):
                ok = False
        with open(os.path.join(args.out, "steady-%s.json" % workload), "w") as f:
            json.dump(runs, f)
        prev = None
        if args.compare:
            with open(os.path.join(args.compare, "steady-%s.json" % workload)) as f:
                prev = json.load(f)
        good = [r["result"]["metrics"] for r in runs if r["result"].get("metrics")]
        for m in metrics:
            values = [g[m["name"]]["value"] for g in good if m["name"] in g]
            if len(values) < 2:
                continue
            q1, q2, q3 = bl.quartiles(values)
            s = bl.spread(values)
            bound = m.get("bound")
            line = "%-12s %-36s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f" % (
                workload, m["name"], q2, q1, q3, s)
            if bound is not None:
                line += "  bound %.3f (%s)" % (bound, "ok" if s <= bound / 3 else
                                               "within bound" if s <= bound else "TOO WIDE")
                if s > bound:
                    ok = False
                if prev:
                    before = [r["result"]["metrics"][m["name"]]["value"] for r in prev
                              if r["result"].get("metrics")]
                    passed, reasons = bl.bound_check(before, values, bound, m["better"])
                    line += "  vs old: %s" % ("ok" if passed else "; ".join(reasons))
                    ok = ok and passed
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
