#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 bench_suite/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run named <workload>.<n>.json (n an
integer) whose last line is the JSON object run.py printed. Run the two sides
alternately, in separate checkouts, with the same --seconds; pairs are formed
per workload by sorting each side's files by run number. For every workload and metric it
prints each side's median and quartiles, the relative change of the median,
how many pairs the change won, and a verdict, following the rule for a small
sandbox:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the parent's own spread (its interquartile range)
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  not worse beyond the bound, but the parent's spread is wider
              than the bound, and not every change run beats every parent run
  unchanged   otherwise
  (no bound)  per-layer metrics: medians and wins only

Each side's wrong outputs and failed operations are printed per workload; a
change that fails more operations than the parent claims no improvement.
Exit status 1 when any metric is worse.
"""
import argparse
import glob
import json
import math
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_side(directory):
    """{workload: [result, ...]} ordered by run number."""
    runs = defaultdict(list)
    for path in glob.glob(os.path.join(directory, "*.*.json")):
        workload, number, _ = os.path.basename(path).rsplit(".", 2)
        if not number.isdigit():
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        runs[workload].append((int(number), json.loads(lines[-1])))
    return {w: [r for _, r in sorted(v, key=lambda kv: kv[0])]
            for w, v in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, may_improve):
    """Returns (verdict, wins, pairs) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if bound is None:
        return "(no bound)", wins, len(pairs)
    gain = sign * (c_med - p_med)
    if may_improve and wins >= math.ceil(0.9 * len(pairs)) and gain > p_q3 - p_q1:
        return "improved", wins, len(pairs)
    worse_by = -gain / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_side(args.parent_dir), load_side(args.change_dir)

    any_worse = False
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            continue
        print(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        failed = {}
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            wrong = sum(1 for r in runs if not r["correct"])
            failed[side] = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"   {side}: {wrong} runs with wrong outputs, {failed[side]} of "
                  f"{attempted} operations failed")
        print(f"   {'metric':<34} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'change':>8} {'wins':>7}  verdict")
        names = [n for n in spec if n in p_runs[0]["metrics"] and n in c_runs[0]["metrics"]]
        for name in names:
            m = spec[name]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v, wins, pairs = verdict(pv, cv, m["better"], m.get("bound"),
                                     failed["change"] <= failed["parent"])
            any_worse |= v == "worse"
            pq, cq = quartiles(pv), quartiles(cv)
            rel = (cq[1] - pq[1]) / abs(pq[1]) * 100 if pq[1] else 0.0
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"   {name:<34} {fmt(pq):>32} {fmt(cq):>32} {rel:>+7.1f}% "
                  f"{wins:>3}/{pairs:<3}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
