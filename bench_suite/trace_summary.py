#!/usr/bin/env python3
"""Summarize a bench_suite trace and emit its per-layer metrics.

    python3 bench_suite/trace_summary.py TRACE.json [--json]

Prints one row per span name: count, total time, self time (duration minus
the part its child spans cover), p50 and p90. Then the per-layer metrics:
the counters and probe results bench_suite stored in the trace's otherData,
plus the ones derived from the spans here:

    exec.us_p50, exec.us_p90  duration of "exec" spans: a kernel call, an LLM
                              step, a server-side model execution
    wait.us_mean              mean "op" span minus the exec time per op: what
                              an operation spends outside model execution
                              (queueing, batching window, wake-up, syscalls,
                              codec on the wire; harness gaps offline)
    trace.spans               spans recorded

--json prints the metrics as one JSON object instead of the tables.
"""
import argparse
import json
import math
import sys
from collections import defaultdict


def nearest_rank(sorted_values, p):
    """Smallest sample with at least a fraction p of the samples at or below it."""
    if not sorted_values:
        return 0.0
    k = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[min(k, len(sorted_values)) - 1]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_table(events):
    """Per span name: count, total and self time (us), sorted durations."""
    children = defaultdict(list)
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            children[parent].append((e["ts"], e["ts"] + e["dur"]))
    rows = defaultdict(lambda: {"durs": [], "self": 0.0})
    for e in events:
        t0, t1 = e["ts"], e["ts"] + e["dur"]
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(e["args"]["id"], ())]
        row = rows[e["name"]]
        row["durs"].append(e["dur"])
        row["self"] += e["dur"] - covered([k for k in kids if k[1] > k[0]])
    for row in rows.values():
        row["durs"].sort()
    return rows


def summarize(trace):
    """Returns (span table, per-layer metrics {name: {value, unit, n}})."""
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    table = span_table(events)
    metrics = dict(trace["otherData"]["metrics"])

    execs = sorted(e["dur"] for e in events if e["cat"] == "exec")
    ops = [e["dur"] for e in events if e["cat"] == "op"]
    metrics["exec.us_p50"] = {"value": nearest_rank(execs, 0.5), "unit": "us", "n": len(execs)}
    metrics["exec.us_p90"] = {"value": nearest_rank(execs, 0.9), "unit": "us", "n": len(execs)}
    wait = (sum(ops) - sum(execs)) / len(ops) if ops else 0.0
    metrics["wait.us_mean"] = {"value": wait, "unit": "us", "n": len(ops)}
    metrics["trace.spans"] = {"value": float(len(events)), "unit": "count", "n": 0}
    return table, metrics


def print_tables(table, metrics, out=sys.stdout):
    out.write(f"{'span':<24} {'count':>9} {'total ms':>11} {'self ms':>11} "
              f"{'p50 us':>11} {'p90 us':>11}\n")
    for name, row in sorted(table.items(), key=lambda kv: -sum(kv[1]["durs"])):
        d = row["durs"]
        out.write(f"{name:<24} {len(d):>9} {sum(d) / 1e3:>11.3f} "
                  f"{row['self'] / 1e3:>11.3f} {nearest_rank(d, 0.5):>11.2f} "
                  f"{nearest_rank(d, 0.9):>11.2f}\n")
    out.write("per-layer metrics:\n")
    for name, m in metrics.items():
        n = f" (n={m['n']})" if m.get("n") else ""
        out.write(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--json", action="store_true", help="print the metrics as JSON")
    args = ap.parse_args()
    with open(args.trace) as f:
        table, metrics = summarize(json.load(f))
    if args.json:
        print(json.dumps(metrics))
    else:
        print_tables(table, metrics)


if __name__ == "__main__":
    main()
