#!/usr/bin/env python3
"""Benchmark entry point: builds bench_suite from source, runs one workload.

    python3 bench_suite/run.py --workload dense_kernels --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the plt
library and bench_suite into $CARGO_TARGET_DIR (default .bench_build); build
output goes to stderr. The binary's report is copied to stdout, followed by
one JSON line {"correct", "attempted", "failed", "metrics"} carrying the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
BENCHMARK.json names. --trace 1 keeps the trace under <build>/traces/ and
prints trace_summary.py's span table.

Exit status: 0 when every output was correct, 1 when one was wrong, 2 when
the build or the run failed (no result line is printed then).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import trace_summary  # noqa: E402

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally (a no-op build is ~0.1 s)."""
    steps = [["cmake", "--build", build_dir, "--target", "bench_suite",
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_suite")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(build_dir, "traces", f"{args.workload}-{args.seed}.json")
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_suite did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"bench_suite exited with status {proc.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])

    if trace_path:
        with open(trace_path) as f:
            table, measured = trace_summary.summarize(json.load(f))
        trace_summary.print_tables(table, measured)
        wanted = bench["per_layer"]
    else:
        measured = result["metrics"]
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    units = [m["name"] for m in wanted if measured[m["name"]]["unit"] != m["unit"]]
    if units:
        fail("units differ from BENCHMARK.json: " + ", ".join(units))
    result["metrics"] = {m["name"]: {"value": measured[m["name"]]["value"],
                                     "unit": m["unit"]} for m in wanted}
    sys.stdout.flush()
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
