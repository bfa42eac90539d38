#!/usr/bin/env python3
"""Smoke test of bench_suite: every workload with 2-second windows.

    python3 bench_suite/smoke.py <path to the bench_suite binary>

Checks outputs and accounting only, never timings:
  * each workload exits 0 with "correct": true and no failed operation
    (GEMM/MLP/conv against src/baselines, stepped LLM output bitwise-equal to
    run(), every OK wire response bitwise-equal to an in-process run, exact
    terminal accounting);
  * each traced run writes a trace from which trace_summary.py yields every
    per-layer metric BENCHMARK.json names;
  * a fault leg runs wire_small with kernel_exec:throw:0.02 injected and must
    still exit 0 with exact accounting, reporting failed > 0.
Registered as the bench_suite_smoke ctest of the bench_suite package.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import trace_summary  # noqa: E402


def run(binary, workload, extra=(), env=None):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "2", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def main():
    binary = sys.argv[1]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(binary))) as tmp:
        for w in [w["name"] for w in bench["workloads"]]:
            rc, result, out = run(binary, w)
            if rc != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{w}: exit {rc}, result {result}\n{out}")
            trace = os.path.join(tmp, f"{w}.json")
            rc, result, out = run(binary, w, ["--trace", trace])
            if rc != 0 or not result or not result["correct"]:
                problems.append(f"{w} traced: exit {rc}, result {result}\n{out}")
                continue
            with open(trace) as f:
                _, metrics = trace_summary.summarize(json.load(f))
            missing = [m["name"] for m in bench["per_layer"] if m["name"] not in metrics]
            if missing:
                problems.append(f"{w} traced: per-layer metrics missing: {missing}")
            print(f"{w}: ok ({result['attempted']} operations, traced run with "
                  f"{len(metrics)} per-layer metrics)")

    env = dict(os.environ, PLT_FAULT_SPEC="kernel_exec:throw:0.02", PLT_FAULT_SEED="7")
    rc, result, out = run(binary, "wire_small", env=env)
    if rc != 0 or not result or not result["correct"] or result["failed"] == 0:
        problems.append(f"fault leg: exit {rc}, result {result}\n{out}")
    else:
        print(f"fault leg: ok ({result['failed']} of {result['attempted']} "
              f"requests failed, accounting exact)")

    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
