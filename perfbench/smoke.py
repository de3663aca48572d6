#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload run.py knows (those of BENCHMARK.json and the ungated
paper_kernel) at the tiny --smoke size, untraced twice and traced once, and
checks that each run

  - emits exactly the metric names and units BENCHMARK.json declares for
    its mode (end_to_end untraced, per_layer traced),
  - passes every correctness check and fails no operation (failed_frac 0),
  - repeats the untraced result digest of the same seed exactly.

Usage, from the root of a source tree:  python3 perfbench/smoke.py
Prints one PASS/FAIL line per check and exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_build", "results",
                        f"{workload}-seed{SEED}-trace{trace}-smoke.json")
    with open(path) as f:
        return result, json.load(f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0

    def check(ok, message):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {message}", flush=True)
        failures += 0 if ok else 1

    gated = {w["name"] for w in spec["workloads"]}
    check(gated <= set(WORKLOADS), "run.py knows every workload of BENCHMARK.json")
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 0, 1):
            result, record = run(workload, trace)
            declared = {(m["name"], m["unit"])
                        for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {(name, m["unit"]) for name, m in result["metrics"].items()}
            label = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result line has exactly the four keys")
            check(emitted == declared,
                  f"{label}: metric names and units match BENCHMARK.json")
            check(result["correct"], f"{label}: every correctness check passes")
            check(result["failed"] == 0 and record["failed_frac"] == 0,
                  f"{label}: failed_frac is 0")
            if trace == 0:
                digests.append(record["report"]["digest"])
        check(len(set(digests)) == 1,
              f"{workload}: result digest repeats across runs ({digests[0]})")
    print("smoke: " + ("OK" if failures == 0 else f"{failures} FAILED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
