#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs run.py untraced once per seed for each workload and prints, per
metric, the median of the runs and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound from BENCHMARK.json.  A spread above a third of the
bound is flagged: the benchmark is not steady enough for that bound.

Each workload's values are saved to .bench_build/spread/NAME.json.  When
an earlier set is saved there, each median is also compared with that
set's, the larger over the smaller, and a drift above the bound is flagged.
Exits non-zero when anything is flagged.

Usage, from the root of a source tree:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)

    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect or failed run")
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        saved = os.path.join(out_dir, f"{workload}.json")
        previous = None
        if os.path.exists(saved):
            with open(saved) as f:
                previous = json.load(f)
        with open(saved, "w") as f:
            json.dump(values, f, indent=1)
        print(f"{workload} ({args.runs} runs)")
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            line = (f"  {name:16s} median {med:.6g}  spread {spread:.4f}"
                    f"  bound {bounds[name]}")
            if spread >= bounds[name] / 3:
                line += "  <-- spread above bound/3"
                steady = False
            if previous and len(previous.get(name, [])) >= 2:
                # Either set may be the reference, so the larger median is
                # compared to the smaller one.
                old = statistics.median(previous[name])
                drift = max(med, old) / min(med, old) - 1
                line += f"  vs previous set {drift:+.4f}"
                if drift > bounds[name]:
                    line += "  <-- drift above bound"
                    steady = False
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
