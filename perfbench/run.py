#!/usr/bin/env python3
"""Build and run the routesim benchmark (perfbench/README.md).

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload paper_kernel|variants_grid|serve_mixed \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ (the library from src/ plus the benchmark binary) in
.bench_build/perfbench as a Release build, runs one workload, writes the
full report with its provenance to .bench_build/results/, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  --smoke runs the tiny problem sizes the smoke
test uses.  Build output and diagnostics go to stderr.  Exits non-zero,
without a result line, when the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
# paper_kernel is not in BENCHMARK.json (perfbench/README.md says why), but
# runs the same way.
WORKLOADS = ("paper_kernel", "variants_grid", "serve_mixed")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
MAX_THREADS = 4


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError(f"no src/ under {ROOT}: nothing to build")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", str(nproc())], check=True, stdout=sys.stderr)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise RuntimeError(f"refusing to time a {build_type or 'default'} "
                           "build: the benchmark needs CMAKE_BUILD_TYPE=Release")
    return os.path.join(BUILD_DIR, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def src_lines():
    total = 0
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            with open(os.path.join(directory, name), "rb") as f:
                total += sum(1 for _ in f)
    return total


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes (the smoke test)")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    threads = min(MAX_THREADS, nproc())
    workdir = os.path.join(ROOT, ".bench_build", "run",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(threads), "--dir", workdir,
               "--scale", "smoke" if args.smoke else "full"]
    started = time.time()
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with code {proc.returncode}")
        return 1
    report = json.loads(lines[-1])

    correct = bool(report["correct"])
    emitted = {(name, m["unit"]) for name, m in report["metrics"].items()}
    declared = declared_metrics(args.trace == 1)
    if declared is not None and emitted != declared:
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(declared - emitted)}, extra {sorted(emitted - declared)}")
        correct = False
    if report["build_type"] != "Release":
        log(f"binary reports build type {report['build_type']!r}")
        correct = False

    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    provenance = {
        "nproc": nproc(),
        "threads": threads,
        "cpu_model": cpu_model(),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "run_wall_s": time.time() - started,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump({"provenance": provenance,
                   "failed_frac": failed / attempted,
                   "report": report,
                   "result": result}, f, indent=1)
        f.write("\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
