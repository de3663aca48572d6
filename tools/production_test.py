#!/usr/bin/env python3
"""Black-box production harness for routesim's service mode.

Drives the *built binaries* the way an operator would — no C++ test
framework, just processes, signals, pipes and files — and checks the
production contracts that unit tests cannot see from inside the process:

  exit-codes     usage errors and unopenable stores fail fast and loudly
  checkpoint     SIGINT mid-campaign exits 130 with a "checkpointed"
                 message and a durable store; rerunning the same command
                 finishes only the missing cells, and the resumed store
                 is byte-identical per key to an uninterrupted cold run
  serve          a cold round of daemon queries computes, a warm round is
                 answered entirely from cache (and faster), a *restarted*
                 daemon answers from the store — verified via the stats
                 op's cache_hits / store_hits / computed counters
  throughput     warm queries clear a conservative latency floor
  burst          N socket clients asking one new cell at once get one
                 computation (each replication run once, per the metrics
                 op's routesim_engine_tasks_total) and identical bytes

Usage:  python3 tools/production_test.py [--build BUILDDIR]

Exits 0 when every check passes, 1 otherwise; prints one PASS/FAIL line
per check (CI-greppable).  Wired into .github/workflows/ci.yml as the
`production` job.
"""

import argparse
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import time

# Generous ceilings: these guard against hangs, not performance.
RUN_TIMEOUT = 600  # full 12-cell campaign, seconds
RPC_TIMEOUT = 120  # one daemon response, seconds

GRID_ARGS = [
    "--scenario", "hypercube_greedy",
    "--grid", "rho=0.2:0.8:0.2",
    "--grid", "d=6:8:1",
]
GRID_CELLS = 12

SERVE_SCENARIOS = [
    "hypercube_greedy d=5 rho=0.3 measure=300 reps=2 seed=21",
    "hypercube_greedy d=5 rho=0.5 measure=300 reps=2 seed=22",
    "butterfly_greedy d=4 rho=0.4 measure=300 reps=2 seed=23",
]


class CheckFailure(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


def store_records(path):
    """Last-wins key -> raw record line, mirroring the loader's rule."""
    records = {}
    if not os.path.exists(path):
        return records
    with open(path, "rb") as handle:
        data = handle.read()
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "key" in record:
            records[record["key"]] = line
    return records


def run(cmd, timeout=RUN_TIMEOUT, **kwargs):
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout,
        stdin=subprocess.DEVNULL, **kwargs)


# ------------------------------------------------------------- daemon I/O


class Daemon:
    """routesim_serve over stdio, one JSON request/response per line."""

    def __init__(self, serve_bin, store):
        self.proc = subprocess.Popen(
            [serve_bin, "--store", store],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def rpc(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        deadline = time.monotonic() + RPC_TIMEOUT
        while True:
            if not self.selector.select(timeout=deadline - time.monotonic()):
                self.proc.kill()
                raise CheckFailure(
                    "daemon did not answer %r within %ds" % (request, RPC_TIMEOUT))
            line = self.proc.stdout.readline()
            require(line, "daemon closed stdout answering %r" % (request,))
            return json.loads(line)

    def shutdown(self):
        response = self.rpc({"op": "shutdown"})
        require(response.get("ok") is True, "shutdown not ok: %r" % response)
        code = self.proc.wait(timeout=RPC_TIMEOUT)
        require(code == 0, "daemon exited %d after shutdown" % code)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------- checks


def check_exit_codes(bench, serve, tmp):
    """Fast-fail contract: usage errors and bad stores exit non-zero."""
    result = run([bench, "--list"], timeout=60)
    require(result.returncode == 0, "--list exited %d" % result.returncode)

    result = run(bench_cmd(bench, "--cells"), timeout=60)
    require(result.returncode == 0, "--cells exited %d" % result.returncode)
    require("%d cells" % GRID_CELLS in result.stdout,
            "--cells did not report %d cells: %r" % (GRID_CELLS, result.stdout))

    result = run([bench, "--no-such-flag"], timeout=60)
    require(result.returncode != 0, "unknown flag accepted")

    result = run(bench_cmd(bench, "--store", "/no/such/dir/store.jsonl"),
                 timeout=60)
    require(result.returncode == 1,
            "unopenable --store exited %d, want 1" % result.returncode)

    result = run([serve, "--store", "/no/such/dir/store.jsonl"], timeout=60)
    require(result.returncode == 1,
            "serve with unopenable store exited %d, want 1" % result.returncode)

    result = run([serve, "--socket", "/tmp/x", "--port", "0"], timeout=60)
    require(result.returncode != 0, "--socket plus --port accepted")


def bench_cmd(bench, *extra):
    return [bench] + GRID_ARGS + list(extra)


def check_kill_and_resume(bench, serve, tmp):
    """SIGINT checkpoints; the same command resumes bit-identically."""
    killed = os.path.join(tmp, "killed_store.jsonl")
    cold = os.path.join(tmp, "cold_store.jsonl")

    # Interrupt once the first cell is durably on disk.
    proc = subprocess.Popen(bench_cmd(bench, "--store", killed),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    deadline = time.monotonic() + RUN_TIMEOUT
    while time.monotonic() < deadline:
        if store_records(killed):
            break
        require(proc.poll() is None,
                "campaign exited before any cell reached the store")
        time.sleep(0.05)
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT)
    require(proc.returncode == 130,
            "interrupted campaign exited %d, want 130" % proc.returncode)
    require("checkpointed" in stdout + stderr,
            "no checkpoint message in output: %r" % (stdout + stderr))
    checkpointed = store_records(killed)
    require(0 < len(checkpointed) < GRID_CELLS,
            "expected a partial store, got %d of %d cells"
            % (len(checkpointed), GRID_CELLS))
    print("  interrupted with %d of %d cells checkpointed"
          % (len(checkpointed), GRID_CELLS))

    # The identical command resumes and finishes the remaining cells.
    result = run(bench_cmd(bench, "--store", killed))
    require(result.returncode == 0,
            "resume exited %d: %s" % (result.returncode, result.stderr))
    require("will be reused" in result.stdout + result.stderr,
            "resume did not announce reused cells")
    resumed = store_records(killed)
    require(len(resumed) == GRID_CELLS,
            "resumed store has %d keys, want %d" % (len(resumed), GRID_CELLS))

    # An uninterrupted cold run into a fresh store must agree byte-for-byte
    # per key: same scenarios, same seeds, same shortest-round-trip digits.
    result = run(bench_cmd(bench, "--store", cold))
    require(result.returncode == 0, "cold run exited %d" % result.returncode)
    cold_records = store_records(cold)
    require(sorted(cold_records) == sorted(resumed),
            "cold and resumed stores cover different keys")
    for key, line in cold_records.items():
        require(resumed[key] == line,
                "resumed record differs from cold run for key %r" % key)
    print("  resumed store is byte-identical per key to the cold run")


def check_serve_rounds(bench, serve, tmp):
    """Cold round computes; warm round is all cache hits and faster."""
    store = os.path.join(tmp, "serve_store.jsonl")
    daemon = Daemon(serve, store)
    try:
        response = daemon.rpc({"op": "ping", "id": "hello"})
        require(response.get("ok") is True and response.get("id") == "hello",
                "bad ping response: %r" % response)

        t0 = time.monotonic()
        for index, scenario in enumerate(SERVE_SCENARIOS):
            response = daemon.rpc(
                {"op": "query", "id": index, "scenario": scenario})
            require(response.get("ok") is True,
                    "cold query failed: %r" % response)
            require(response.get("source") == "computed",
                    "cold query source %r, want computed" % response.get("source"))
        cold_seconds = time.monotonic() - t0

        t0 = time.monotonic()
        for index, scenario in enumerate(SERVE_SCENARIOS):
            response = daemon.rpc(
                {"op": "query", "id": 100 + index, "scenario": scenario})
            require(response.get("source") == "cache",
                    "warm query source %r, want cache" % response.get("source"))
        warm_seconds = time.monotonic() - t0
        require(warm_seconds < cold_seconds,
                "warm round (%.3fs) not faster than cold (%.3fs)"
                % (warm_seconds, cold_seconds))

        stats = daemon.rpc({"op": "stats"})
        require(stats.get("computed") == len(SERVE_SCENARIOS),
                "stats computed %r" % stats.get("computed"))
        require(stats.get("cache_hits") == len(SERVE_SCENARIOS),
                "stats cache_hits %r" % stats.get("cache_hits"))
        require(stats.get("store_records") == len(SERVE_SCENARIOS),
                "stats store_records %r" % stats.get("store_records"))

        # A malformed line answers ok:false and the daemon keeps serving.
        response = daemon.rpc({"op": "query"})
        require(response.get("ok") is False, "query without scenario accepted")
        response = daemon.rpc({"op": "ping"})
        require(response.get("ok") is True, "daemon wedged after an error")

        daemon.shutdown()
        print("  cold %.2fs -> warm %.3fs, all warm answers from cache"
              % (cold_seconds, warm_seconds))
    finally:
        daemon.kill()


def check_restart_serves_from_store(bench, serve, tmp):
    """A restarted daemon answers yesterday's queries from disk."""
    store = os.path.join(tmp, "serve_store.jsonl")
    require(len(store_records(store)) == len(SERVE_SCENARIOS),
            "serve store missing after previous check")
    daemon = Daemon(serve, store)
    try:
        for scenario in SERVE_SCENARIOS:
            response = daemon.rpc({"op": "query", "scenario": scenario})
            require(response.get("ok") is True, "store query failed")
            require(response.get("source") == "store",
                    "restarted daemon answered from %r, want store"
                    % response.get("source"))
        stats = daemon.rpc({"op": "stats"})
        require(stats.get("store_hits") == len(SERVE_SCENARIOS),
                "stats store_hits %r" % stats.get("store_hits"))
        require(stats.get("computed") == 0,
                "restarted daemon recomputed %r cells" % stats.get("computed"))
        daemon.shutdown()
        print("  restart served %d queries from the store, 0 recomputed"
              % len(SERVE_SCENARIOS))
    finally:
        daemon.kill()


def check_warm_throughput(bench, serve, tmp):
    """Warm answers are metadata work only: hold a conservative floor."""
    store = os.path.join(tmp, "serve_store.jsonl")
    warm_queries = 50
    floor_qps = 5.0  # vs ~1 qps when actually simulating: an order of margin
    daemon = Daemon(serve, store)
    try:
        daemon.rpc({"op": "query", "scenario": SERVE_SCENARIOS[0]})  # promote
        t0 = time.monotonic()
        for index in range(warm_queries):
            response = daemon.rpc(
                {"op": "query", "id": index, "scenario": SERVE_SCENARIOS[0]})
            require(response.get("source") == "cache",
                    "throughput query fell out of cache: %r" % response)
        elapsed = time.monotonic() - t0
        qps = warm_queries / elapsed if elapsed > 0 else float("inf")
        require(qps >= floor_qps,
                "warm throughput %.1f qps below the %.0f qps floor"
                % (qps, floor_qps))
        daemon.shutdown()
        print("  %d warm queries in %.3fs (%.0f qps)"
              % (warm_queries, elapsed, qps))
    finally:
        daemon.kill()


def raw_result(line):
    """The "result" object of a query response line, byte for byte."""
    marker = '"result":'
    at = line.find(marker)
    return line[at + len(marker):line.rindex("}")] if at >= 0 else ""


def engine_tasks_total(connection, reader):
    """routesim_engine_tasks_total, read through the metrics op (listed,
    at 0, from a fresh daemon's first scrape)."""
    connection.sendall(b'{"op":"metrics"}\n')
    response = json.loads(reader.readline())
    require(response.get("ok") is True, "metrics op failed: %r" % response)
    for line in response["metrics"].splitlines():
        if line.startswith("routesim_engine_tasks_total "):
            return float(line.split()[1])
    require(False, "metrics op lists no routesim_engine_tasks_total")
    return 0.0


def check_burst_computes_once(bench, serve, tmp):
    """N connections asking one new cell at once: one computation whose
    replications each run once, every answer the same bytes."""
    clients = 4
    reps = 4
    scenario = "hypercube_greedy d=6 rho=0.6 measure=2000 reps=%d seed=31" % reps
    path = os.path.join(tmp, "burst.sock")
    proc = subprocess.Popen(
        [serve, "--socket", path, "--threads", "1",
         "--store", os.path.join(tmp, "burst_store.jsonl")],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    connections = []
    try:
        deadline = time.monotonic() + RPC_TIMEOUT
        while not os.path.exists(path):
            require(proc.poll() is None, "daemon exited before listening")
            require(time.monotonic() < deadline, "daemon never listened")
            time.sleep(0.05)
        for _ in range(clients + 1):
            connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            connection.settimeout(RPC_TIMEOUT)
            connection.connect(path)
            connections.append(connection)
        readers = [connection.makefile("r") for connection in connections]
        control, burst = connections[0], connections[1:]
        tasks_before = engine_tasks_total(control, readers[0])
        require(tasks_before == 0.0,
                "a fresh daemon reports %r engine tasks" % tasks_before)

        request = (json.dumps({"op": "query", "scenario": scenario}) + "\n").encode()
        for connection in burst:
            connection.sendall(request)
        lines = [reader.readline() for reader in readers[1:]]
        responses = [json.loads(line) for line in lines]
        require(all(r.get("ok") is True for r in responses),
                "burst query failed: %r" % responses)
        sources = sorted(r.get("source") for r in responses)
        require(sources.count("computed") == 1,
                "burst sources %r, want exactly one computed" % sources)
        require(set(sources) <= {"computed", "inflight", "cache"},
                "burst sources %r" % sources)
        results = {raw_result(line) for line in lines}
        require(len(results) == 1, "burst answers differ: %r" % results)

        tasks = engine_tasks_total(control, readers[0]) - tasks_before
        require(tasks == reps,
                "the burst ran %r replication tasks, want %d" % (tasks, reps))
        control.sendall(b'{"op":"shutdown"}\n')
        readers[0].readline()
        code = proc.wait(timeout=RPC_TIMEOUT)
        require(code == 0, "daemon exited %d after shutdown" % code)
        print("  %d clients, sources %s, %d replication tasks"
              % (clients, ",".join(sources), tasks))
    finally:
        for connection in connections:
            connection.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


CHECKS = [
    ("exit codes and usage errors", check_exit_codes),
    ("kill mid-campaign, then resume", check_kill_and_resume),
    ("serve: cold computes, warm hits cache", check_serve_rounds),
    ("serve: restart answers from store", check_restart_serves_from_store),
    ("serve: warm throughput floor", check_warm_throughput),
    ("serve: a burst of identical queries computes once", check_burst_computes_once),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build",
                        help="CMake build directory (default: build)")
    args = parser.parse_args()

    bench = os.path.join(args.build, "bench", "routesim_bench")
    serve = os.path.join(args.build, "tools", "routesim_serve")
    for binary in (bench, serve):
        if not os.access(binary, os.X_OK):
            print("missing binary: %s (build it first)" % binary)
            return 1

    failures = 0
    with tempfile.TemporaryDirectory(prefix="routesim_production_") as tmp:
        for name, check in CHECKS:
            print("CHECK %s" % name)
            try:
                check(bench, serve, tmp)
            except (CheckFailure, subprocess.TimeoutExpired) as failure:
                failures += 1
                print("FAIL  %s: %s" % (name, failure))
            else:
                print("PASS  %s" % name)
    print("%d/%d production checks passed"
          % (len(CHECKS) - failures, len(CHECKS)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
