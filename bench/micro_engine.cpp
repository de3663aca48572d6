// Experiment X18 — engine microbenchmarks (google-benchmark): raw costs of
// the event queue, the RNG, the PS virtual-time server, and end-to-end
// simulator throughput in packets per second.

#include <benchmark/benchmark.h>

#include <chrono>

#include "core/campaign.hpp"
#include "core/equivalence.hpp"
#include "des/event_queue.hpp"
#include "obs/trace.hpp"
#include "queueing/levelled_network.hpp"
#include "routing/topology_greedy.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace {

using namespace routesim;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(sample_exponential(rng, 1.0));
}
BENCHMARK(BM_RngExponential);

void BM_PoissonSmallMean(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(sample_poisson(rng, 2.5));
}
BENCHMARK(BM_PoissonSmallMean);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue<int> queue;
  Rng rng(4);
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < depth; ++i) queue.push(rng.uniform() * 100.0, 0);
  double now = 0.0;
  for (auto _ : state) {
    const auto event = queue.pop();
    now = event.time;
    queue.push(now + rng.uniform() * 2.0, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

// One PS server (unit rate, Poisson arrivals at rate 0.9) run by
// LevelledNetwork: the PsVirtualClock every discipline=ps result runs on,
// with the network's event queue and stale-completion filter around it.
void BM_PsServerNetwork(benchmark::State& state) {
  LevelledNetworkConfig config;
  config.servers.push_back(LevelledServerSpec{1.0, 0.9, {}});
  config.discipline = Discipline::kPs;
  config.seed = 5;
  std::uint64_t departures = 0;
  for (auto _ : state) {
    LevelledNetwork net(config);
    net.run(0.0, 1000.0);
    departures += net.departures_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(departures));
  state.SetLabel("customers");
}
BENCHMARK(BM_PsServerNetwork);

void BM_TopologyGreedySim(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    TopologyRoutingConfig config;
    config.spec.d = d;
    config.lambda = 1.2;  // rho = 0.6
    config.destinations = DestinationDistribution::uniform(d);
    config.seed = 6;
    TopologyGreedySim sim(config);
    sim.run(0.0, 500.0);
    delivered += sim.kernel_stats().deliveries_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.SetLabel("packets");
}
BENCHMARK(BM_TopologyGreedySim)->Arg(6)->Arg(8)->Arg(10);

// End-to-end kernel throughput at heavy traffic (d=10, rho = lambda*p =
// 0.9): the perf-trajectory headline number for the shared packet kernel.
// A fresh simulator per iteration, so construction + teardown are included.
void BM_KernelHypercubeHeavyTraffic(benchmark::State& state) {
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    TopologyRoutingConfig config;
    config.spec.d = 10;
    config.lambda = 1.8;  // rho = 0.9
    config.destinations = DestinationDistribution::uniform(10);
    config.seed = 6;
    TopologyGreedySim sim(config);
    sim.run(0.0, 300.0);
    delivered += sim.kernel_stats().deliveries_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.SetLabel("packets");
}
BENCHMARK(BM_KernelHypercubeHeavyTraffic);

// Same workload through reset(): kernel storage (packet pool, arc queues,
// event ring) is reused across iterations exactly as replication workers
// reuse it across reps.  The gap to BM_KernelHypercubeHeavyTraffic is the
// per-replication allocation cost that storage reuse eliminates.
void BM_KernelHypercubeStorageReuse(benchmark::State& state) {
  TopologyRoutingConfig config;
  config.spec.d = 10;
  config.lambda = 1.8;  // rho = 0.9
  config.destinations = DestinationDistribution::uniform(10);
  config.seed = 6;
  TopologyGreedySim sim(config);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    sim.reset(config);
    sim.run(0.0, 300.0);
    delivered += sim.kernel_stats().deliveries_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.SetLabel("packets");
}
BENCHMARK(BM_KernelHypercubeStorageReuse);

// The heavy-traffic workload in slotted time (§3.4, tau = 1): same d=10 /
// rho=0.9 / seed as the continuous headline above, through reset().
void BM_KernelSlottedHeavyTraffic(benchmark::State& state) {
  TopologyRoutingConfig config;
  config.spec.d = 10;
  config.lambda = 1.8;  // rho = 0.9
  config.destinations = DestinationDistribution::uniform(10);
  config.seed = 6;
  config.slot = 1.0;
  TopologyGreedySim sim(config);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    sim.reset(config);
    sim.run(0.0, 300.0);
    delivered += sim.kernel_stats().deliveries_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.SetLabel("packets");
}
BENCHMARK(BM_KernelSlottedHeavyTraffic);

// Marginal cost per hop as the cube grows (the paper's d-scaling): the
// continuous greedy run at rho = 0.9 on d=8 and d=12.  Each side times two
// horizons, min-of-N each, and divides the time difference by the hop
// difference (every enqueue onto an arc is one hop), so set-up and the
// warm-up transient before the shorter horizon cancel.  d12_over_d8 is how
// much that cost grows from 2^8 to 2^12 nodes, as the arc headers and
// packet records outgrow the caches; CI fails a build whose ratio exceeds 2.
void BM_KernelHopScaling(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  struct Side {
    int d;
    double short_horizon;
    double long_horizon;
    double best_short_s = 1e300;
    double best_long_s = 1e300;
    std::uint64_t short_hops = 0;
    std::uint64_t long_hops = 0;
  };
  // Horizons sized so each side differences several million hops.
  Side sides[] = {{8, 1000.0, 4000.0}, {12, 100.0, 300.0}};
  const auto hops_of = [](const TopologyGreedySim& sim) {
    std::uint64_t hops = 0;
    for (const ArcCounters& arc : sim.arc_counters()) hops += arc.total_arrivals;
    return hops;
  };
  for (auto _ : state) {
    for (Side& side : sides) {
      TopologyRoutingConfig config;
      config.spec.d = side.d;
      config.lambda = 1.8;  // rho = 0.9
      config.destinations = DestinationDistribution::uniform(side.d);
      config.seed = 6;
      TopologyGreedySim sim(config);
      for (const double horizon : {side.short_horizon, side.long_horizon}) {
        sim.reset(config);
        const auto start = clock::now();
        sim.run(0.0, horizon);
        const double elapsed =
            std::chrono::duration<double>(clock::now() - start).count();
        const bool is_short = horizon == side.short_horizon;
        double& best = is_short ? side.best_short_s : side.best_long_s;
        best = std::min(best, elapsed);
        (is_short ? side.short_hops : side.long_hops) = hops_of(sim);
      }
    }
  }
  const auto ns_per_hop = [](const Side& side) {
    return 1e9 * (side.best_long_s - side.best_short_s) /
           static_cast<double>(side.long_hops - side.short_hops);
  };
  state.counters["d8_ns_per_hop"] = ns_per_hop(sides[0]);
  state.counters["d12_ns_per_hop"] = ns_per_hop(sides[1]);
  state.counters["d12_over_d8"] = ns_per_hop(sides[1]) / ns_per_hop(sides[0]);
}
BENCHMARK(BM_KernelHopScaling)->Unit(benchmark::kMillisecond)->Iterations(5);

// Tracing cost on the heavy-traffic kernel workload.  With no ambient
// session the kernel's entire added work is one disabled TraceSpan per
// drive() call — an out-of-line thread-local load and two null checks,
// nanoseconds against a run of tens of milliseconds.  A differential
// end-to-end timing cannot resolve that: shared-runner noise (steal
// time, frequency scaling) is several percent per run, orders of
// magnitude above the signal, so an honest subtraction is pure noise —
// measured A/A deltas on CI-class machines swing ±5%.  Instead the
// benchmark measures the two factors directly, each with tight error
// bars: the per-site cost of the exact disabled-path instrumentation
// sequence (averaged over millions of executions, so per-run noise
// vanishes) and the plain run time (min-of-N).  Their ratio is the
// disabled-path overhead; CI asserts trace_overhead_pct stays under 1%.
// plain_s vs traced_s (same workload under a live session, min-of-N) is
// reported alongside for eyeballing the enabled path.
void BM_TraceOverhead(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  TopologyRoutingConfig config;
  config.spec.d = 10;
  config.lambda = 1.8;  // rho = 0.9
  config.destinations = DestinationDistribution::uniform(10);
  config.seed = 6;
  TopologyGreedySim sim(config);

  // One untimed warm-up pass so neither side is charged for first-touch
  // allocation of kernel storage.
  sim.reset(config);
  sim.run(0.0, 300.0);

  // The disabled-path sequence the kernel runs once per drive():
  // construct and destroy a TraceSpan over the ambient (null) session.
  // thread_trace() is out-of-line, so the loop cannot be folded away.
  constexpr int kSiteReps = 1 << 22;
  const auto site_start = clock::now();
  for (int i = 0; i < kSiteReps; ++i) {
    obs::TraceSpan span(obs::thread_trace(), "kernel.drive", "kernel");
  }
  const double site_s =
      std::chrono::duration<double>(clock::now() - site_start).count() /
      kSiteReps;

  const auto timed_run = [&](obs::TraceSession* session) {
    obs::ThreadTraceScope scope(session);
    sim.reset(config);
    const auto start = clock::now();
    sim.run(0.0, 300.0);
    return std::chrono::duration<double>(clock::now() - start).count();
  };

  double best_plain_s = 1e300;
  double best_traced_s = 1e300;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    obs::TraceSession session;
    best_plain_s = std::min(best_plain_s, timed_run(nullptr));
    best_traced_s = std::min(best_traced_s, timed_run(&session));
    delivered += sim.kernel_stats().deliveries_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.SetLabel("packets");
  state.counters["plain_s"] = best_plain_s;
  state.counters["traced_s"] = best_traced_s;
  state.counters["site_ns"] = site_s * 1e9;
  // One instrumented site per drive(), one drive() per run.
  state.counters["trace_overhead_pct"] = 100.0 * site_s / best_plain_s;
}
BENCHMARK(BM_TraceOverhead)->Unit(benchmark::kMillisecond)->Iterations(8);

// Campaign scheduler vs the serial per-cell run() loop on a 12-cell grid
// (rho in {0.2,...,0.8} x d in {4,6,8}), reps=2 per cell so the serial
// baseline is pool-starved exactly like the historic bench loops (each
// run() can use at most `reps` workers, the campaign uses all cores across
// cell boundaries).  The serial loop is timed once up front; the counters
// report both absolute times and speedup_vs_serial — the perf-trajectory
// headline for the batch layer.  On a single-core host the two are
// necessarily equal (speedup ~ 1); the gap opens with hardware
// concurrency.
void BM_CampaignVsSerial(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  Scenario base;
  base.scheme = "hypercube_greedy";
  base.plan = {2, 9};
  base.measure = 300.0;
  Campaign campaign("micro_campaign_vs_serial");
  campaign.grid(base, {SweepSpec::parse("rho=0.2:0.8:0.2"),
                       SweepSpec::parse("d=4:8:2")});

  // One untimed warm-up pass so the serial baseline is not charged for
  // first-touch allocation of the per-thread simulator storage.
  for (const auto& cell : campaign.cells()) {
    benchmark::DoNotOptimize(run(cell.scenario));
  }

  // Time both sides once per iteration and report min-of-N for both, so a
  // single noisy sample cannot bias the speedup in either direction.
  double best_serial_s = 1e300;
  double best_campaign_s = 1e300;
  for (auto _ : state) {
    const auto serial_start = clock::now();
    for (const auto& cell : campaign.cells()) {
      benchmark::DoNotOptimize(run(cell.scenario));
    }
    const double serial_elapsed =
        std::chrono::duration<double>(clock::now() - serial_start).count();
    best_serial_s = std::min(best_serial_s, serial_elapsed);

    const Engine engine;  // no cache: measure scheduling, not memoisation
    const auto campaign_start = clock::now();
    const auto results = engine.run(campaign);
    const double campaign_elapsed =
        std::chrono::duration<double>(clock::now() - campaign_start).count();
    benchmark::DoNotOptimize(results.data());
    best_campaign_s = std::min(best_campaign_s, campaign_elapsed);
  }
  state.counters["cells"] = static_cast<double>(campaign.size());
  state.counters["serial_s"] = best_serial_s;
  state.counters["campaign_s"] = best_campaign_s;
  state.counters["speedup_vs_serial"] = best_serial_s / best_campaign_s;
}
BENCHMARK(BM_CampaignVsSerial)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_LevelledNetworkQ(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::uint64_t departed = 0;
  for (auto _ : state) {
    LevelledNetwork net(
        make_hypercube_network_q(d, 1.2, 0.5, Discipline::kFifo, 7));
    net.run(0.0, 500.0);
    departed += net.departures_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(departed));
  state.SetLabel("customers");
}
BENCHMARK(BM_LevelledNetworkQ)->Arg(6)->Arg(8);

void BM_LevelledNetworkQps(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::uint64_t departed = 0;
  for (auto _ : state) {
    LevelledNetwork net(make_hypercube_network_q(d, 1.2, 0.5, Discipline::kPs, 8));
    net.run(0.0, 500.0);
    departed += net.departures_in_window();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(departed));
  state.SetLabel("customers");
}
BENCHMARK(BM_LevelledNetworkQps)->Arg(6);

}  // namespace

BENCHMARK_MAIN();
