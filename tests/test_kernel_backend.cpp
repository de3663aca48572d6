// Backend-seam tests: the soa_batch backend must be bit-identical to the
// scalar oracle on every adopting scheme and every observable surface
// (metrics, histograms, occupancy trackers, arc counters), and every
// scheme must reject backends it cannot honour with a catchable
// ScenarioError — never by silently falling back to scalar.
//
// The hexfloat pins live in tests/test_kernel_parity.cpp; this file pins
// the *relationship* between the backends instead, so it keeps working
// when the simulation itself legitimately changes.  The KernelArcQueue
// tests drive a bare kernel's arc queues through enqueue / finish_arc.

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "des/packet_kernel.hpp"
#include "fault/fault_model.hpp"
#include "routing/topology_greedy.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/permutation.hpp"

namespace routesim {
namespace {

// The full observable surface of a hypercube run, harvested into one
// vector so a single EXPECT_EQ sweep compares every metric exactly.
std::vector<double> harvest(const TopologyGreedySim& sim) {
  return {sim.delay().mean(),
          sim.delay().max(),
          sim.hops().mean(),
          sim.time_avg_population(),
          sim.kernel_stats().peak_population(),
          sim.final_population(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window()),
          static_cast<double>(sim.kernel_stats().arrivals_in_window()),
          sim.throughput(),
          sim.little_check().relative_error(),
          static_cast<double>(sim.kernel_stats().drops_in_window()),
          static_cast<double>(sim.kernel_stats().fault_drops_in_window()),
          sim.kernel_stats().delivery_ratio(),
          sim.kernel_stats().mean_stretch(),
          static_cast<double>(sim.arc_counters()[3].total_arrivals),
          static_cast<double>(sim.arc_counters()[3].external_arrivals)};
}

void expect_equal_runs(const TopologyRoutingConfig& base, double warmup,
                       double horizon) {
  TopologyRoutingConfig config = base;
  config.backend = KernelBackend::kScalar;
  TopologyGreedySim scalar_sim(config);
  scalar_sim.run(warmup, horizon);

  config.backend = KernelBackend::kSoaBatch;
  TopologyGreedySim soa_sim(config);
  soa_sim.run(warmup, horizon);

  const auto scalar_metrics = harvest(scalar_sim);
  const auto soa_metrics = harvest(soa_sim);
  ASSERT_EQ(scalar_metrics.size(), soa_metrics.size());
  for (std::size_t i = 0; i < scalar_metrics.size(); ++i) {
    EXPECT_EQ(scalar_metrics[i], soa_metrics[i]) << "metric index " << i;
  }
}

TEST(KernelBackend, HypercubeSlottedMatchesScalarExactly) {
  TopologyRoutingConfig config;
  config.spec.d = 6;
  config.lambda = 1.1;
  config.destinations = DestinationDistribution::uniform(6);
  config.seed = 31;
  config.slot = 1.0;
  expect_equal_runs(config, 30.0, 430.0);
}

// tau = 0.2: five slot controls per unit service time, so most ticks fire
// *between* completions and the completion times land exactly on tick
// boundaries — the tie the services-before-slot ordering proof is about.
TEST(KernelBackend, HypercubeTickBoundaryTauMatchesScalarExactly) {
  TopologyRoutingConfig config;
  config.spec.d = 5;
  config.lambda = 0.8;
  config.destinations = DestinationDistribution::bit_flip(5, 0.5);
  config.seed = 77;
  config.slot = 0.2;
  expect_equal_runs(config, 25.0, 325.0);
}

// Valiant's intermediate draw happens at spawn and the random-per-hop
// ablation draws in advance(): both in event order under either loop.
TEST(KernelBackend, ValiantAndRandomOrderMatchScalarExactly) {
  TopologyRoutingConfig config;
  config.spec.d = 6;
  config.lambda = 0.5;
  config.destinations = DestinationDistribution::uniform(6);
  config.seed = 13;
  config.slot = 0.5;
  config.valiant = true;
  expect_equal_runs(config, 30.0, 330.0);

  config.valiant = false;
  config.lambda = 1.0;
  config.dimension_order = DimensionOrder::kRandomPerHop;
  config.fault_policy = FaultPolicy::kAdaptive;
  config.arc_fault_rate = 0.05;
  expect_equal_runs(config, 30.0, 330.0);

  config.dimension_order = DimensionOrder::kDecreasing;
  expect_equal_runs(config, 30.0, 330.0);
}

TEST(KernelBackend, HypercubeFixedDestinationsMatchesScalarExactly) {
  const Permutation perm = Permutation::bit_reversal(6);
  TopologyRoutingConfig config;
  config.spec.d = 6;
  config.lambda = 0.25;
  config.destinations = DestinationDistribution::uniform(6);
  config.fixed_destinations = &perm.table();
  config.seed = 42;
  config.slot = 1.0;
  expect_equal_runs(config, 30.0, 330.0);
}

// Static faults draw from the kernel RNG at configure time and reroute at
// every hop; finite buffers drop at enqueue.  Both paths must consume the
// same randomness and count the same drops under either backend.
TEST(KernelBackend, HypercubeStaticFaultsAndFiniteBuffersMatchScalarExactly) {
  TopologyRoutingConfig config;
  config.spec.d = 6;
  config.lambda = 1.0;
  config.destinations = DestinationDistribution::uniform(6);
  config.seed = 55;
  config.slot = 0.5;
  config.fault_policy = FaultPolicy::kSkipDim;
  config.arc_fault_rate = 0.05;
  config.node_fault_rate = 0.02;
  config.buffer_capacity = 4;
  expect_equal_runs(config, 20.0, 320.0);
}

// The stats harvest side-channels — delay histogram and per-node occupancy
// trackers — must fill identically: same bins, same quantiles, same
// time-weighted occupancy averages.
TEST(KernelBackend, StatsHarvestMatchesScalarExactly) {
  TopologyRoutingConfig config;
  config.spec.d = 6;
  config.lambda = 1.2;
  config.destinations = DestinationDistribution::uniform(6);
  config.seed = 8;
  config.slot = 1.0;
  config.track_occupancy = true;
  config.track_delay_histogram = true;

  config.backend = KernelBackend::kScalar;
  TopologyGreedySim scalar_sim(config);
  scalar_sim.run(40.0, 440.0);
  config.backend = KernelBackend::kSoaBatch;
  TopologyGreedySim soa_sim(config);
  soa_sim.run(40.0, 440.0);

  ASSERT_TRUE(scalar_sim.kernel_stats().delay_histogram().has_value());
  ASSERT_TRUE(soa_sim.kernel_stats().delay_histogram().has_value());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(scalar_sim.kernel_stats().delay_histogram()->quantile(q),
              soa_sim.kernel_stats().delay_histogram()->quantile(q));
  }
  const auto& scalar_occupancy = scalar_sim.kernel_stats().occupancy_means();
  const auto& soa_occupancy = soa_sim.kernel_stats().occupancy_means();
  ASSERT_EQ(scalar_occupancy.size(), soa_occupancy.size());
  for (std::size_t node = 0; node < scalar_occupancy.size(); ++node) {
    EXPECT_EQ(scalar_occupancy[node], soa_occupancy[node]) << "node " << node;
  }
  EXPECT_EQ(scalar_sim.max_node_occupancy(), soa_sim.max_node_occupancy());
  const auto& scalar_arcs = scalar_sim.arc_counters();
  const auto& soa_arcs = soa_sim.arc_counters();
  ASSERT_EQ(scalar_arcs.size(), soa_arcs.size());
  for (std::size_t arc = 0; arc < scalar_arcs.size(); ++arc) {
    EXPECT_EQ(scalar_arcs[arc].total_arrivals, soa_arcs[arc].total_arrivals);
    EXPECT_EQ(scalar_arcs[arc].external_arrivals,
              soa_arcs[arc].external_arrivals);
  }
}

TEST(KernelBackend, ButterflySlottedMatchesScalarExactly) {
  TopologyRoutingConfig config;
  config.spec.name = "butterfly";
  config.spec.d = 5;
  config.lambda = 0.6;
  config.destinations = DestinationDistribution::bit_flip(5, 0.4);
  config.seed = 23;
  config.slot = 1.0;
  config.track_occupancy = true;

  config.backend = KernelBackend::kScalar;
  TopologyGreedySim scalar_sim(config);
  scalar_sim.run(30.0, 430.0);
  config.backend = KernelBackend::kSoaBatch;
  TopologyGreedySim soa_sim(config);
  soa_sim.run(30.0, 430.0);

  const KernelStats& scalar_stats = scalar_sim.kernel_stats();
  const KernelStats& soa_stats = soa_sim.kernel_stats();
  EXPECT_EQ(scalar_sim.delay().mean(), soa_sim.delay().mean());
  EXPECT_EQ(scalar_sim.hops().mean(), soa_sim.hops().mean());
  EXPECT_EQ(scalar_sim.time_avg_population(), soa_sim.time_avg_population());
  EXPECT_EQ(scalar_sim.throughput(), soa_sim.throughput());
  EXPECT_EQ(scalar_stats.deliveries_in_window(), soa_stats.deliveries_in_window());
  EXPECT_EQ(scalar_stats.arrivals_in_window(), soa_stats.arrivals_in_window());
  const auto& scalar_levels = scalar_stats.occupancy_means();
  const auto& soa_levels = soa_stats.occupancy_means();
  ASSERT_EQ(scalar_levels.size(), soa_levels.size());
  for (std::size_t level = 0; level < scalar_levels.size(); ++level) {
    EXPECT_EQ(scalar_levels[level], soa_levels[level]) << "level " << level;
  }
}

// A toy scheme for the batched loop: every packet walks six arcs, with no
// routing logic, so the kernel sees heavy slotted traffic on its own.
struct HopScheme {
  struct Pkt {
    std::uint16_t hops = 0;
    double gen_time = 0.0;
  };
  PacketKernel<Pkt>& kernel;
  std::uint32_t num_arcs;
  void on_spawn(double now) {
    kernel.count_arrival(now);
    const std::uint32_t pkt = kernel.allocate_packet();
    kernel.packet(pkt) = Pkt{0, now};
    const auto arc =
        static_cast<std::uint32_t>(kernel.rng().uniform_below(num_arcs));
    kernel.enqueue(now, arc, pkt, /*external=*/true);
  }
  std::uint32_t advance(std::uint32_t arc, std::uint32_t pkt) {
    const std::uint16_t hops = ++kernel.packet(pkt).hops;
    return hops == 6 ? kDeliver : (arc * 7 + 1) % num_arcs;
  }
  void commit(double now, std::uint32_t pkt, std::uint32_t next) {
    if (next == kDeliver) {
      const Pkt& packet = kernel.packet(pkt);
      kernel.deliver(now, pkt, packet.gen_time, packet.hops);
      return;
    }
    kernel.enqueue(now, next, pkt, /*external=*/false);
  }
  void on_arc_done(double now, std::uint32_t arc) {
    const std::uint32_t pkt = kernel.finish_arc(now, arc);
    commit(now, pkt, advance(arc, pkt));
  }
};

constexpr std::uint32_t kToyArcs = 6 * 64;  // the arcs of the 6-cube

PacketKernelConfig toy_batched_config() {
  PacketKernelConfig config;
  config.num_arcs = kToyArcs;
  config.seed = 5;
  config.birth_rate = 0.9 * kToyArcs / 6.0;  // per-arc load 0.9
  config.slot = 1.0;
  config.batched = true;
  return config;
}

// The batch wheel reuses its slots in place: after a long drive the item
// storage it keeps is bounded by (live batches) x (arcs), not by the number
// of ticks driven.
TEST(KernelBackend, BatchWheelStorageIsIndependentOfHorizon) {
  const double slot = 1.0;
  const auto retained = [&](double horizon) {
    PacketKernel<HopScheme::Pkt> kernel;
    kernel.configure(toy_batched_config());
    HopScheme scheme{kernel, kToyArcs};
    kernel.drive(scheme, 0.0, horizon);
    EXPECT_GT(kernel.stats().deliveries_in_window(), 0u);
    return kernel.retained_batch_capacity();
  };
  const std::size_t short_run = retained(200.0);
  const std::size_t long_run = retained(2000.0);
  // At most 1/slot + 2 batches are ever live, each of at most num_arcs
  // items; vector growth can double a slot's capacity past that.
  const std::size_t bound = 2 * (static_cast<std::size_t>(1.0 / slot) + 2) *
                            static_cast<std::size_t>(kToyArcs);
  EXPECT_LE(short_run, bound);
  EXPECT_LE(long_run, bound);
  EXPECT_LE(long_run, short_run + kToyArcs);
}

// The batched loop is only equivalent to the event loop under slotted
// time, Poisson births, FIFO service and a static fault set, and only
// drives a scheme that splits its hop into advance/commit: anything else
// is a precondition failure, never a silent fallback.
TEST(KernelBackend, BatchedDriveRejectsUnbatchableConfigs) {
  const auto drive = [](const PacketKernelConfig& config) {
    PacketKernel<HopScheme::Pkt> kernel;
    kernel.configure(config);
    HopScheme scheme{kernel, kToyArcs};
    kernel.drive(scheme, 0.0, 50.0);
  };
  EXPECT_NO_THROW(drive(toy_batched_config()));

  PacketKernelConfig continuous = toy_batched_config();
  continuous.slot = 0.0;
  EXPECT_THROW(drive(continuous), ContractViolation);

  PacketTrace trace;
  trace.dimension = 6;
  trace.packets.push_back(TracedPacket{1.0, 0, 1});
  PacketKernelConfig traced = toy_batched_config();
  traced.trace = &trace;
  EXPECT_THROW(drive(traced), ContractViolation);

  PacketKernelConfig lifo = toy_batched_config();
  lifo.service_order = ArcServiceOrder::kLifo;
  EXPECT_THROW(drive(lifo), ContractViolation);

  FaultModelConfig dynamic;
  dynamic.num_arcs = kToyArcs;
  dynamic.num_nodes = 64;
  dynamic.mtbf = 50.0;
  dynamic.mttr = 5.0;
  FaultModel faults;
  faults.configure(dynamic);
  ASSERT_TRUE(faults.dynamic());
  PacketKernelConfig faulty = toy_batched_config();
  faulty.fault_model = &faults;
  EXPECT_THROW(drive(faulty), ContractViolation);

  // An event-loop-only scheme: on_arc_done, but no advance/commit split.
  struct EventOnly {
    PacketKernel<HopScheme::Pkt>& kernel;
    void on_spawn(double) {}
    void on_arc_done(double, std::uint32_t) {}
  };
  PacketKernel<HopScheme::Pkt> kernel;
  kernel.configure(toy_batched_config());
  EventOnly event_only{kernel};
  EXPECT_THROW(kernel.drive(event_only, 0.0, 50.0), ContractViolation);
}

// --- arc queues through the public enqueue / finish_arc API -------------

using BareKernel = PacketKernel<HopScheme::Pkt>;

PacketKernelConfig bare_config(std::uint32_t num_arcs, ArcServiceOrder order,
                               std::uint32_t buffer_capacity = 0) {
  PacketKernelConfig config;
  config.num_arcs = num_arcs;
  config.seed = 9;
  config.stream_salt = 4;
  config.service_order = order;
  config.buffer_capacity = buffer_capacity;
  return config;
}

std::vector<std::uint32_t> allocate(BareKernel& kernel, int n) {
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < n; ++i) ids.push_back(kernel.allocate_packet());
  return ids;
}

// Pops n packets at `now`; the kernel's service ring needs nondecreasing
// completion times, so a test passes times that never go back.
std::vector<std::uint32_t> drain(BareKernel& kernel, std::uint32_t arc, int n,
                                 double now) {
  std::vector<std::uint32_t> served;
  for (int i = 0; i < n; ++i) served.push_back(kernel.finish_arc(now, arc));
  return served;
}

TEST(KernelArcQueue, FifoOrderPerArcOverInterleavedArcs) {
  BareKernel kernel;
  kernel.configure(bare_config(3, ArcServiceOrder::kFifo));
  const auto p = allocate(kernel, 7);
  // Arc 0: p0 p3 p5; arc 1: p1 p4; arc 2: p2 p6 — enqueued interleaved.
  const std::uint32_t arcs[] = {0, 1, 2, 0, 1, 0, 2};
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(kernel.enqueue(0.0, arcs[i], p[i], true));
  EXPECT_EQ(kernel.finish_arc(1.0, 0), p[0]);
  ASSERT_TRUE(kernel.enqueue(1.0, 0, p[0], false));  // re-queued at the tail
  EXPECT_EQ(drain(kernel, 0, 3, 1.0),
            (std::vector<std::uint32_t>{p[3], p[5], p[0]}));
  EXPECT_EQ(drain(kernel, 1, 2, 1.0), (std::vector<std::uint32_t>{p[1], p[4]}));
  EXPECT_EQ(drain(kernel, 2, 2, 1.0), (std::vector<std::uint32_t>{p[2], p[6]}));
}

// LIFO moves the tail to the head; the packet before it must become the
// new tail, or the next arrival would be linked behind the head.
TEST(KernelArcQueue, LifoMovesTailToHeadAndFixesTail) {
  BareKernel kernel;
  kernel.configure(bare_config(1, ArcServiceOrder::kLifo));
  const auto p = allocate(kernel, 5);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(kernel.enqueue(0.0, 0, p[i], true));
  EXPECT_EQ(kernel.finish_arc(1.0, 0), p[0]);  // queue now p3 | p1 p2
  ASSERT_TRUE(kernel.enqueue(1.0, 0, p[4], true));  // p3 | p1 p2 p4
  EXPECT_EQ(drain(kernel, 0, 4, 1.0),
            (std::vector<std::uint32_t>{p[3], p[4], p[2], p[1]}));
}

// Random order against a reference deque (the pick drawn from the kernel's
// own stream, after the pop), over a long mixed run that moves packets
// from the head, the middle and the tail, and recycles packet ids.
TEST(KernelArcQueue, RandomOrderMatchesReferenceAtHeadMiddleAndTail) {
  const PacketKernelConfig config = bare_config(3, ArcServiceOrder::kRandom);
  BareKernel kernel;
  kernel.configure(config);
  Rng model_rng(derive_stream(config.seed, config.stream_salt));
  Rng ops(123);
  std::vector<std::deque<std::uint32_t>> model(3);
  int head_picks = 0, middle_picks = 0, tail_picks = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto arc = static_cast<std::uint32_t>(ops.uniform_below(3));
    auto& queue = model[arc];
    if (queue.size() < 6 && (queue.empty() || ops.uniform_below(2) == 0)) {
      const std::uint32_t pkt = kernel.allocate_packet();
      ASSERT_TRUE(kernel.enqueue(1.0, arc, pkt, true));
      queue.push_back(pkt);
      continue;
    }
    const std::uint32_t expected = queue.front();
    queue.pop_front();
    if (!queue.empty()) {
      const std::uint64_t pick = model_rng.uniform_below(queue.size());
      if (queue.size() > 2) {
        ++(pick == 0 ? head_picks : pick + 1 == queue.size() ? tail_picks
                                                              : middle_picks);
      }
      const std::uint32_t chosen = queue[pick];
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
      queue.push_front(chosen);
    }
    ASSERT_EQ(kernel.finish_arc(1.0, arc), expected) << "step " << step;
    kernel.retire(1.0, expected);
  }
  EXPECT_GT(head_picks, 0);
  EXPECT_GT(middle_picks, 0);
  EXPECT_GT(tail_picks, 0);
}

TEST(KernelArcQueue, DropsExactlyAtBufferCapacity) {
  BareKernel kernel;
  kernel.configure(bare_config(2, ArcServiceOrder::kFifo, 3));
  const auto p = allocate(kernel, 6);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(kernel.enqueue(1.0, 0, p[i], true));
  EXPECT_FALSE(kernel.enqueue(1.0, 0, p[3], true));  // size == capacity
  EXPECT_EQ(kernel.stats().drops_in_window(), 1u);
  EXPECT_TRUE(kernel.enqueue(1.0, 1, p[4], true));  // other arcs unaffected
  EXPECT_EQ(kernel.finish_arc(2.0, 0), p[0]);
  EXPECT_TRUE(kernel.enqueue(2.0, 0, p[5], true));  // room for one again
  EXPECT_EQ(kernel.stats().drops_in_window(), 1u);
  EXPECT_EQ(drain(kernel, 0, 3, 2.0),
            (std::vector<std::uint32_t>{p[1], p[2], p[5]}));
}

// Reconfiguring with fewer arcs (and a one-packet buffer) must start from
// empty queues: a stale size would drop the first packet of every arc.
TEST(KernelArcQueue, ReconfigureWithFewerArcsStartsEmpty) {
  BareKernel kernel;
  kernel.configure(bare_config(8, ArcServiceOrder::kFifo));
  for (std::uint32_t arc = 0; arc < 8; ++arc) {
    for (const std::uint32_t pkt : allocate(kernel, 2)) {
      ASSERT_TRUE(kernel.enqueue(0.0, arc, pkt, true));
    }
  }
  kernel.configure(bare_config(4, ArcServiceOrder::kFifo, 1));
  for (std::uint32_t arc = 0; arc < 4; ++arc) {
    const auto p = allocate(kernel, 2);
    EXPECT_TRUE(kernel.enqueue(0.0, arc, p[0], true)) << "arc " << arc;
    EXPECT_FALSE(kernel.enqueue(0.0, arc, p[1], true)) << "arc " << arc;
    EXPECT_EQ(kernel.finish_arc(1.0, arc), p[0]);
  }
  EXPECT_EQ(kernel.stats().drops_in_window(), 4u);
}

// The registry path: a full replicated run() must produce the identical
// RunResult — same confidence intervals, same extras — for either backend.
TEST(KernelBackend, RunResultThroughRegistryMatchesScalarExactly) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 5;
  scenario.lambda = 0.9;
  scenario.tau = 1.0;
  scenario.measure = 200.0;
  scenario.plan = {3, 11, 1};

  scenario.backend = "scalar";
  const RunResult scalar_result = run(scenario);
  scenario.backend = "soa_batch";
  const RunResult soa_result = run(scenario);

  EXPECT_EQ(scalar_result.delay.mean, soa_result.delay.mean);
  EXPECT_EQ(scalar_result.delay.half_width, soa_result.delay.half_width);
  EXPECT_EQ(scalar_result.population.mean, soa_result.population.mean);
  EXPECT_EQ(scalar_result.throughput.mean, soa_result.throughput.mean);
  EXPECT_EQ(scalar_result.mean_hops, soa_result.mean_hops);
  EXPECT_EQ(scalar_result.max_little_error, soa_result.max_little_error);
  ASSERT_EQ(scalar_result.extras.size(), soa_result.extras.size());
  for (std::size_t i = 0; i < scalar_result.extras.size(); ++i) {
    EXPECT_EQ(scalar_result.extras[i].first, soa_result.extras[i].first);
    EXPECT_EQ(scalar_result.extras[i].second.mean,
              soa_result.extras[i].second.mean)
        << scalar_result.extras[i].first;
  }
}

// Because the backends are proven bit-identical, the backend knob is
// normalized out of the result-cache key: a soa_batch run can be served
// from a cached scalar result and vice versa.
TEST(KernelBackend, ResultCacheKeyNormalizesBackend) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 6;
  scenario.tau = 1.0;
  scenario.backend = "scalar";
  const std::string scalar_key = ResultCache::key(scenario);
  scenario.backend = "soa_batch";
  EXPECT_EQ(ResultCache::key(scenario), scalar_key);

  // The knob must still be a real axis everywhere else: distinct values
  // round-trip through the textual form.
  EXPECT_NE(scenario.to_string().find("backend=soa_batch"), std::string::npos);
}

TEST(KernelBackend, UnknownBackendValueNamesTheValidOnes) {
  Scenario scenario;
  try {
    scenario.set("backend", "vectorised");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("scalar"), std::string::npos) << message;
    EXPECT_NE(message.find("soa_batch"), std::string::npos) << message;
  }
}

TEST(KernelBackend, NonAdoptingSchemesRejectSoaBatch) {
  for (const char* scheme : {"valiant_mixing", "deflection", "multicast",
                             "network_q", "network_q_fifo", "network_q_ps",
                             "pipelined_baseline", "batch_greedy"}) {
    Scenario scenario;
    scenario.scheme = scheme;
    scenario.d = 4;
    scenario.backend = "soa_batch";
    try {
      (void)run(scenario);
      FAIL() << scheme << " accepted backend=soa_batch";
    } catch (const ScenarioError& error) {
      EXPECT_NE(std::string(error.what()).find("backend"), std::string::npos)
          << scheme << ": " << error.what();
    }
  }
}

TEST(KernelBackend, SoaBatchRejectsUnsupportedKnobCombinations) {
  Scenario base;
  base.scheme = "hypercube_greedy";
  base.d = 4;
  base.backend = "soa_batch";

  // Continuous time: the batch backend is slotted-only.
  Scenario continuous = base;
  continuous.tau = 0.0;
  EXPECT_THROW((void)run(continuous), ScenarioError);

  // Trace replay bypasses the Poisson spawn stream the backend mirrors.
  Scenario traced = base;
  traced.tau = 1.0;
  traced.workload = "trace";
  EXPECT_THROW((void)run(traced), ScenarioError);

  // Dynamic (mtbf/mttr) faults need the scalar event queue.
  Scenario dynamic_faults = base;
  dynamic_faults.tau = 1.0;
  dynamic_faults.fault_policy = "skip_dim";
  dynamic_faults.fault_mtbf = 50.0;
  dynamic_faults.fault_mttr = 5.0;
  EXPECT_THROW((void)run(dynamic_faults), ScenarioError);
}

}  // namespace
}  // namespace routesim
