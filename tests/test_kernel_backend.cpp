// Backend-seam tests: the soa_batch backend must be bit-identical to the
// scalar oracle on every adopting scheme and every observable surface
// (metrics, histograms, occupancy trackers, arc counters), and every
// scheme must reject backends it cannot honour with a catchable
// ScenarioError — never by silently falling back to scalar.
//
// The hexfloat pins live in tests/test_kernel_parity.cpp; this file pins
// the *relationship* between the backends instead, so it keeps working
// when the simulation itself legitimately changes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "routing/greedy_butterfly.hpp"
#include "routing/greedy_hypercube.hpp"
#include "workload/permutation.hpp"

namespace routesim {
namespace {

// The full observable surface of a hypercube run, harvested into one
// vector so a single EXPECT_EQ sweep compares every metric exactly.
std::vector<double> harvest(const GreedyHypercubeSim& sim) {
  return {sim.delay().mean(),
          sim.delay().max(),
          sim.hops().mean(),
          sim.time_avg_population(),
          sim.peak_population(),
          sim.final_population(),
          static_cast<double>(sim.deliveries_in_window()),
          static_cast<double>(sim.arrivals_in_window()),
          sim.throughput(),
          sim.little_check().relative_error(),
          static_cast<double>(sim.drops_in_window()),
          static_cast<double>(sim.fault_drops_in_window()),
          sim.delivery_ratio(),
          sim.mean_stretch(),
          static_cast<double>(sim.arc_counters()[3].total_arrivals),
          static_cast<double>(sim.arc_counters()[3].external_arrivals)};
}

void expect_equal_runs(const GreedyHypercubeConfig& base, double warmup,
                       double horizon) {
  GreedyHypercubeConfig config = base;
  config.backend = KernelBackend::kScalar;
  GreedyHypercubeSim scalar_sim(config);
  scalar_sim.run(warmup, horizon);

  config.backend = KernelBackend::kSoaBatch;
  GreedyHypercubeSim soa_sim(config);
  soa_sim.run(warmup, horizon);

  const auto scalar_metrics = harvest(scalar_sim);
  const auto soa_metrics = harvest(soa_sim);
  ASSERT_EQ(scalar_metrics.size(), soa_metrics.size());
  for (std::size_t i = 0; i < scalar_metrics.size(); ++i) {
    EXPECT_EQ(scalar_metrics[i], soa_metrics[i]) << "metric index " << i;
  }
}

TEST(KernelBackend, HypercubeSlottedMatchesScalarExactly) {
  GreedyHypercubeConfig config;
  config.d = 6;
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
  GreedyHypercubeConfig config;
  config.d = 5;
  config.lambda = 0.8;
  config.destinations = DestinationDistribution::bit_flip(5, 0.5);
  config.seed = 77;
  config.slot = 0.2;
  expect_equal_runs(config, 25.0, 325.0);
}

TEST(KernelBackend, HypercubeFixedDestinationsMatchesScalarExactly) {
  const Permutation perm = Permutation::bit_reversal(6);
  GreedyHypercubeConfig config;
  config.d = 6;
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
  GreedyHypercubeConfig config;
  config.d = 6;
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
  GreedyHypercubeConfig config;
  config.d = 6;
  config.lambda = 1.2;
  config.destinations = DestinationDistribution::uniform(6);
  config.seed = 8;
  config.slot = 1.0;
  config.track_node_occupancy = true;
  config.track_delay_histogram = true;

  config.backend = KernelBackend::kScalar;
  GreedyHypercubeSim scalar_sim(config);
  scalar_sim.run(40.0, 440.0);
  config.backend = KernelBackend::kSoaBatch;
  GreedyHypercubeSim soa_sim(config);
  soa_sim.run(40.0, 440.0);

  ASSERT_TRUE(scalar_sim.delay_histogram().has_value());
  ASSERT_TRUE(soa_sim.delay_histogram().has_value());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(scalar_sim.delay_histogram()->quantile(q),
              soa_sim.delay_histogram()->quantile(q));
  }
  const auto& scalar_occupancy = scalar_sim.node_mean_occupancy();
  const auto& soa_occupancy = soa_sim.node_mean_occupancy();
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
  GreedyButterflyConfig config;
  config.d = 5;
  config.lambda = 0.6;
  config.destinations = DestinationDistribution::bit_flip(5, 0.4);
  config.seed = 23;
  config.slot = 1.0;
  config.track_level_occupancy = true;

  config.backend = KernelBackend::kScalar;
  GreedyButterflySim scalar_sim(config);
  scalar_sim.run(30.0, 430.0);
  config.backend = KernelBackend::kSoaBatch;
  GreedyButterflySim soa_sim(config);
  soa_sim.run(30.0, 430.0);

  EXPECT_EQ(scalar_sim.delay().mean(), soa_sim.delay().mean());
  EXPECT_EQ(scalar_sim.vertical_hops().mean(), soa_sim.vertical_hops().mean());
  EXPECT_EQ(scalar_sim.time_avg_population(), soa_sim.time_avg_population());
  EXPECT_EQ(scalar_sim.throughput(), soa_sim.throughput());
  EXPECT_EQ(scalar_sim.deliveries_in_window(), soa_sim.deliveries_in_window());
  EXPECT_EQ(scalar_sim.arrivals_in_window(), soa_sim.arrivals_in_window());
  const auto& scalar_levels = scalar_sim.level_mean_occupancy();
  const auto& soa_levels = soa_sim.level_mean_occupancy();
  ASSERT_EQ(scalar_levels.size(), soa_levels.size());
  for (std::size_t level = 0; level < scalar_levels.size(); ++level) {
    EXPECT_EQ(scalar_levels[level], soa_levels[level]) << "level " << level;
  }
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
