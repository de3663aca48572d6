// Tests for the packet-level greedy hypercube simulator (§3): routing
// correctness, degenerate cases with exact answers, statistical agreement
// with theory, and Little's-law self consistency.

#include "routing/topology_greedy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

TopologyRoutingConfig make_config(int d, double lambda, double p,
                                  std::uint64_t seed) {
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = seed;
  return config;
}

TEST(GreedyHypercube, SinglePacketTraversesHammingDistance) {
  // A single traced packet with no contention is delivered after exactly
  // H(x, z) time units.
  PacketTrace trace;
  trace.dimension = 4;
  trace.rate_per_node = 0.0;
  trace.packets = {TracedPacket{1.0, 0b0000, 0b1011}};

  TopologyRoutingConfig config;
  config.spec.d = 4;
  config.destinations = DestinationDistribution::uniform(4);
  config.trace = &trace;
  TopologyGreedySim sim(config);
  sim.run(0.0, 100.0);
  EXPECT_EQ(sim.delay().count(), 1u);
  EXPECT_DOUBLE_EQ(sim.delay().mean(), 3.0);
  EXPECT_DOUBLE_EQ(sim.hops().mean(), 3.0);
}

TEST(GreedyHypercube, SelfAddressedPacketHasZeroDelay) {
  PacketTrace trace;
  trace.dimension = 3;
  trace.packets = {TracedPacket{2.0, 5, 5}};
  TopologyRoutingConfig config;
  config.spec.d = 3;
  config.destinations = DestinationDistribution::uniform(3);
  config.trace = &trace;
  TopologyGreedySim sim(config);
  sim.run(0.0, 10.0);
  EXPECT_EQ(sim.delay().count(), 1u);
  EXPECT_DOUBLE_EQ(sim.delay().mean(), 0.0);
  EXPECT_DOUBLE_EQ(sim.hops().mean(), 0.0);
}

TEST(GreedyHypercube, ContentionSerialisesFifo) {
  // Two packets needing the same first arc at the same time: the first
  // injected wins; the second waits one unit.
  PacketTrace trace;
  trace.dimension = 3;
  trace.packets = {TracedPacket{0.0, 0b000, 0b001},
                   TracedPacket{0.0, 0b000, 0b011}};
  TopologyRoutingConfig config;
  config.spec.d = 3;
  config.destinations = DestinationDistribution::uniform(3);
  config.trace = &trace;
  TopologyGreedySim sim(config);
  sim.run(0.0, 10.0);
  EXPECT_EQ(sim.delay().count(), 2u);
  // First: 1 hop at t=1 (delay 1).  Second: waits 1, then 2 hops (delay 3).
  EXPECT_DOUBLE_EQ(sim.delay().min(), 1.0);
  EXPECT_DOUBLE_EQ(sim.delay().max(), 3.0);
}

TEST(GreedyHypercube, DelayNeverBelowHammingDistance) {
  auto config = make_config(5, 0.8, 0.5, 17);
  config.track_delay_histogram = true;
  TopologyGreedySim sim(config);
  sim.run(100.0, 5100.0);
  // Mean delay >= mean hops always (each hop costs >= 1).
  EXPECT_GE(sim.delay().mean(), sim.hops().mean() - 1e-12);
  EXPECT_GE(sim.delay().min(), 0.0);
}

TEST(GreedyHypercube, MeanHopsIsDp) {
  const auto config = make_config(8, 0.5, 0.3, 23);
  TopologyGreedySim sim(config);
  sim.run(200.0, 20200.0);
  EXPECT_NEAR(sim.hops().mean(), 8 * 0.3, 0.05);
}

TEST(GreedyHypercube, LittleLawSelfConsistency) {
  const auto config = make_config(6, 1.0, 0.5, 31);
  TopologyGreedySim sim(config);
  sim.run(500.0, 40500.0);
  EXPECT_TRUE(sim.little_check().consistent(0.03))
      << "relative error " << sim.little_check().relative_error();
}

TEST(GreedyHypercube, ThroughputMatchesOfferedLoadWhenStable) {
  const auto config = make_config(6, 1.2, 0.5, 37);  // rho = 0.6
  TopologyGreedySim sim(config);
  sim.run(500.0, 20500.0);
  const double offered = 1.2 * 64.0;
  EXPECT_NEAR(sim.throughput() / offered, 1.0, 0.03);
}

TEST(GreedyHypercube, DelayWithinPaperBounds) {
  // rho = 0.6, d = 7: Prop. 13 <= T <= Prop. 12 with generous margins.
  bounds::HypercubeParams params{7, 1.2, 0.5};
  const auto config = make_config(7, 1.2, 0.5, 41);
  TopologyGreedySim sim(config);
  sim.run(1000.0, 61000.0);
  EXPECT_GE(sim.delay().mean(), bounds::greedy_delay_lower_bound(params) * 0.98);
  EXPECT_LE(sim.delay().mean(), bounds::greedy_delay_upper_bound(params) * 1.02);
}

TEST(GreedyHypercube, ExactDelayAtPEqualsOne) {
  // p = 1: T = d + rho/(2(1-rho)) exactly (disjoint paths, §3.3 end).
  const int d = 6;
  const double lambda = 0.7;
  const auto config = make_config(d, lambda, 1.0, 43);
  TopologyGreedySim sim(config);
  sim.run(1000.0, 101000.0);
  EXPECT_NEAR(sim.delay().mean(), bounds::greedy_delay_exact_p1(d, lambda), 0.05);
}

TEST(GreedyHypercube, ZeroFlipTrafficDeliversInstantly) {
  // p = 0: every packet is self-addressed; delay identically 0.
  const auto config = make_config(5, 0.9, 0.0, 47);
  TopologyGreedySim sim(config);
  sim.run(10.0, 1010.0);
  EXPECT_GT(sim.delay().count(), 0u);
  EXPECT_DOUBLE_EQ(sim.delay().mean(), 0.0);
  EXPECT_DOUBLE_EQ(sim.time_avg_population(), 0.0);
}

TEST(GreedyHypercube, DeterministicForSeed) {
  const auto config = make_config(5, 0.8, 0.5, 53);
  TopologyGreedySim a(config), b(config);
  a.run(100.0, 2100.0);
  b.run(100.0, 2100.0);
  EXPECT_EQ(a.delay().count(), b.delay().count());
  EXPECT_DOUBLE_EQ(a.delay().mean(), b.delay().mean());
  EXPECT_DOUBLE_EQ(a.time_avg_population(), b.time_avg_population());
}

TEST(GreedyHypercube, TraceReplayIsCoupledAcrossInstances) {
  const auto dist = DestinationDistribution::uniform(4);
  const auto trace = generate_hypercube_trace(4, 0.8, dist, 2000.0, 59);
  TopologyRoutingConfig config;
  config.spec.d = 4;
  config.destinations = dist;
  config.trace = &trace;
  TopologyGreedySim a(config), b(config);
  a.run(0.0, 2000.0);
  b.run(0.0, 2000.0);
  EXPECT_DOUBLE_EQ(a.delay().mean(), b.delay().mean());
}

TEST(GreedyHypercube, NodeOccupancyTracking) {
  auto config = make_config(4, 1.0, 0.5, 61);  // rho = 0.5
  config.track_occupancy = true;
  TopologyGreedySim sim(config);
  sim.run(500.0, 10500.0);
  const auto& occupancy = sim.kernel_stats().occupancy_means();
  ASSERT_EQ(occupancy.size(), 16u);
  // Mean per-node occupancy is bounded by d*rho/(1-rho) = 4 (Prop. 12 note);
  // it is also strictly positive under load.
  for (const double value : occupancy) {
    EXPECT_GT(value, 0.0);
    EXPECT_LT(value, 4.0);
  }
  EXPECT_GT(sim.max_node_occupancy(), 0.0);
}

TEST(GreedyHypercube, HistogramQuantilesBracketMean) {
  auto config = make_config(5, 1.0, 0.5, 67);
  config.track_delay_histogram = true;
  TopologyGreedySim sim(config);
  sim.run(200.0, 10200.0);
  ASSERT_TRUE(sim.kernel_stats().delay_histogram().has_value());
  const auto& histogram = *sim.kernel_stats().delay_histogram();
  EXPECT_EQ(histogram.count(), sim.delay().count());
  EXPECT_LE(histogram.quantile(0.25), sim.delay().mean());
  EXPECT_GE(histogram.quantile(0.99), sim.delay().mean());
}

TEST(GreedyHypercube, ConfigValidation) {
  TopologyRoutingConfig config;
  config.spec.d = 5;
  config.destinations = DestinationDistribution::uniform(4);  // mismatch
  EXPECT_THROW(TopologyGreedySim sim(config), ContractViolation);

  TopologyRoutingConfig bad_slot;
  bad_slot.spec.d = 4;
  bad_slot.destinations = DestinationDistribution::uniform(4);
  bad_slot.slot = 0.3;  // 1/0.3 not an integer
  EXPECT_THROW(TopologyGreedySim sim(bad_slot), ContractViolation);

  TopologyRoutingConfig bad_rate;
  bad_rate.spec.d = 4;
  bad_rate.destinations = DestinationDistribution::uniform(4);
  bad_rate.lambda = 0.0;
  EXPECT_THROW(TopologyGreedySim sim(bad_rate), ContractViolation);

  // A trace recorded on the 5-cube would replay nodes the 4-cube lacks.
  const auto trace = generate_hypercube_trace(
      5, 0.2, DestinationDistribution::uniform(5), 50.0, 7);
  TopologyRoutingConfig bad_trace;
  bad_trace.spec.d = 4;
  bad_trace.trace = &trace;
  EXPECT_THROW(TopologyGreedySim sim(bad_trace), ContractViolation);
}

// Property sweep: delay stays within the paper's brackets across loads.
class DelayBracketProperty : public ::testing::TestWithParam<double> {};

TEST_P(DelayBracketProperty, SimulatedDelayWithinPropositions) {
  const double rho = GetParam();
  const int d = 6;
  const double p = 0.5;
  bounds::HypercubeParams params{d, rho / p, p};
  auto config = make_config(d, rho / p, p, 1000 + static_cast<std::uint64_t>(rho * 100));
  TopologyGreedySim sim(config);
  const double horizon = 2000.0 + 30000.0 / (1.0 - rho);
  sim.run(500.0 + 10.0 / ((1 - rho) * (1 - rho)), horizon);
  EXPECT_GE(sim.delay().mean(), bounds::greedy_delay_lower_bound(params) * 0.97);
  EXPECT_LE(sim.delay().mean(), bounds::greedy_delay_upper_bound(params) * 1.03);
}

INSTANTIATE_TEST_SUITE_P(Loads, DelayBracketProperty,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.9));

}  // namespace
}  // namespace routesim
