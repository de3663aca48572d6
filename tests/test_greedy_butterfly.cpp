// Tests for greedy routing on the butterfly (§4): TopologyGreedySim over
// the butterfly topology.

#include "routing/topology_greedy.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

TopologyRoutingConfig make_config(int d, double lambda, double p,
                                  std::uint64_t seed) {
  TopologyRoutingConfig config;
  config.spec.name = "butterfly";
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = seed;
  return config;
}

/// Replays `trace` (origin and destination rows) on the d-butterfly.
TopologyRoutingConfig replay_config(int d, const PacketTrace& trace) {
  TopologyRoutingConfig config;
  config.spec.name = "butterfly";
  config.spec.d = d;
  config.trace = &trace;
  return config;
}

TEST(GreedyButterfly, SinglePacketTakesExactlyDSteps) {
  // With no contention every packet crosses d arcs: delay = d.
  PacketTrace trace;
  trace.dimension = 4;
  trace.packets = {TracedPacket{1.0, 0b0000, 0b1010}};
  TopologyGreedySim sim(replay_config(4, trace));
  sim.run(0.0, 100.0);
  EXPECT_EQ(sim.delay().count(), 1u);
  EXPECT_DOUBLE_EQ(sim.delay().mean(), 4.0);
  EXPECT_DOUBLE_EQ(sim.hops().mean(), 2.0);  // vertical arcs only
  EXPECT_EQ(sim.kernel_stats().mean_stretch(), 1.0);
}

TEST(GreedyButterfly, SameRowStillCrossesAllLevels) {
  PacketTrace trace;
  trace.dimension = 3;
  trace.packets = {TracedPacket{0.0, 5, 5}};
  TopologyGreedySim sim(replay_config(3, trace));
  sim.run(0.0, 50.0);
  EXPECT_DOUBLE_EQ(sim.delay().mean(), 3.0);  // all straight, but still d arcs
  EXPECT_DOUBLE_EQ(sim.hops().mean(), 0.0);
}

TEST(GreedyButterfly, DelayAtLeastD) {
  TopologyGreedySim sim(make_config(5, 0.6, 0.5, 3));
  sim.run(100.0, 5100.0);
  EXPECT_GE(sim.delay().min(), 5.0 - 1e-9);
}

TEST(GreedyButterfly, MeanVerticalHopsIsDp) {
  TopologyGreedySim sim(make_config(6, 0.5, 0.3, 5));
  sim.run(200.0, 20200.0);
  EXPECT_NEAR(sim.hops().mean(), 6 * 0.3, 0.05);
}

TEST(GreedyButterfly, LittleLawSelfConsistency) {
  TopologyGreedySim sim(make_config(5, 0.9, 0.5, 7));
  sim.run(500.0, 30500.0);
  EXPECT_TRUE(sim.little_check().consistent(0.03))
      << "relative error " << sim.little_check().relative_error();
}

TEST(GreedyButterfly, DelayWithinPaperBounds) {
  // Prop. 14 <= T <= Prop. 17.
  bounds::ButterflyParams params{5, 1.0, 0.5};  // rho = 0.5
  TopologyGreedySim sim(make_config(5, 1.0, 0.5, 11));
  sim.run(500.0, 40500.0);
  EXPECT_GE(sim.delay().mean(),
            bounds::bfly_universal_delay_lower_bound(params) * 0.98);
  EXPECT_LE(sim.delay().mean(), bounds::bfly_greedy_delay_upper_bound(params) * 1.02);
}

TEST(GreedyButterfly, ExactDelayAtExtremes) {
  // p = 0 (all straight) and p = 1 (all vertical): packets from different
  // origins use disjoint arcs, each origin's stream is M/D/1 at its level-1
  // arc and spaced >= 1 afterwards, so T = d + W_q(M/D/1).
  for (const double p : {0.0, 1.0}) {
    const int d = 4;
    const double lambda = 0.6;
    TopologyGreedySim sim(make_config(d, lambda, p, 13));
    sim.run(1000.0, 81000.0);
    const double expected = d + lambda / (2.0 * (1.0 - lambda));
    EXPECT_NEAR(sim.delay().mean(), expected, 0.05) << "p = " << p;
  }
}

TEST(GreedyButterfly, SymmetricInPAndOneMinusP) {
  // The network treats straight/vertical symmetrically: delays at p and 1-p
  // match statistically.
  TopologyGreedySim low(make_config(5, 1.0, 0.3, 17));
  TopologyGreedySim high(make_config(5, 1.0, 0.7, 17));
  low.run(500.0, 30500.0);
  high.run(500.0, 30500.0);
  EXPECT_NEAR(low.delay().mean(), high.delay().mean(),
              0.02 * low.delay().mean());
}

TEST(GreedyButterfly, ThroughputMatchesOfferedLoad) {
  TopologyGreedySim sim(make_config(5, 1.0, 0.5, 19));
  sim.run(500.0, 20500.0);
  EXPECT_NEAR(sim.throughput() / (1.0 * 32.0), 1.0, 0.03);
}

TEST(GreedyButterfly, LevelOccupancyTracked) {
  auto config = make_config(4, 1.0, 0.5, 23);
  config.track_occupancy = true;
  TopologyGreedySim sim(config);
  sim.run(500.0, 20500.0);
  const auto& levels = sim.kernel_stats().occupancy_means();
  ASSERT_EQ(levels.size(), 4u);
  // Every level holds about 2^d * (rho_s/(1-rho_s)+rho_v/(1-rho_v)) / ...
  // at least: it must be positive and bounded by the product-form estimate
  // with slack.
  for (const double occupancy : levels) {
    EXPECT_GT(occupancy, 0.0);
    EXPECT_LT(occupancy, 16.0 * 2.0 * 2.0);
  }
}

TEST(GreedyButterfly, DeterministicForSeed) {
  TopologyGreedySim a(make_config(4, 0.7, 0.4, 29));
  TopologyGreedySim b(make_config(4, 0.7, 0.4, 29));
  a.run(100.0, 2100.0);
  b.run(100.0, 2100.0);
  EXPECT_EQ(a.delay().count(), b.delay().count());
  EXPECT_DOUBLE_EQ(a.delay().mean(), b.delay().mean());
}

TEST(GreedyButterfly, ConfigValidation) {
  TopologyRoutingConfig mismatch = make_config(5, 0.5, 0.5, 1);
  mismatch.destinations = DestinationDistribution::uniform(4);
  EXPECT_THROW(TopologyGreedySim sim(mismatch), ContractViolation);

  TopologyRoutingConfig bad_rate = make_config(4, -1.0, 0.5, 1);
  EXPECT_THROW(TopologyGreedySim sim(bad_rate), ContractViolation);

  // Terminals are the 2^d rows: a permutation table or a trace for any
  // other count is rejected, and so is Valiant mixing (node to node).
  const std::vector<NodeId> per_node(5u << 4, 0);
  TopologyRoutingConfig bad_table = make_config(4, 0.5, 0.5, 1);
  bad_table.fixed_destinations = &per_node;
  EXPECT_THROW(TopologyGreedySim sim(bad_table), ContractViolation);
  PacketTrace wide;
  wide.dimension = 5;
  EXPECT_THROW(TopologyGreedySim sim(replay_config(4, wide)), ContractViolation);
  TopologyRoutingConfig mixing = make_config(4, 0.5, 0.5, 1);
  mixing.valiant = true;
  EXPECT_THROW(TopologyGreedySim sim(mixing), ContractViolation);
}

// A permutation table and a trace both name rows: every packet of row x
// leaves at row pi(x), crossing exactly hamming(x, pi(x)) vertical arcs.
TEST(GreedyButterfly, PermutationAndTraceRouteRowToRow) {
  const int d = 4;
  std::vector<NodeId> table(16);
  for (NodeId x = 0; x < 16; ++x) table[x] = x ^ 0b0110u;  // two flips each
  TopologyRoutingConfig config = make_config(d, 0.2, 0.5, 37);
  config.fixed_destinations = &table;
  TopologyGreedySim fixed(config);
  fixed.run(100.0, 2100.0);
  EXPECT_GT(fixed.delay().count(), 0u);
  EXPECT_EQ(fixed.hops().min(), 2.0);
  EXPECT_EQ(fixed.hops().max(), 2.0);

  PacketTrace trace;
  trace.dimension = d;
  trace.packets = {TracedPacket{0.5, 3, 12}, TracedPacket{0.75, 15, 0},
                   TracedPacket{1.0, 9, 9}};
  TopologyGreedySim replay(replay_config(d, trace));
  replay.run(0.0, 100.0);
  EXPECT_EQ(replay.kernel_stats().deliveries_in_window(), 3u);
  EXPECT_DOUBLE_EQ(replay.hops().mean(), (4.0 + 4.0 + 0.0) / 3.0);
}

// Property sweep over asymmetric destination laws: the delay must respect
// the Prop. 14 / Prop. 17 bracket for every p.
class ButterflyBracketProperty : public ::testing::TestWithParam<double> {};

TEST_P(ButterflyBracketProperty, WithinBounds) {
  const double p = GetParam();
  const double lambda = 0.9;
  bounds::ButterflyParams params{4, lambda, p};
  TopologyGreedySim sim(make_config(4, lambda, p, 31));
  sim.run(500.0, 40500.0);
  EXPECT_GE(sim.delay().mean(),
            bounds::bfly_universal_delay_lower_bound(params) * 0.97);
  EXPECT_LE(sim.delay().mean(), bounds::bfly_greedy_delay_upper_bound(params) * 1.03);
}

INSTANTIATE_TEST_SUITE_P(FlipProbabilities, ButterflyBracketProperty,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace routesim
