// Tests for the static batch router (one round of the §2.3 baseline /
// Valiant-Brebner phase 1).

#include "routing/batch_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "routing/topology_greedy.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

TEST(BatchRouter, EmptyBatch) {
  const HypercubeTopology cube(4);
  const auto result = GreedyRound().route(cube, std::vector<BatchPacket>{}, 5.0);
  EXPECT_TRUE(result.completion_times.empty());
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(BatchRouter, SinglePacketDeliversAtHammingDistance) {
  const HypercubeTopology cube(4);
  const std::vector<BatchPacket> batch{{0b0000, 0b1011}};
  const auto result = GreedyRound().route(cube, batch, 10.0);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 13.0);
  EXPECT_DOUBLE_EQ(result.makespan, 13.0);
}

TEST(BatchRouter, SelfAddressedCompletesImmediately) {
  const HypercubeTopology cube(3);
  const std::vector<BatchPacket> batch{{4, 4}};
  const auto result = GreedyRound().route(cube, batch, 2.0);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 2.0);
}

TEST(BatchRouter, SharedFirstArcSerialises) {
  const HypercubeTopology cube(3);
  // Both need arc (000 -> 001) first.
  const std::vector<BatchPacket> batch{{0b000, 0b001}, {0b000, 0b011}};
  const auto result = GreedyRound().route(cube, batch, 0.0);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 1.0);
  // Second starts its first hop at t=1, then one more hop: 3.
  EXPECT_DOUBLE_EQ(result.completion_times[1], 3.0);
}

TEST(BatchRouter, AntipodalPermutationIsContentionFree) {
  // p=1 pattern: every node sends to its complement; canonical paths are
  // arc-disjoint, so every packet finishes in exactly d steps.
  const int d = 6;
  const HypercubeTopology cube(d);
  std::vector<BatchPacket> batch;
  for (NodeId x = 0; x < cube.num_nodes(); ++x) {
    batch.push_back(BatchPacket{x, antipode(x, d)});
  }
  const auto result = GreedyRound().route(cube, batch, 0.0);
  for (const double t : result.completion_times) EXPECT_DOUBLE_EQ(t, d);
  EXPECT_DOUBLE_EQ(result.makespan, d);
}

TEST(BatchRouter, IdentityPermutationInstant) {
  const HypercubeTopology cube(5);
  std::vector<BatchPacket> batch;
  for (NodeId x = 0; x < cube.num_nodes(); ++x) batch.push_back(BatchPacket{x, x});
  const auto result = GreedyRound().route(cube, batch, 7.0);
  EXPECT_DOUBLE_EQ(result.makespan, 7.0);
}

TEST(BatchRouter, CompletionNeverBeforeHamming) {
  const int d = 7;
  const HypercubeTopology cube(d);
  Rng rng(3);
  std::vector<BatchPacket> batch;
  for (NodeId x = 0; x < cube.num_nodes(); ++x) {
    batch.push_back(
        BatchPacket{x, static_cast<NodeId>(rng.uniform_below(cube.num_nodes()))});
  }
  const auto result = GreedyRound().route(cube, batch, 0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_GE(result.completion_times[i],
              cube.metric(batch[i].origin, batch[i].destination));
  }
}

TEST(BatchRouter, RandomDestinationRoundIsOrderD) {
  // [VaB81]: a random-destination round completes in O(d) time w.h.p.;
  // empirically the makespan/d ratio is a small constant.
  const int d = 8;
  const HypercubeTopology cube(d);
  Rng rng(5);
  GreedyRound round;
  double worst_ratio = 0.0;
  for (int r = 0; r < 20; ++r) {
    std::vector<BatchPacket> batch;
    for (NodeId x = 0; x < cube.num_nodes(); ++x) {
      batch.push_back(
          BatchPacket{x, static_cast<NodeId>(rng.uniform_below(cube.num_nodes()))});
    }
    const auto& result = round.route(cube, batch, 0.0);
    worst_ratio = std::max(worst_ratio, result.makespan / d);
  }
  EXPECT_GE(worst_ratio, 1.0);
  EXPECT_LE(worst_ratio, 4.0);  // R is a small constant (paper: "R > 1")
}

TEST(BatchRouter, MakespanIsMaxCompletion) {
  const HypercubeTopology cube(4);
  Rng rng(7);
  std::vector<BatchPacket> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back(BatchPacket{
        static_cast<NodeId>(rng.uniform_below(16)),
        static_cast<NodeId>(rng.uniform_below(16))});
  }
  const auto result = GreedyRound().route(cube, batch, 3.0);
  const double max_completion =
      *std::max_element(result.completion_times.begin(), result.completion_times.end());
  EXPECT_DOUBLE_EQ(result.makespan, max_completion);
}

/// A random d-cube batch: `fanout` uniform packets per node, then every
/// fifth node addressed to itself.
std::vector<BatchPacket> random_batch(int d, int fanout, std::uint64_t seed) {
  const NodeId nodes = NodeId{1} << d;
  Rng rng(seed);
  std::vector<BatchPacket> batch;
  for (NodeId x = 0; x < nodes; ++x) {
    for (int k = 0; k < fanout; ++k) {
      batch.push_back({x, static_cast<NodeId>(rng.uniform_below(nodes))});
    }
  }
  for (NodeId x = 0; x < nodes; x += 5) batch.push_back({x, x});
  return batch;
}

TEST(BatchRouter, ReusedRoundMatchesAFreshOne) {
  // Storage reuse must not leak state from one round into the next.
  const HypercubeTopology cube(6);
  GreedyRound reused;
  (void)reused.route(cube, random_batch(6, 3, 11), 0.0);
  for (const std::uint64_t seed : {12u, 13u}) {
    const auto batch = random_batch(6, 2, seed);
    const BatchRoutingResult fresh = GreedyRound().route(cube, batch, 4.0);
    const BatchRoutingResult& again = reused.route(cube, batch, 4.0);
    EXPECT_EQ(again.completion_times, fresh.completion_times) << seed;
    EXPECT_EQ(again.makespan, fresh.makespan) << seed;
  }
}

TEST(BatchRouter, RoundMatchesTheDynamicSimulatorFromAStaticStart) {
  // A static round is the dynamic greedy scheme replaying a trace with
  // every packet at t = 0: the same delays, hence one event order.  The
  // delay histogram pins the distribution, which a different service order
  // at the arcs would change even where the mean stays put.
  const int d = 6;
  const HypercubeTopology cube(d);
  const auto batch = random_batch(d, 2, 21);
  const BatchRoutingResult round = GreedyRound().route(cube, batch, 0.0);

  PacketTrace trace;
  trace.dimension = d;
  for (const BatchPacket& packet : batch) {
    trace.packets.push_back({0.0, packet.origin, packet.destination});
  }
  TopologyRoutingConfig config;
  config.spec.name = "hypercube";
  config.spec.d = d;
  config.trace = &trace;
  config.track_delay_histogram = true;
  TopologyGreedySim sim(config);
  sim.run(0.0, round.makespan + 1.0);

  double completion_total = 0.0;
  std::vector<std::uint64_t> per_delay(static_cast<std::size_t>(round.makespan) + 1);
  for (const double t : round.completion_times) {
    completion_total += t;
    ++per_delay[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(sim.delay().count(), batch.size());
  EXPECT_EQ(sim.delay().max(), round.makespan);
  EXPECT_NEAR(sim.delay().mean(),
              completion_total / static_cast<double>(batch.size()), 1e-12);
  const auto& histogram = sim.kernel_stats().delay_histogram();
  ASSERT_TRUE(histogram.has_value());
  for (std::size_t delay = 0; delay < per_delay.size(); ++delay) {
    EXPECT_EQ(histogram->bin_count(delay), per_delay[delay]) << "delay " << delay;
  }
}

}  // namespace
}  // namespace routesim
