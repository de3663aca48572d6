// Compilation test for the umbrella header: every public symbol reachable
// from a single include, with a minimal end-to-end smoke run.

#include "routesim.hpp"

#include <gtest/gtest.h>

namespace routesim {
namespace {

TEST(Umbrella, EndToEndSmoke) {
  const bounds::HypercubeParams params{4, 0.8, 0.5};
  EXPECT_DOUBLE_EQ(bounds::load_factor(params), 0.4);

  TopologyRoutingConfig config;
  config.spec.d = 4;
  config.lambda = 0.8;
  config.destinations = DestinationDistribution::uniform(4);
  config.seed = 1;
  TopologyGreedySim sim(config);
  sim.run(100.0, 2100.0);
  EXPECT_GT(sim.delay().count(), 100u);
  EXPECT_GE(sim.delay().mean(), bounds::greedy_delay_lower_bound(params) * 0.9);
  EXPECT_LE(sim.delay().mean(), bounds::greedy_delay_upper_bound(params) * 1.1);
}

TEST(Umbrella, AllModuleTypesVisible) {
  // One declaration per module proves the header wiring.
  [[maybe_unused]] HypercubeTopology cube(3);
  [[maybe_unused]] ButterflyTopology bfly(2);
  [[maybe_unused]] Rng rng(1);
  [[maybe_unused]] Summary summary;
  [[maybe_unused]] TimeWeighted weighted;
  [[maybe_unused]] Histogram histogram(0.0, 1.0, 4);
  [[maybe_unused]] EventQueue<int> events;
  [[maybe_unused]] PsVirtualClock clock(1.0);
  EXPECT_EQ(cube.num_nodes(), 8u);
  EXPECT_EQ(bfly.num_nodes(), 12u);
}

}  // namespace
}  // namespace routesim
