// Tests for the §5 two-phase Valiant mixing scheme (TopologyGreedySim in
// valiant mode on the paper's cube).

#include "routing/topology_greedy.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace routesim {
namespace {

TopologyRoutingConfig make_config(int d, double lambda, double p, std::uint64_t seed) {
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = seed;
  config.valiant = true;
  return config;
}

TEST(ValiantMixing, DeliversAllTrafficWhenLightlyLoaded) {
  TopologyGreedySim sim(make_config(5, 0.1, 0.5, 1));
  sim.run(200.0, 20200.0);
  EXPECT_GT(sim.delay().count(), 1000u);
  EXPECT_TRUE(sim.little_check().consistent(0.05));
}

TEST(ValiantMixing, MeanHopsIsAboutDHalfPlusDp) {
  // Phase 1 crosses ~d/2 arcs (uniform intermediate), phase 2 ~d*p.
  const int d = 6;
  const double p = 0.5;
  TopologyGreedySim sim(make_config(d, 0.1, p, 3));
  sim.run(200.0, 20200.0);
  EXPECT_NEAR(sim.hops().mean(), d / 2.0 + d * p, 0.15);
}

TEST(ValiantMixing, SlowerThanDirectGreedyUnderUniformTraffic) {
  // For translation-invariant traffic mixing only adds load (the paper's
  // caveat in §5): delays exceed direct greedy on the same workload.
  const auto dist = DestinationDistribution::uniform(5);
  const auto trace = generate_hypercube_trace(5, 0.3, dist, 20000.0, 5);

  TopologyRoutingConfig direct_cfg;
  direct_cfg.spec.d = 5;
  direct_cfg.destinations = dist;
  direct_cfg.trace = &trace;
  TopologyGreedySim direct(direct_cfg);
  direct.run(500.0, 20000.0);

  TopologyRoutingConfig mixed_cfg = make_config(5, 0.3, 0.5, 5);
  mixed_cfg.trace = &trace;
  TopologyGreedySim mixed(mixed_cfg);
  mixed.run(500.0, 20000.0);

  EXPECT_GT(mixed.delay().mean(), direct.delay().mean());
}

TEST(ValiantMixing, SaturatesAtLowerLoadThanGreedy) {
  // Mixing roughly doubles per-arc load: at rho = 0.8 for greedy, mixing is
  // already past saturation and builds backlog.
  const int d = 5;
  const double lambda = 1.6, p = 0.5;  // greedy rho = 0.8 < 1
  TopologyRoutingConfig greedy_cfg;
  greedy_cfg.spec.d = d;
  greedy_cfg.lambda = lambda;
  greedy_cfg.destinations = DestinationDistribution::bit_flip(d, p);
  greedy_cfg.seed = 7;
  TopologyGreedySim greedy(greedy_cfg);
  greedy.run(500.0, 10500.0);

  TopologyGreedySim mixed(make_config(d, lambda, p, 7));
  mixed.run(500.0, 10500.0);

  EXPECT_LT(greedy.final_population(), 500.0);
  EXPECT_GT(mixed.final_population(), 4.0 * greedy.final_population());
}

TEST(ValiantMixing, DeterministicForSeed) {
  TopologyGreedySim a(make_config(4, 0.2, 0.5, 9));
  TopologyGreedySim b(make_config(4, 0.2, 0.5, 9));
  a.run(100.0, 2100.0);
  b.run(100.0, 2100.0);
  EXPECT_EQ(a.delay().count(), b.delay().count());
  EXPECT_DOUBLE_EQ(a.delay().mean(), b.delay().mean());
}

TEST(ValiantMixing, ConfigValidation) {
  TopologyRoutingConfig config;
  config.spec.d = 5;
  config.valiant = true;
  config.destinations = DestinationDistribution::uniform(4);
  EXPECT_THROW(TopologyGreedySim sim(config), ContractViolation);
}

}  // namespace
}  // namespace routesim
