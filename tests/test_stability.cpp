// Integration tests for the stability results: Prop. 6 (greedy stable for
// all rho < 1), the necessary condition rho <= 1 (§2.1), and the §2.3
// contrast with the pipelined baseline.

#include <gtest/gtest.h>

#include "routing/topology_greedy.hpp"

namespace routesim {
namespace {

TopologyRoutingConfig cube_config(int d, double lambda, double p,
                                  std::uint64_t seed) {
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = seed;
  return config;
}

TEST(Stability, BacklogBoundedJustBelowCapacity) {
  // rho = 0.95: heavy but stable — the final backlog stays near the
  // product-form level d*2^d*rho/(1-rho) rather than growing with the horizon.
  const int d = 4;
  TopologyGreedySim sim(cube_config(d, 1.9, 0.5, 1));
  sim.run(2000.0, 42000.0);
  const double product_form_level = d * 16.0 * 0.95 / 0.05;  // = 1216
  EXPECT_LT(sim.final_population(), 3.0 * product_form_level);
  EXPECT_LT(sim.time_avg_population(), 1.1 * product_form_level);
}

TEST(Stability, BacklogGrowsLinearlyAboveCapacity) {
  // rho = 1.2: unstable — backlog grows at rate ~ (rho-1) per arc-time on
  // the bottleneck dimensions; verify clear linear growth in the horizon.
  const int d = 4;
  TopologyGreedySim short_run(cube_config(d, 2.4, 0.5, 2));
  TopologyGreedySim long_run(cube_config(d, 2.4, 0.5, 2));
  short_run.run(0.0, 5000.0);
  long_run.run(0.0, 10000.0);
  EXPECT_GT(short_run.final_population(), 1000.0);
  // Doubling the horizon about doubles the backlog.
  EXPECT_NEAR(long_run.final_population() / short_run.final_population(), 2.0, 0.4);
}

TEST(Stability, ThroughputSaturatesAtCapacity) {
  // Above rho = 1 the delivery rate cannot exceed the offered rate at
  // capacity: deliveries/time ~ lambda* 2^d with lambda* = 1/p.
  const int d = 4;
  TopologyGreedySim sim(cube_config(d, 2.6, 0.5, 3));  // rho = 1.3
  sim.run(1000.0, 21000.0);
  const double capacity_rate = (1.0 / 0.5) * 16.0;  // lambda* 2^d
  EXPECT_LT(sim.throughput(), capacity_rate * 1.05);
  EXPECT_GT(sim.throughput(), capacity_rate * 0.8);
}

TEST(Stability, StableAcrossLoadSweep) {
  // Prop. 6: for every rho < 1 the system reaches a stationary regime;
  // operationally, time-avg population ~ final population (no trend) and
  // both below the product-form ceiling.
  for (const double rho : {0.3, 0.6, 0.9}) {
    const int d = 4;
    TopologyGreedySim sim(cube_config(d, 2.0 * rho, 0.5, 5));
    sim.run(1000.0 + 10.0 / ((1 - rho) * (1 - rho)), 30000.0);
    const double ceiling = d * 16.0 * rho / (1 - rho);
    EXPECT_LT(sim.time_avg_population(), 1.15 * ceiling) << "rho = " << rho;
  }
}

TEST(Stability, ButterflyStableBelowAndUnstableAbove) {
  const int d = 4;
  // Stable: lambda max{p,1-p} = 0.9.
  TopologyRoutingConfig stable;
  stable.spec.name = "butterfly";
  stable.spec.d = d;
  stable.lambda = 0.9;
  stable.destinations = DestinationDistribution::uniform(d);
  stable.seed = 7;
  TopologyGreedySim stable_sim(stable);
  stable_sim.run(2000.0, 42000.0);
  EXPECT_LT(stable_sim.final_population(), 4.0 * 16.0 * 2.0 * 9.0 * 3.0);

  // Unstable: p = 0.8 with lambda = 1.15 -> rho = 0.92... use lambda = 1.4,
  // p = 0.8: rho = 1.12 > 1 although lambda*p*... note lambda itself > 1 is
  // not required.
  TopologyRoutingConfig unstable;
  unstable.spec.name = "butterfly";
  unstable.spec.d = d;
  unstable.lambda = 1.4;
  unstable.destinations = DestinationDistribution::bit_flip(d, 0.8);
  unstable.seed = 7;
  TopologyGreedySim unstable_sim(unstable);
  unstable_sim.run(0.0, 20000.0);
  // Vertical arcs overflow at rate ~ (1.12 - 1) * 16 per level-1 arc-time.
  EXPECT_GT(unstable_sim.final_population(), 2000.0);
}

TEST(Stability, AsymmetricDestinationsShiftTheBoundary) {
  // With p = 0.25 the cube's load factor is lambda/4: lambda = 3.2 is
  // stable (rho = 0.8) even though lambda > 1.
  TopologyGreedySim sim(cube_config(4, 3.2, 0.25, 11));
  sim.run(1000.0, 21000.0);
  const double ceiling = 4 * 16.0 * 0.8 / 0.2;
  EXPECT_LT(sim.time_avg_population(), 1.15 * ceiling);
}

TEST(Stability, GeneralDistributionBottleneckDimensionGoverns) {
  // Translation-invariant law loading dimension 3 with probability 0.75:
  // rho = 0.75 * lambda on dim 3.  lambda = 1.2 -> rho = 0.9 stable;
  // lambda = 1.5 -> rho = 1.125 unstable.
  std::vector<double> pmf(16, 0.0);
  pmf[0b0100] = 0.75;
  pmf[0b0011] = 0.25;
  TopologyRoutingConfig config;
  config.spec.d = 4;
  config.destinations = DestinationDistribution::general(4, pmf);
  config.seed = 13;

  config.lambda = 1.2;
  TopologyGreedySim stable(config);
  stable.run(2000.0, 42000.0);
  EXPECT_LT(stable.final_population(), 2000.0);

  config.lambda = 1.5;
  TopologyGreedySim unstable(config);
  unstable.run(0.0, 40000.0);
  EXPECT_GT(unstable.final_population(), 2500.0);
}

}  // namespace
}  // namespace routesim
