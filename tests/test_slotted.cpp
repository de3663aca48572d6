// Tests for the slotted-time variant (§3.4).

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "routing/topology_greedy.hpp"

namespace routesim {
namespace {

TopologyRoutingConfig slotted_config(int d, double lambda, double p, double tau,
                                     std::uint64_t seed) {
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.slot = tau;
  config.seed = seed;
  return config;
}

TEST(Slotted, EventsStayOnTheSlotGrid) {
  // With batch arrivals at multiples of tau and unit services, every delay
  // is an integer multiple of tau (here tau = 0.5).
  TopologyGreedySim sim(slotted_config(4, 0.6, 0.5, 0.5, 1));
  sim.run(100.0, 2100.0);
  // Delay histogram not needed: check mean*2 is close to an integer-valued
  // statistic by verifying min and max are multiples of 0.5.
  const double min_frac = sim.delay().min() / 0.5;
  const double max_frac = sim.delay().max() / 0.5;
  EXPECT_NEAR(min_frac, std::round(min_frac), 1e-9);
  EXPECT_NEAR(max_frac, std::round(max_frac), 1e-9);
}

TEST(Slotted, ThroughputMatchesIntensity) {
  // Batch sizes Poisson(lambda*tau) per node preserve input intensity.
  TopologyGreedySim sim(slotted_config(5, 1.0, 0.5, 0.5, 3));
  sim.run(500.0, 20500.0);
  EXPECT_NEAR(sim.throughput() / (1.0 * 32.0), 1.0, 0.03);
}

class SlottedBoundProperty : public ::testing::TestWithParam<double> {};

TEST_P(SlottedBoundProperty, DelayWithinSlottedUpperBound) {
  // T~ <= dp/(1-rho) + tau for every admissible tau.
  const double tau = GetParam();
  bounds::HypercubeParams params{5, 1.2, 0.5};  // rho = 0.6
  TopologyGreedySim sim(slotted_config(5, 1.2, 0.5, tau, 5));
  sim.run(1000.0, 41000.0);
  EXPECT_LE(sim.delay().mean(),
            bounds::slotted_delay_upper_bound(params, tau) * 1.03);
  // And still above the continuous-time lower bound (batching cannot beat
  // the continuous greedy LB by more than statistical noise).
  EXPECT_GE(sim.delay().mean(), bounds::greedy_delay_lower_bound(params) * 0.95);
}

INSTANTIATE_TEST_SUITE_P(SlotLengths, SlottedBoundProperty,
                         ::testing::Values(0.125, 0.25, 0.5, 1.0));

TEST(Slotted, ConvergesToContinuousAsTauShrinks) {
  // tau -> 0 recovers continuous time: delays approach the continuous run.
  bounds::HypercubeParams params{4, 1.0, 0.5};
  TopologyRoutingConfig continuous_cfg;
  continuous_cfg.spec.d = 4;
  continuous_cfg.lambda = 1.0;
  continuous_cfg.destinations = DestinationDistribution::uniform(4);
  continuous_cfg.seed = 7;
  TopologyGreedySim continuous(continuous_cfg);
  continuous.run(1000.0, 41000.0);

  TopologyGreedySim fine(slotted_config(4, 1.0, 0.5, 0.0625, 7));
  fine.run(1000.0, 41000.0);
  EXPECT_NEAR(fine.delay().mean() / continuous.delay().mean(), 1.0, 0.05);
  (void)params;
}

TEST(Slotted, SlottedDelayStaysWithinTauOfContinuous) {
  // §3.4 bounds the slotted delay by the continuous-time bound + tau;
  // empirically the whole effect of batching is within about tau.
  TopologyRoutingConfig continuous_cfg;
  continuous_cfg.spec.d = 5;
  continuous_cfg.lambda = 1.2;
  continuous_cfg.destinations = DestinationDistribution::uniform(5);
  continuous_cfg.seed = 9;
  TopologyGreedySim continuous(continuous_cfg);
  TopologyGreedySim coarse(slotted_config(5, 1.2, 0.5, 1.0, 9));
  continuous.run(1000.0, 31000.0);
  coarse.run(1000.0, 31000.0);
  EXPECT_NEAR(coarse.delay().mean(), continuous.delay().mean(), 1.0 + 0.2);
}

TEST(Slotted, StableUnderSameCondition) {
  // §3.4 keeps the stability region rho < 1: heavy but stable slotted run.
  TopologyGreedySim sim(slotted_config(4, 1.8, 0.5, 0.5, 11));  // rho = 0.9
  sim.run(2000.0, 42000.0);
  const double ceiling = 4 * 16.0 * 0.9 / 0.1;
  EXPECT_LT(sim.time_avg_population(), 1.3 * ceiling);
}

}  // namespace
}  // namespace routesim
