// Statistical verification of the arrival-rate structure on the
// packet-level simulators: Property A, Proposition 5 (hypercube) and
// Proposition 15 (butterfly), measured rather than constructed.

#include <gtest/gtest.h>

#include <cmath>

#include "routing/topology_greedy.hpp"
#include "topology/topology.hpp"

namespace routesim {
namespace {

using ArcKind = ButterflyTopology::ArcKind;

TEST(Rates, PropertyAExternalArrivalRates) {
  // External (first-hop) arrivals at arc (x, x^e_i) occur at rate
  // lambda p (1-p)^(i-1).
  const int d = 4;
  const double lambda = 1.0, p = 0.4;
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = 42;
  TopologyGreedySim sim(config);
  const HypercubeTopology cube(d);
  const double warmup = 200.0, horizon = 50200.0;
  sim.run(warmup, horizon);
  const double window = horizon - warmup;

  for (int dim = 1; dim <= d; ++dim) {
    double total = 0.0;
    for (NodeId x = 0; x < 16; ++x) {
      total += static_cast<double>(
          sim.arc_counters()[cube.arc_index(x, dim)].external_arrivals);
    }
    const double rate = total / 16.0 / window;
    const double expected = lambda * p * std::pow(1 - p, dim - 1);
    EXPECT_NEAR(rate / expected, 1.0, 0.03) << "dimension " << dim;
  }
}

TEST(Rates, Prop5TotalRatePerArcIsRhoEveryDimension) {
  // The *total* (external + internal) arrival rate of every arc equals
  // rho = lambda p, independent of the dimension — the key symmetry that
  // makes all d 2^d servers identical in Q.
  const int d = 4;
  const double lambda = 1.4, p = 0.5;  // rho = 0.7
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = 43;
  TopologyGreedySim sim(config);
  const HypercubeTopology cube(d);
  const double warmup = 500.0, horizon = 60500.0;
  sim.run(warmup, horizon);
  const double window = horizon - warmup;

  for (int dim = 1; dim <= d; ++dim) {
    double total = 0.0;
    for (NodeId x = 0; x < 16; ++x) {
      total += static_cast<double>(
          sim.arc_counters()[cube.arc_index(x, dim)].total_arrivals);
    }
    EXPECT_NEAR(total / 16.0 / window / (lambda * p), 1.0, 0.03)
        << "dimension " << dim;
  }
}

TEST(Rates, Prop5HoldsForSkewedP) {
  // Same symmetry at p far from 1/2: early dimensions receive more external
  // traffic but exactly compensating internal traffic.
  const int d = 5;
  const double lambda = 0.9, p = 0.2;
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = 44;
  TopologyGreedySim sim(config);
  const HypercubeTopology cube(d);
  const double warmup = 500.0, horizon = 100500.0;
  sim.run(warmup, horizon);
  const double window = horizon - warmup;

  for (int dim = 1; dim <= d; ++dim) {
    double total = 0.0;
    for (NodeId x = 0; x < 32; ++x) {
      total += static_cast<double>(
          sim.arc_counters()[cube.arc_index(x, dim)].total_arrivals);
    }
    EXPECT_NEAR(total / 32.0 / window / (lambda * p), 1.0, 0.04)
        << "dimension " << dim;
  }
}

TEST(Rates, Prop15StraightAndVerticalRates) {
  // Butterfly: straight arcs at lambda(1-p), vertical arcs at lambda p,
  // for every level (Prop. 15).
  const int d = 4;
  const double lambda = 1.0, p = 0.3;
  TopologyRoutingConfig config;
  config.spec.name = "butterfly";
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = 45;
  TopologyGreedySim sim(config);
  const double warmup = 500.0, horizon = 60500.0;
  sim.run(warmup, horizon);
  const double window = horizon - warmup;
  const ButterflyTopology bfly(d);

  for (int level = 1; level <= d; ++level) {
    double straight = 0.0, vertical = 0.0;
    for (NodeId row = 0; row < 16; ++row) {
      straight += static_cast<double>(
          sim.arc_counters()[bfly.arc_index(row, level, ArcKind::kStraight)]
              .total_arrivals);
      vertical += static_cast<double>(
          sim.arc_counters()[bfly.arc_index(row, level, ArcKind::kVertical)]
              .total_arrivals);
    }
    EXPECT_NEAR(straight / 16.0 / window / (lambda * (1 - p)), 1.0, 0.03)
        << "level " << level;
    EXPECT_NEAR(vertical / 16.0 / window / (lambda * p), 1.0, 0.05)
        << "level " << level;
  }
}

TEST(Rates, MarkovPropertyCOnPacketLevelSimulator) {
  // Lemma 4 / Property C measured on the real simulator: among packets
  // leaving dimension-i arcs, the fraction continuing to dimension j is
  // p (1-p)^(j-i-1) and the fraction exiting is (1-p)^(d-i).
  // We infer these from per-arc arrival counters: arrivals at dim j =
  // sum over i < j of (departures from dim i) * P(i -> j) + external.
  const int d = 4;
  const double lambda = 1.0, p = 0.35;
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = 46;
  TopologyGreedySim sim(config);
  const HypercubeTopology cube(d);
  const double warmup = 500.0, horizon = 80500.0;
  sim.run(warmup, horizon);

  // Dimension-level totals.
  std::vector<double> external(d + 1, 0.0), total(d + 1, 0.0);
  for (int dim = 1; dim <= d; ++dim) {
    for (NodeId x = 0; x < 16; ++x) {
      const auto& counters = sim.arc_counters()[cube.arc_index(x, dim)];
      external[dim] += static_cast<double>(counters.external_arrivals);
      total[dim] += static_cast<double>(counters.total_arrivals);
    }
  }
  // Internal arrivals at dim j must equal
  // sum_{i<j} total[i] * p(1-p)^(j-i-1) in expectation.
  for (int j = 2; j <= d; ++j) {
    double predicted = 0.0;
    for (int i = 1; i < j; ++i) {
      predicted += total[i] * p * std::pow(1 - p, j - i - 1);
    }
    const double internal = total[j] - external[j];
    EXPECT_NEAR(internal / predicted, 1.0, 0.03) << "dimension " << j;
  }
}

}  // namespace
}  // namespace routesim
