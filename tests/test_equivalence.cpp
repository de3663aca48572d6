// Tests for the equivalent-network builders: Properties A, B, C of §3.1
// and the butterfly analogue of §4.3, plus the cross-implementation check
// that the Markovian network Q agrees with the packet-level simulator.

#include "core/equivalence.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "routing/topology_greedy.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

using ArcKind = ButterflyTopology::ArcKind;

TEST(NetworkQ, ServerCountIsArcCount) {
  const auto config = make_hypercube_network_q(4, 0.5, 0.3, Discipline::kFifo, 1);
  EXPECT_EQ(config.servers.size(), 4u * 16u);
}

TEST(NetworkQ, PropertyAExternalRates) {
  // External rate at arc (x, x^e_i) is lambda p (1-p)^(i-1).
  const int d = 5;
  const double lambda = 0.7, p = 0.3;
  const auto config = make_hypercube_network_q(d, lambda, p, Discipline::kFifo, 1);
  for (int dim = 1; dim <= d; ++dim) {
    const double expected = lambda * p * std::pow(1 - p, dim - 1);
    for (NodeId x = 0; x < 32; ++x) {
      EXPECT_NEAR(config.servers[q_server_index(d, x, dim)].external_rate, expected,
                  1e-12);
    }
  }
}

TEST(NetworkQ, PropertyCRoutingProbabilities) {
  const int d = 4;
  const double p = 0.4;
  const auto config = make_hypercube_network_q(d, 1.0, p, Discipline::kFifo, 1);
  // From arc (x, x^e_1): joins dim j at node x^e_1 with p(1-p)^(j-2).
  const NodeId x = 0b0101;
  const auto& spec = config.servers[q_server_index(d, x, 1)];
  ASSERT_EQ(spec.routing.size(), 3u);
  for (int j = 2; j <= d; ++j) {
    const auto& choice = spec.routing[static_cast<std::size_t>(j - 2)];
    EXPECT_NEAR(choice.probability, p * std::pow(1 - p, j - 2), 1e-12);
    EXPECT_EQ(choice.target, q_server_index(d, flip_dimension(x, 1), j));
  }
}

TEST(NetworkQ, PropertyCExitProbabilityIsRemainder) {
  // Continuation probabilities sum to 1 - (1-p)^(d-i).
  const int d = 6;
  const double p = 0.25;
  const auto config = make_hypercube_network_q(d, 1.0, p, Discipline::kFifo, 1);
  for (int dim = 1; dim <= d; ++dim) {
    const auto& spec = config.servers[q_server_index(d, 0, dim)];
    double continue_prob = 0.0;
    for (const auto& choice : spec.routing) continue_prob += choice.probability;
    EXPECT_NEAR(continue_prob, 1.0 - std::pow(1 - p, d - dim), 1e-12);
  }
}

TEST(NetworkQ, LastDimensionAlwaysExits) {
  const auto config = make_hypercube_network_q(5, 1.0, 0.5, Discipline::kFifo, 1);
  for (NodeId x = 0; x < 32; ++x) {
    EXPECT_TRUE(config.servers[q_server_index(5, x, 5)].routing.empty());
  }
}

TEST(NetworkQ, TotalExternalRateMatchesEnteringPackets) {
  // Sum of Property A rates = lambda 2^d (1 - (1-p)^d): every packet that
  // needs at least one hop enters Q exactly once.
  const int d = 6;
  const double lambda = 0.9, p = 0.35;
  const auto config = make_hypercube_network_q(d, lambda, p, Discipline::kFifo, 1);
  double total = 0.0;
  for (const auto& spec : config.servers) total += spec.external_rate;
  EXPECT_NEAR(total, lambda * 64.0 * (1.0 - std::pow(1 - p, d)), 1e-9);
}

TEST(NetworkQ, IsConstructibleAndLevelled) {
  // The LevelledNetwork constructor validates target > source, so simply
  // constructing proves Property B (levelled structure).
  const auto config = make_hypercube_network_q(6, 0.8, 0.5, Discipline::kPs, 7);
  EXPECT_NO_THROW(LevelledNetwork net(config));
}

TEST(NetworkQ, Prop5TotalArrivalRatePerArcIsRho) {
  // Simulate Q and verify every arc's total arrival rate ~ rho = lambda p.
  const int d = 4;
  const double lambda = 1.2, p = 0.5;  // rho = 0.6
  LevelledNetwork net(make_hypercube_network_q(d, lambda, p, Discipline::kFifo, 11));
  const double warmup = 500.0, horizon = 40500.0;
  net.run(warmup, horizon);
  const double window = horizon - warmup;
  // Average across arcs of each dimension (pooling tightens the estimate),
  // but also spot-check individual arcs.
  for (int dim = 1; dim <= d; ++dim) {
    double dimension_total = 0.0;
    for (NodeId x = 0; x < 16; ++x) {
      dimension_total +=
          static_cast<double>(net.server_stats()[q_server_index(d, x, dim)].total_arrivals);
    }
    EXPECT_NEAR(dimension_total / 16.0 / window, lambda * p, 0.03)
        << "dimension " << dim;
  }
}

TEST(NetworkQ, AgreesWithPacketLevelSimulator) {
  // Cross-implementation check: population of Q ~ population of the d-cube
  // under greedy routing (they are the same system by §3.1).
  const int d = 5;
  const double lambda = 1.0, p = 0.5;  // rho = 0.5
  const double warmup = 500.0, horizon = 60500.0;

  LevelledNetwork net(make_hypercube_network_q(d, lambda, p, Discipline::kFifo, 13));
  net.run(warmup, horizon);

  TopologyRoutingConfig cube_cfg;
  cube_cfg.spec.d = d;
  cube_cfg.lambda = lambda;
  cube_cfg.destinations = DestinationDistribution::bit_flip(d, p);
  cube_cfg.seed = 13;
  TopologyGreedySim cube(cube_cfg);
  cube.run(warmup, horizon);

  EXPECT_NEAR(net.time_avg_population() / cube.time_avg_population(), 1.0, 0.05);
  // Delay: Q's sojourn is conditional on entering; rescale (see §3.1).
  const double enter_prob = 1.0 - std::pow(1 - p, d);
  EXPECT_NEAR(net.delay().mean() * enter_prob / cube.delay().mean(), 1.0, 0.05);
}

TEST(NetworkR, ServerCountIsArcCount) {
  const auto config = make_butterfly_network_r(3, 0.5, 0.5, Discipline::kFifo, 1);
  EXPECT_EQ(config.servers.size(), 3u * 16u);  // d * 2^(d+1)
}

TEST(NetworkR, OnlyLevelOneHasExternalArrivals) {
  const int d = 4;
  const double lambda = 0.8, p = 0.3;
  const auto config = make_butterfly_network_r(d, lambda, p, Discipline::kFifo, 1);
  for (int level = 1; level <= d; ++level) {
    for (NodeId row = 0; row < 16; ++row) {
      const double straight =
          config.servers[r_server_index(d, row, level, ArcKind::kStraight)]
              .external_rate;
      const double vertical =
          config.servers[r_server_index(d, row, level, ArcKind::kVertical)]
              .external_rate;
      if (level == 1) {
        EXPECT_NEAR(straight, lambda * (1 - p), 1e-12);
        EXPECT_NEAR(vertical, lambda * p, 1e-12);
      } else {
        EXPECT_DOUBLE_EQ(straight, 0.0);
        EXPECT_DOUBLE_EQ(vertical, 0.0);
      }
    }
  }
}

TEST(NetworkR, RoutingFollowsRowsAndSplitsByP) {
  const int d = 3;
  const double p = 0.25;
  const auto config = make_butterfly_network_r(d, 1.0, p, Discipline::kFifo, 1);
  // After vertical arc (row; 1; v) the packet is at row^e_1 on level 2.
  const NodeId row = 0b011;
  const auto& spec =
      config.servers[r_server_index(d, row, 1, ArcKind::kVertical)];
  ASSERT_EQ(spec.routing.size(), 2u);
  const NodeId next = flip_dimension(row, 1);
  EXPECT_NEAR(spec.routing[0].probability, 1 - p, 1e-12);
  EXPECT_EQ(spec.routing[0].target,
            r_server_index(d, next, 2, ArcKind::kStraight));
  EXPECT_NEAR(spec.routing[1].probability, p, 1e-12);
  EXPECT_EQ(spec.routing[1].target,
            r_server_index(d, next, 2, ArcKind::kVertical));
}

TEST(NetworkR, LastLevelExits) {
  const auto config = make_butterfly_network_r(4, 1.0, 0.5, Discipline::kFifo, 1);
  for (NodeId row = 0; row < 16; ++row) {
    EXPECT_TRUE(config.servers[r_server_index(4, row, 4, ArcKind::kStraight)]
                    .routing.empty());
    EXPECT_TRUE(config.servers[r_server_index(4, row, 4, ArcKind::kVertical)]
                    .routing.empty());
  }
}

TEST(NetworkR, Prop15ArrivalRatesByKind) {
  // Straight arcs see lambda(1-p), vertical arcs lambda p, at every level.
  const int d = 3;
  const double lambda = 1.0, p = 0.3;
  LevelledNetwork net(make_butterfly_network_r(d, lambda, p, Discipline::kFifo, 17));
  const double warmup = 500.0, horizon = 60500.0;
  net.run(warmup, horizon);
  const double window = horizon - warmup;
  for (int level = 1; level <= d; ++level) {
    double straight = 0.0, vertical = 0.0;
    for (NodeId row = 0; row < 8; ++row) {
      straight += static_cast<double>(
          net.server_stats()[r_server_index(d, row, level, ArcKind::kStraight)]
              .total_arrivals);
      vertical += static_cast<double>(
          net.server_stats()[r_server_index(d, row, level, ArcKind::kVertical)]
              .total_arrivals);
    }
    EXPECT_NEAR(straight / 8.0 / window, lambda * (1 - p), 0.02) << "level " << level;
    EXPECT_NEAR(vertical / 8.0 / window, lambda * p, 0.02) << "level " << level;
  }
}

TEST(Lemma9Builder, ShapeAndRates) {
  const auto config =
      make_lemma9_network(0.3, 0.4, 0.1, 0.5, 0.6, Discipline::kFifo, 3);
  ASSERT_EQ(config.servers.size(), 3u);
  EXPECT_DOUBLE_EQ(config.servers[0].external_rate, 0.3);
  EXPECT_DOUBLE_EQ(config.servers[1].external_rate, 0.4);
  EXPECT_DOUBLE_EQ(config.servers[2].external_rate, 0.1);
  EXPECT_EQ(config.servers[0].routing[0].target, 2u);
  EXPECT_EQ(config.servers[1].routing[0].target, 2u);
  EXPECT_TRUE(config.servers[2].routing.empty());
}

TEST(Builders, RejectBadParameters) {
  EXPECT_THROW((void)make_hypercube_network_q(0, 1.0, 0.5, Discipline::kFifo, 1),
               ContractViolation);
  EXPECT_THROW((void)make_hypercube_network_q(4, -1.0, 0.5, Discipline::kFifo, 1),
               ContractViolation);
  EXPECT_THROW((void)make_hypercube_network_q(4, 1.0, 1.5, Discipline::kFifo, 1),
               ContractViolation);
  EXPECT_THROW((void)make_butterfly_network_r(4, 1.0, -0.1, Discipline::kFifo, 1),
               ContractViolation);
  EXPECT_THROW((void)make_lemma9_network(-0.1, 0.1, 0.1, 0.5, 0.5,
                                         Discipline::kFifo, 1),
               ContractViolation);
}

}  // namespace
}  // namespace routesim
