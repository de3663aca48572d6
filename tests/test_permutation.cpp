// Permutation workload tests: bijectivity and structure of every family,
// static congestion analysis against hand-computed small cases and the
// bit-reversal closed form, scenario-level validation of the
// workload=permutation keys, and end-to-end runs through every scheme that
// accepts the fixed-destination mode.

#include "workload/permutation.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/scenario.hpp"
#include "routing/topology_greedy.hpp"
#include "util/bits.hpp"

namespace routesim {
namespace {

TEST(Permutation, AllFamiliesExceptHotspotAreBijective) {
  for (const int d : {1, 2, 3, 5, 8, 10}) {
    for (const auto& name : Permutation::names()) {
      const Permutation perm = Permutation::by_name(name, d, 0.25, 99);
      ASSERT_EQ(perm.dimension(), d);
      ASSERT_EQ(perm.table().size(), std::size_t{1} << d);
      if (name == "hotspot") continue;  // the deliberate exception
      EXPECT_TRUE(perm.is_bijective()) << name << " d=" << d;
      EXPECT_EQ(perm.max_fan_in(), 1u) << name << " d=" << d;
    }
  }
}

TEST(Permutation, SelfInverseFamilies) {
  for (const int d : {3, 5, 8}) {
    for (const auto* name : {"bit_reversal", "transpose", "bit_complement"}) {
      const Permutation perm = Permutation::by_name(name, d);
      for (NodeId x = 0; x < perm.table().size(); ++x) {
        EXPECT_EQ(perm.map(perm.map(x)), x) << name << " d=" << d << " x=" << x;
      }
    }
  }
}

TEST(Permutation, FamilyStructure) {
  const Permutation rev = Permutation::bit_reversal(4);
  EXPECT_EQ(rev.map(0b0001), 0b1000u);
  EXPECT_EQ(rev.map(0b0110), 0b0110u);  // palindrome fixed point

  const Permutation trans = Permutation::transpose(4);
  EXPECT_EQ(trans.map(0b0011), 0b1100u);  // low half <-> high half

  const Permutation comp = Permutation::bit_complement(3);
  for (NodeId x = 0; x < 8; ++x) EXPECT_EQ(comp.map(x), 7u - x);
  EXPECT_DOUBLE_EQ(comp.mean_distance(), 3.0);

  const Permutation shuf = Permutation::shuffle(3);
  EXPECT_EQ(shuf.map(0b001), 0b010u);
  EXPECT_EQ(shuf.map(0b100), 0b001u);  // high bit wraps around

  const Permutation torn = Permutation::tornado(3);
  for (NodeId x = 0; x < 8; ++x) EXPECT_EQ(torn.map(x), (x + 3) % 8);

  // Equal seeds reproduce the random permutation; different seeds (almost
  // surely) do not.
  EXPECT_EQ(Permutation::random(6, 5).table(), Permutation::random(6, 5).table());
  EXPECT_NE(Permutation::random(6, 5).table(), Permutation::random(6, 6).table());
}

TEST(Permutation, HotspotConcentration) {
  // frac = 0 degenerates to the bit complement (bijective).
  EXPECT_TRUE(Permutation::hotspot(4, 0.0).is_bijective());

  // frac = 0.25 at d = 4: sources 0..3 -> node 0, plus source 15 whose
  // complement is 0 => fan-in 5 at the hot node.
  const Permutation hot = Permutation::hotspot(4, 0.25);
  EXPECT_FALSE(hot.is_bijective());
  for (NodeId x = 0; x < 4; ++x) EXPECT_EQ(hot.map(x), 0u);
  EXPECT_EQ(hot.map(4), 11u);
  EXPECT_EQ(hot.max_fan_in(), 5u);

  EXPECT_THROW(Permutation::hotspot(4, 1.5), std::invalid_argument);
  EXPECT_THROW(Permutation::hotspot(4, -0.1), std::invalid_argument);
}

TEST(Permutation, ByNameRejectsUnknownFamilies) {
  EXPECT_THROW(Permutation::by_name("butterfly_effect", 4), std::invalid_argument);
  EXPECT_THROW(Permutation::summary("butterfly_effect"), std::invalid_argument);
  for (const auto& name : Permutation::names()) {
    EXPECT_FALSE(Permutation::summary(name).empty());
    EXPECT_EQ(Permutation::by_name(name, 4, 0.5, 3).name(), name);
  }
}

// --- static congestion analysis ------------------------------------------

TEST(Congestion, HandComputedHypercubeAllToZero) {
  // d = 2, every source sends to node 0.  Greedy paths: 1 -> 0 via
  // (1, dim1); 2 -> 0 via (2, dim2); 3 -> 0 via (3, dim1) then (2, dim2).
  // Arc (2, dim2) carries two paths; two arcs carry one; five carry none.
  const std::vector<NodeId> all_to_zero{0, 0, 0, 0};
  const CongestionReport report =
      topology_greedy_congestion(HypercubeTopology(2), all_to_zero);
  EXPECT_EQ(report.max_load, 2u);
  EXPECT_EQ(report.arcs_used, 3u);
  EXPECT_EQ(report.num_arcs, 8u);
  EXPECT_DOUBLE_EQ(report.mean_load, 4.0 / 8.0);
}

TEST(Congestion, HandComputedButterflyBitReversal) {
  // d = 2 bit reversal: the four paths are arc-disjoint (2 arcs each, 8 of
  // the 16 arcs used), so the max load is 1 — matching the closed form
  // 2^(ceil(2/2)-1) = 1.
  const CongestionReport report =
      topology_greedy_congestion(ButterflyTopology(2),
                                 Permutation::bit_reversal(2).table());
  EXPECT_EQ(report.max_load, 1u);
  EXPECT_EQ(report.arcs_used, 8u);
  EXPECT_EQ(report.num_arcs, 16u);
  EXPECT_DOUBLE_EQ(report.mean_load, 8.0 / 16.0);
}

TEST(Congestion, BitComplementHypercubePathsAreArcDisjoint) {
  // Antipodal routing in increasing dimension order uses every arc exactly
  // once: max = mean = 1.
  const CongestionReport report =
      topology_greedy_congestion(HypercubeTopology(3),
                                 Permutation::bit_complement(3).table());
  EXPECT_EQ(report.max_load, 1u);
  EXPECT_EQ(report.arcs_used, report.num_arcs);
  EXPECT_DOUBLE_EQ(report.mean_load, 1.0);
}

TEST(Congestion, BitReversalClosedFormMatchesBruteForce) {
  for (int d = 1; d <= 10; ++d) {
    const CongestionReport report =
        topology_greedy_congestion(ButterflyTopology(d),
                                   Permutation::bit_reversal(d).table());
    EXPECT_EQ(report.max_load, butterfly_bit_reversal_max_congestion(d))
        << "d=" << d;
  }
}

TEST(Congestion, IdentityLoadsNothingOnTheHypercube) {
  const std::vector<NodeId> identity{0, 1, 2, 3};
  const CongestionReport report =
      topology_greedy_congestion(HypercubeTopology(2), identity);
  EXPECT_EQ(report.max_load, 0u);
  EXPECT_EQ(report.arcs_used, 0u);
}

// --- scenario-level validation and wiring --------------------------------

TEST(PermutationScenario, KeysValidateAndRoundTrip) {
  Scenario scenario;
  scenario.set("workload", "permutation");
  scenario.set("permutation", "transpose");
  scenario.set("hotspot_frac", "0.5");
  EXPECT_EQ(scenario.permutation, "transpose");
  EXPECT_DOUBLE_EQ(scenario.hotspot_frac, 0.5);

  EXPECT_THROW(scenario.set("permutation", "unknown_family"), ScenarioError);
  EXPECT_THROW(scenario.set("hotspot_frac", "1.5"), ScenarioError);
  EXPECT_THROW(scenario.set("hotspot_frac", "-0.25"), ScenarioError);
  EXPECT_EQ(scenario.permutation, "transpose");  // rejected sets left no trace

  std::vector<std::string> args{scenario.scheme};
  for (const auto& [key, value] : scenario.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  EXPECT_EQ(Scenario::parse(args), scenario);
}

TEST(PermutationScenario, TableAndLoadFactor) {
  Scenario scenario;
  scenario.d = 6;
  scenario.workload = "permutation";
  scenario.permutation = "bit_reversal";
  const auto table = scenario.permutation_table();
  EXPECT_EQ(table, Permutation::bit_reversal(6).table());

  // rho = lambda * max congestion (4 at d = 6), and --set rho= solves the
  // linear relation back to lambda.
  scenario.lambda = 0.1;
  EXPECT_DOUBLE_EQ(scenario.rho(), 0.4);
  scenario.set("rho", "0.5");
  EXPECT_DOUBLE_EQ(scenario.resolved().lambda, 0.125);

  // An unknown family set directly (bypassing set()) still fails as a
  // catchable ScenarioError at compile time, not deep in a worker.
  scenario.permutation = "nope";
  EXPECT_THROW(scenario.permutation_table(), ScenarioError);
  EXPECT_THROW(run(scenario), ScenarioError);

  // permutation_table() outside the permutation workload is a usage error.
  Scenario bit_flip;
  EXPECT_THROW(bit_flip.permutation_table(), ScenarioError);
}

TEST(PermutationScenario, EverySupportingSchemeRuns) {
  for (const auto* scheme :
       {"hypercube_greedy", "butterfly_greedy", "valiant_mixing", "deflection",
        "pipelined_baseline", "multicast", "batch_greedy"}) {
    Scenario scenario;
    scenario.scheme = scheme;
    scenario.d = 4;
    scenario.workload = "permutation";
    scenario.permutation = "shuffle";  // congestion 1: stable everywhere
    scenario.lambda = 0.05;
    scenario.window = {20.0, 220.0};
    scenario.plan = {1, 7};
    const RunResult result = run(scenario);
    if (std::string(scheme) != "batch_greedy") {
      EXPECT_GT(result.throughput.mean, 0.0) << scheme;
    }
    EXPECT_FALSE(result.has_bounds) << scheme;  // no closed-form bracket
  }
}

TEST(PermutationScenario, EquivalentNetworksRejectPermutationWorkload) {
  for (const auto* scheme : {"network_q", "network_q_fifo", "network_q_ps"}) {
    Scenario scenario;
    scenario.scheme = scheme;
    scenario.workload = "permutation";
    EXPECT_THROW(run(scenario), ScenarioError) << scheme;
  }
}

TEST(PermutationScenario, MaxQueueExtraAppearsOnlyForPermutations) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 4;
  scenario.lambda = 0.1;
  scenario.workload = "permutation";
  scenario.permutation = "bit_complement";
  scenario.window = {20.0, 220.0};
  scenario.plan = {1, 7};
  const RunResult perm_result = run(scenario);
  ASSERT_NE(perm_result.extra("max_queue"), nullptr);
  EXPECT_GT(perm_result.extra("max_queue")->mean, 0.0);
  // Antipodal permutation: every delivered packet crosses exactly d arcs.
  EXPECT_DOUBLE_EQ(perm_result.mean_hops, 4.0);

  scenario.workload = "uniform";
  EXPECT_EQ(run(scenario).extra("max_queue"), nullptr);
}

TEST(PermutationScenario, IdentityOrbitDeliversInPlace) {
  // tornado at d = 1 is the identity map: every packet is delivered at its
  // origin with delay 0 through the fixed-destination kernel path.
  const Permutation identity = Permutation::tornado(1);
  TopologyRoutingConfig config;
  config.spec.d = 1;
  config.lambda = 0.5;
  config.destinations = DestinationDistribution::uniform(1);
  config.fixed_destinations = &identity.table();
  config.seed = 11;
  TopologyGreedySim sim(config);
  sim.run(10.0, 210.0);
  EXPECT_GT(sim.kernel_stats().deliveries_in_window(), 0u);
  EXPECT_DOUBLE_EQ(sim.delay().mean(), 0.0);
  EXPECT_DOUBLE_EQ(sim.hops().mean(), 0.0);
}

}  // namespace
}  // namespace routesim
