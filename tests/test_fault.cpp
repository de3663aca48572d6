// Fault-injection subsystem tests: the FaultModel itself (static Bernoulli
// sets, node faults, the dynamic up/down process), the fault-aware routing
// policies, and the resilience metrics (delivery ratio, stretch, fault
// drops) harvested through the Scenario engine.

#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "routing/topology_greedy.hpp"
#include "topology/topology.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

TEST(FaultPolicyNames, ParseAndNameRoundTrip) {
  for (const FaultPolicy policy :
       {FaultPolicy::kDrop, FaultPolicy::kSkipDim, FaultPolicy::kDeflect,
        FaultPolicy::kTwinDetour}) {
    EXPECT_EQ(parse_fault_policy(fault_policy_name(policy)), policy);
  }
  EXPECT_THROW((void)parse_fault_policy("teleport"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_policy(""), std::invalid_argument);
}

TEST(FaultModel, ZeroRatesAreInactiveAndAllUp) {
  const HypercubeTopology cube(4);  // 64 arcs, 16 nodes
  FaultModel model;
  FaultModelConfig config;
  model.configure(config, cube);
  EXPECT_FALSE(model.active());
  EXPECT_FALSE(model.dynamic());
  EXPECT_EQ(model.faulty_arc_count(), 0u);
  for (std::uint32_t arc = 0; arc < 64; ++arc) {
    EXPECT_FALSE(model.is_faulty(arc));
  }
}

TEST(FaultModel, RateOneKillsEveryArcAndSamplingIsDeterministic) {
  // 16 nodes with strides {1, 2, 4} both ways: 96 arcs.
  const auto ring = make_topology({"ring", 4, "2,4", "4x4"});
  ASSERT_EQ(ring->num_arcs(), 96u);
  FaultModelConfig config;
  config.arc_fault_rate = 1.0;
  config.seed = 5;
  FaultModel all_down;
  all_down.configure(config, *ring);
  EXPECT_EQ(all_down.faulty_arc_count(), 96u);

  config.arc_fault_rate = 0.3;
  FaultModel a;
  FaultModel b;
  a.configure(config, *ring);
  b.configure(config, *ring);
  EXPECT_GT(a.faulty_arc_count(), 0u);
  EXPECT_LT(a.faulty_arc_count(), 96u);
  for (std::uint32_t arc = 0; arc < 96; ++arc) {
    EXPECT_EQ(a.is_faulty(arc), b.is_faulty(arc)) << "arc " << arc;
  }

  config.seed = 6;  // a different replication sees a different fault set
  FaultModel c;
  c.configure(config, *ring);
  bool any_difference = false;
  for (std::uint32_t arc = 0; arc < 96; ++arc) {
    any_difference = any_difference || (a.is_faulty(arc) != c.is_faulty(arc));
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultModel, NodeFaultKillsAllIncidentArcs) {
  const HypercubeTopology cube(4);
  const ButterflyTopology bfly(3);
  FaultModelConfig config;
  config.node_fault_rate = 0.2;
  config.seed = 11;
  for (const Topology* topo : {static_cast<const Topology*>(&cube),
                               static_cast<const Topology*>(&bfly)}) {
    FaultModel model;
    model.configure(config, *topo);
    ASSERT_GT(model.faulty_node_count(), 0u) << topo->name();
    std::uint32_t arcs_of_dead_nodes = 0;
    for (ArcId arc = 0; arc < topo->num_arcs(); ++arc) {
      if (model.is_node_faulty(topo->arc_source(arc)) ||
          model.is_node_faulty(topo->arc_target(arc))) {
        EXPECT_TRUE(model.is_faulty(arc)) << topo->name() << " arc " << arc;
        ++arcs_of_dead_nodes;
      }
    }
    // No arc rate: exactly the dead nodes' arcs are down.
    EXPECT_EQ(model.faulty_arc_count(), arcs_of_dead_nodes) << topo->name();
  }
}

TEST(FaultModel, DynamicProcessTogglesArcsInTimeOrder) {
  const auto ring = make_topology({"ring", 4, "", "4x4"});  // 32 arcs
  FaultModelConfig config;
  config.mtbf = 10.0;
  config.mttr = 5.0;
  config.seed = 3;
  FaultModel model;
  model.configure(config, *ring);
  EXPECT_TRUE(model.active());
  EXPECT_TRUE(model.dynamic());
  EXPECT_EQ(model.faulty_arc_count(), 0u);  // all arcs start up
  ASSERT_TRUE(std::isfinite(model.next_transition_time()));
  EXPECT_GT(model.next_transition_time(), 0.0);

  // Advancing past the first transition takes at least one arc down, and
  // the next pending transition always moves forward.
  double t = model.next_transition_time();
  model.advance_to(t);
  EXPECT_GT(model.faulty_arc_count(), 0u);
  EXPECT_GT(model.next_transition_time(), t);

  // Long-run: with mtbf = 2 * mttr roughly a third of the arcs are down
  // (up fraction mtbf / (mtbf + mttr) = 2/3); allow a wide band.
  model.advance_to(10000.0);
  const double down_fraction = model.faulty_arc_count() / 32.0;
  EXPECT_GT(down_fraction, 0.05);
  EXPECT_LT(down_fraction, 0.75);

  // The is_faulty(arc, now) convenience form advances on demand: a lazily
  // queried copy agrees with an explicitly advanced one.
  FaultModel lazy;
  lazy.configure(config, *ring);
  FaultModel eager;
  eager.configure(config, *ring);
  eager.advance_to(500.0);
  bool agree = true;
  for (std::uint32_t arc = 0; arc < 32; ++arc) {
    agree = agree && (lazy.is_faulty(arc, 500.0) == eager.is_faulty(arc));
  }
  EXPECT_TRUE(agree);
}

TEST(FaultModel, NodeKilledArcsAreNeverRepairedByTheDynamicProcess) {
  const HypercubeTopology cube(3);
  FaultModelConfig config;
  config.node_fault_rate = 0.3;
  config.mtbf = 5.0;
  config.mttr = 1.0;
  config.seed = 4;
  FaultModel model;
  model.configure(config, cube);
  ASSERT_GT(model.faulty_node_count(), 0u);
  // Long after every link has flapped many times, a dead node's incident
  // arcs are still down — the up/down process models link flapping, not
  // node repair.
  model.advance_to(10000.0);
  for (NodeId node = 0; node < cube.num_nodes(); ++node) {
    if (!model.is_node_faulty(node)) continue;
    for (int dim = 1; dim <= 3; ++dim) {
      EXPECT_TRUE(model.is_faulty(cube.arc_index(node, dim)));
      EXPECT_TRUE(model.is_faulty(cube.arc_index(flip_dimension(node, dim), dim)));
    }
  }
}

TEST(FaultModel, RejectsHalfSpecifiedDynamicProcess) {
  const HypercubeTopology cube(2);  // 8 arcs
  FaultModelConfig config;
  config.mtbf = 10.0;  // mttr missing
  FaultModel model;
  EXPECT_THROW(model.configure(config, cube), ContractViolation);
}

// Bad fault combinations must fail as catchable ScenarioErrors when the
// scenario is compiled — before replications fan out to worker threads,
// where an exception would terminate the process.
TEST(FaultResilience, InvalidFaultCombinationsFailAtCompileTime) {
  Scenario butterfly_policy_on_cube;
  butterfly_policy_on_cube.scheme = "hypercube_greedy";
  butterfly_policy_on_cube.fault_rate = 0.1;
  butterfly_policy_on_cube.fault_policy = "twin_detour";
  EXPECT_THROW((void)run(butterfly_policy_on_cube), ScenarioError);

  Scenario cube_policy_on_butterfly;
  cube_policy_on_butterfly.scheme = "butterfly_greedy";
  cube_policy_on_butterfly.fault_rate = 0.1;
  cube_policy_on_butterfly.fault_policy = "skip_dim";
  EXPECT_THROW((void)run(cube_policy_on_butterfly), ScenarioError);

  // mtbf without mttr (and vice versa) is a half-specified dynamic
  // process; a lone mttr must not silently simulate a pristine network.
  Scenario half_dynamic;
  half_dynamic.scheme = "hypercube_greedy";
  half_dynamic.fault_mtbf = 100.0;
  EXPECT_TRUE(half_dynamic.faults_active());
  EXPECT_THROW((void)run(half_dynamic), ScenarioError);
  Scenario mttr_only;
  mttr_only.scheme = "hypercube_greedy";
  mttr_only.fault_mttr = 10.0;
  EXPECT_TRUE(mttr_only.faults_active());
  EXPECT_THROW((void)run(mttr_only), ScenarioError);

  // fault_policy is consulted exactly when a fault source is set: with
  // none, even a policy outside the scheme's column passes the check.
  const auto& butterfly = *SchemeRegistry::instance().find("butterfly_greedy");
  Scenario quiet;
  quiet.scheme = "butterfly_greedy";
  quiet.fault_policy = "skip_dim";
  EXPECT_FALSE(quiet.faults_active());
  EXPECT_NO_THROW(butterfly.check(quiet));
  quiet.fault_rate = 0.1;
  EXPECT_THROW(butterfly.check(quiet), ScenarioError);

  // Schemes without fault support must reject active fault knobs instead
  // of silently simulating a pristine network under a faulty label.
  for (const char* scheme :
       {"multicast", "pipelined_baseline", "batch_greedy", "network_q_fifo"}) {
    Scenario unsupported;
    unsupported.scheme = scheme;
    unsupported.fault_rate = 0.2;
    EXPECT_THROW((void)run(unsupported), ScenarioError) << scheme;
  }
}

// --- closed-form checks through the Scenario engine ----------------------

// On the 1-cube with p = 1 every packet must cross its origin's single
// out-arc, which is statically down with probability f, so the expected
// delivery ratio under the drop policy is exactly 1 - f.
TEST(FaultResilience, DropPolicyDeliveryRatioMatchesClosedFormOnOneCube) {
  const double f = 0.3;
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 1;
  scenario.lambda = 0.5;
  scenario.p = 1.0;
  scenario.fault_rate = f;
  scenario.fault_policy = "drop";
  scenario.window = {50.0, 1050.0};
  scenario.plan = {200, 2024};
  const RunResult result = run(scenario);
  const auto* ratio = result.extra("delivery_ratio");
  ASSERT_NE(ratio, nullptr);
  // Within the across-replication CI half-width (plus a hair of slack for
  // the packets still in flight at the horizon).
  EXPECT_NEAR(ratio->mean, 1.0 - f, ratio->half_width + 0.01);
  ASSERT_NE(result.extra("fault_drops"), nullptr);
  EXPECT_GT(result.extra("fault_drops")->mean, 0.0);
}

// The butterfly has a unique path of d arcs per packet, so under the drop
// policy a packet survives iff all d required arcs are up: the expected
// delivery ratio is (1 - f)^d.
TEST(FaultResilience, ButterflyDropDeliveryRatioMatchesUniquePathClosedForm) {
  const double f = 0.1;
  const int d = 3;
  Scenario scenario;
  scenario.scheme = "butterfly_greedy";
  scenario.d = d;
  scenario.lambda = 0.4;
  scenario.p = 0.5;
  scenario.fault_rate = f;
  scenario.fault_policy = "drop";
  scenario.window = {50.0, 1050.0};
  scenario.plan = {100, 77};
  const RunResult result = run(scenario);
  const auto* ratio = result.extra("delivery_ratio");
  ASSERT_NE(ratio, nullptr);
  double expected = 1.0;
  for (int level = 0; level < d; ++level) expected *= 1.0 - f;
  EXPECT_NEAR(ratio->mean, expected, ratio->half_width + 0.01);
}

// A twin detour cannot save a butterfly packet (the unique-path property:
// the wrong row bit can never be fixed later), so misrouted packets are
// fault drops and every *delivered* packet has stretch exactly 1.
TEST(FaultResilience, ButterflyTwinDetourMisroutesInsteadOfSaving) {
  Scenario scenario;
  scenario.scheme = "butterfly_greedy";
  scenario.d = 4;
  scenario.lambda = 0.4;
  scenario.fault_rate = 0.15;
  scenario.fault_policy = "twin_detour";
  scenario.window = {50.0, 550.0};
  scenario.plan = {8, 9};
  const RunResult result = run(scenario);
  EXPECT_GT(result.extra("fault_drops")->mean, 0.0);
  EXPECT_LT(result.extra("delivery_ratio")->mean, 1.0);
  EXPECT_DOUBLE_EQ(result.extra("mean_stretch")->mean, 1.0);
}

// --- skip_dim: full delivery on a connected surviving graph --------------

// True iff the subgraph of live arcs is strongly connected (every node
// reaches every other along live arcs).
bool surviving_graph_strongly_connected(const HypercubeTopology& cube,
                                        const FaultModel& model) {
  const auto n = cube.num_nodes();
  for (const bool reverse : {false, true}) {
    std::vector<char> seen(n, 0);
    std::queue<NodeId> frontier;
    frontier.push(0);
    seen[0] = 1;
    std::uint32_t reached = 1;
    while (!frontier.empty()) {
      const NodeId node = frontier.front();
      frontier.pop();
      for (int dim = 1; dim <= cube.diameter(); ++dim) {
        const NodeId other = flip_dimension(node, dim);
        const ArcId arc = reverse ? cube.arc_index(other, dim)
                                  : cube.arc_index(node, dim);
        if (model.is_faulty(arc) || seen[other]) continue;
        seen[other] = 1;
        ++reached;
        frontier.push(other);
      }
    }
    if (reached != n) return false;
  }
  return true;
}

TEST(FaultResilience, SkipDimDeliversEverythingOnConnectedSurvivingGraph) {
  TopologyRoutingConfig config;
  config.spec.d = 4;
  config.lambda = 0.5;
  config.destinations = DestinationDistribution::uniform(4);
  config.fault_policy = FaultPolicy::kSkipDim;
  config.arc_fault_rate = 0.12;
  config.ttl = 1 << 14;  // effectively unlimited: only dead ends can drop
  bool tested_connected = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    config.seed = seed;
    TopologyGreedySim sim(config);
    if (!surviving_graph_strongly_connected(HypercubeTopology(4),
                                            sim.fault_model())) {
      continue;
    }
    ASSERT_GT(sim.fault_model().faulty_arc_count(), 0u);
    tested_connected = true;
    sim.run(0.0, 400.0);
    // Connectivity guarantees a live out-arc everywhere, so nothing is
    // ever dropped; every arrival is delivered or still in flight.
    const KernelStats& stats = sim.kernel_stats();
    EXPECT_EQ(stats.fault_drops_in_window(), 0u) << "seed " << seed;
    EXPECT_EQ(static_cast<double>(stats.arrivals_in_window()),
              static_cast<double>(stats.deliveries_in_window()) +
                  sim.final_population())
        << "seed " << seed;
    EXPECT_EQ(stats.delivery_ratio(), 1.0) << "seed " << seed;
    EXPECT_GE(stats.mean_stretch(), 1.0) << "seed " << seed;
  }
  ASSERT_TRUE(tested_connected)
      << "no seed in 1..12 produced a connected surviving graph";
}

// --- stretch invariants ---------------------------------------------------

TEST(FaultResilience, StretchIsOneOnFaultFreeRunsAndAtLeastOneUnderFaults) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 6;
  scenario.lambda = 1.0;
  scenario.p = 0.5;
  scenario.window = {50.0, 550.0};
  scenario.plan = {4, 31};
  const RunResult pristine = run(scenario);
  ASSERT_NE(pristine.extra("mean_stretch"), nullptr);
  EXPECT_DOUBLE_EQ(pristine.extra("mean_stretch")->mean, 1.0);
  EXPECT_DOUBLE_EQ(pristine.extra("delivery_ratio")->mean, 1.0);
  EXPECT_DOUBLE_EQ(pristine.extra("fault_drops")->mean, 0.0);

  scenario.fault_rate = 0.1;
  scenario.fault_policy = "skip_dim";
  const RunResult faulty = run(scenario);
  EXPECT_GE(faulty.extra("mean_stretch")->mean, 1.0);
  EXPECT_LE(faulty.extra("delivery_ratio")->mean, 1.0);
}

TEST(FaultResilience, DeflectPolicyAlsoRunsAndKeepsStretchAboveOne) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 5;
  scenario.lambda = 0.6;
  scenario.fault_rate = 0.15;
  scenario.fault_policy = "deflect";
  scenario.window = {50.0, 550.0};
  scenario.plan = {4, 13};
  const RunResult result = run(scenario);
  EXPECT_GE(result.extra("mean_stretch")->mean, 1.0);
  EXPECT_GT(result.extra("delivery_ratio")->mean, 0.0);
}

// --- the two drop sources stay distinguishable ---------------------------

TEST(FaultResilience, BufferDropsAndFaultDropsAreSeparatelyAccounted) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 5;
  scenario.lambda = 1.4;  // heavy load so finite buffers actually overflow
  scenario.p = 0.5;
  scenario.buffer_capacity = 2;
  scenario.fault_rate = 0.15;
  scenario.fault_policy = "drop";
  scenario.window = {50.0, 550.0};
  scenario.plan = {4, 101};
  const RunResult result = run(scenario);
  const auto* fault_drops = result.extra("fault_drops");
  const auto* buffer_drops = result.extra("buffer_drops");
  ASSERT_NE(fault_drops, nullptr);
  ASSERT_NE(buffer_drops, nullptr);
  EXPECT_GT(fault_drops->mean, 0.0);
  EXPECT_GT(buffer_drops->mean, 0.0);
  // The delivery ratio charges both loss sources.
  const auto* ratio = result.extra("delivery_ratio");
  EXPECT_LT(ratio->mean, 1.0);

  // Buffer-only configuration: no fault drops.
  Scenario buffers_only = scenario;
  buffers_only.fault_rate = 0.0;
  const RunResult no_faults = run(buffers_only);
  EXPECT_DOUBLE_EQ(no_faults.extra("fault_drops")->mean, 0.0);
  EXPECT_GT(no_faults.extra("buffer_drops")->mean, 0.0);
  EXPECT_LT(no_faults.extra("delivery_ratio")->mean, 1.0);
}

// --- dynamic faults through the kernel's control-event slot --------------

TEST(FaultResilience, DynamicUpDownProcessIsDeterministicAndHarvested) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 5;
  scenario.lambda = 0.8;
  scenario.fault_mtbf = 60.0;
  scenario.fault_mttr = 15.0;
  scenario.fault_policy = "skip_dim";
  scenario.window = {50.0, 550.0};
  scenario.plan = {4, 55};
  const RunResult first = run(scenario);
  const RunResult second = run(scenario);
  EXPECT_DOUBLE_EQ(first.delay.mean, second.delay.mean);
  EXPECT_DOUBLE_EQ(first.extra("delivery_ratio")->mean,
                   second.extra("delivery_ratio")->mean);
  EXPECT_LE(first.extra("delivery_ratio")->mean, 1.0);
  EXPECT_GE(first.extra("mean_stretch")->mean, 1.0);
  // The delay histogram is live: tails are populated.
  EXPECT_GE(first.extra("delay_p99")->mean, first.extra("delay_p50")->mean);
}

// --- valiant & deflection ride the same machinery ------------------------

TEST(FaultResilience, ValiantMixingAndDeflectionReportResilienceExtras) {
  Scenario valiant;
  valiant.scheme = "valiant_mixing";
  valiant.d = 5;
  valiant.lambda = 0.15;
  valiant.fault_rate = 0.1;
  valiant.fault_policy = "skip_dim";
  valiant.window = {50.0, 550.0};
  valiant.plan = {4, 21};
  const RunResult mixed = run(valiant);
  EXPECT_GE(mixed.extra("mean_stretch")->mean, 1.0);
  EXPECT_GT(mixed.extra("delivery_ratio")->mean, 0.0);
  EXPECT_LE(mixed.extra("delivery_ratio")->mean, 1.0);

  Scenario deflection;
  deflection.scheme = "deflection";
  deflection.d = 5;
  deflection.lambda = 0.05;
  deflection.fault_rate = 0.1;
  deflection.window = {50.0, 1050.0};
  deflection.plan = {4, 23};
  const RunResult deflected = run(deflection);
  EXPECT_GT(deflected.extra("delivery_ratio")->mean, 0.0);
  EXPECT_LE(deflected.extra("delivery_ratio")->mean, 1.0);
  EXPECT_GE(deflected.extra("mean_stretch")->mean, 1.0);
  ASSERT_NE(deflected.extra("fault_drops"), nullptr);
}

}  // namespace
}  // namespace routesim
