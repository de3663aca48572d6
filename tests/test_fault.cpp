// Fault-injection subsystem tests: the FaultModel itself (static Bernoulli
// sets, node faults, the dynamic up/down process), the fault-aware routing
// policies, and the resilience metrics (delivery ratio, stretch, fault
// drops) harvested through the Scenario engine.

#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
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
  model.configure(config, cube, 1);
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
  FaultModel all_down;
  all_down.configure(config, *ring, 5);
  EXPECT_EQ(all_down.faulty_arc_count(), 96u);

  config.arc_fault_rate = 0.3;
  FaultModel a;
  FaultModel b;
  a.configure(config, *ring, 5);
  b.configure(config, *ring, 5);
  EXPECT_GT(a.faulty_arc_count(), 0u);
  EXPECT_LT(a.faulty_arc_count(), 96u);
  for (std::uint32_t arc = 0; arc < 96; ++arc) {
    EXPECT_EQ(a.is_faulty(arc), b.is_faulty(arc)) << "arc " << arc;
  }

  FaultModel c;
  c.configure(config, *ring, 6);  // a different replication, a different set
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
  for (const Topology* topo : {static_cast<const Topology*>(&cube),
                               static_cast<const Topology*>(&bfly)}) {
    FaultModel model;
    model.configure(config, *topo, 11);
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
  FaultModel model;
  model.configure(config, *ring, 3);
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
}

TEST(FaultModel, NodeKilledArcsAreNeverRepairedByTheDynamicProcess) {
  const HypercubeTopology cube(3);
  FaultModelConfig config;
  config.node_fault_rate = 0.3;
  config.mtbf = 5.0;
  config.mttr = 1.0;
  FaultModel model;
  model.configure(config, cube, 4);
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
  EXPECT_THROW(model.configure(config, cube, 1), ContractViolation);
}

// Bad fault combinations must fail as catchable ScenarioErrors when the
// scenario is compiled — before replications fan out to worker threads,
// where an exception would terminate the process.
TEST(FaultResilience, InvalidFaultCombinationsFailAtCompileTime) {
  Scenario butterfly_policy_on_cube;
  butterfly_policy_on_cube.scheme = "hypercube_greedy";
  butterfly_policy_on_cube.faults.arc_fault_rate = 0.1;
  butterfly_policy_on_cube.fault_policy = "twin_detour";
  EXPECT_THROW((void)run(butterfly_policy_on_cube), ScenarioError);

  Scenario cube_policy_on_butterfly;
  cube_policy_on_butterfly.scheme = "butterfly_greedy";
  cube_policy_on_butterfly.faults.arc_fault_rate = 0.1;
  cube_policy_on_butterfly.fault_policy = "skip_dim";
  EXPECT_THROW((void)run(cube_policy_on_butterfly), ScenarioError);

  // mtbf without mttr (and vice versa) is a half-specified dynamic
  // process; a lone mttr must not silently simulate a pristine network.
  Scenario half_dynamic;
  half_dynamic.scheme = "hypercube_greedy";
  half_dynamic.faults.mtbf = 100.0;
  EXPECT_TRUE(half_dynamic.faults_active());
  EXPECT_THROW((void)run(half_dynamic), ScenarioError);
  Scenario mttr_only;
  mttr_only.scheme = "hypercube_greedy";
  mttr_only.faults.mttr = 10.0;
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
  quiet.faults.arc_fault_rate = 0.1;
  EXPECT_THROW(butterfly.check(quiet), ScenarioError);

  // Schemes without fault support must reject active fault knobs instead
  // of silently simulating a pristine network under a faulty label.
  for (const char* scheme :
       {"multicast", "pipelined_baseline", "batch_greedy", "network_q_fifo"}) {
    Scenario unsupported;
    unsupported.scheme = scheme;
    unsupported.faults.arc_fault_rate = 0.2;
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
  scenario.faults.arc_fault_rate = f;
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
  scenario.faults.arc_fault_rate = f;
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
  scenario.faults.arc_fault_rate = 0.15;
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
  config.faults.arc_fault_rate = 0.12;
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

  scenario.faults.arc_fault_rate = 0.1;
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
  scenario.faults.arc_fault_rate = 0.15;
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
  scenario.faults.arc_fault_rate = 0.15;
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
  buffers_only.faults.arc_fault_rate = 0.0;
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
  scenario.faults.mtbf = 60.0;
  scenario.faults.mttr = 15.0;
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
  valiant.faults.arc_fault_rate = 0.1;
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
  deflection.faults.arc_fault_rate = 0.1;
  deflection.window = {50.0, 1050.0};
  deflection.plan = {4, 23};
  const RunResult deflected = run(deflection);
  EXPECT_GT(deflected.extra("delivery_ratio")->mean, 0.0);
  EXPECT_LE(deflected.extra("delivery_ratio")->mean, 1.0);
  EXPECT_GE(deflected.extra("mean_stretch")->mean, 1.0);
  ASSERT_NE(deflected.extra("fault_drops"), nullptr);
}

// --- the Scenario -> simulator fault path, bit for bit --------------------

// Each of the seven fault keys, set to a distinct value, lands in the one
// FaultModelConfig the scenario holds and reaches the simulator's config
// (routing_config, the builder of every fault-aware routing cell) as it is.
TEST(FaultConfig, SevenKeysReachTheSimulatorConfigAsOneValue) {
  const Scenario s = Scenario::parse_text(
      "hypercube_greedy d=5 fault_rate=0.125 node_fault_rate=0.0625 "
      "fault_mtbf=100.5 fault_mttr=12.25 storm_rate=0.04 storm_radius=3 "
      "storm_duration=17.5 ttl=9");
  FaultModelConfig expected;
  expected.arc_fault_rate = 0.125;
  expected.node_fault_rate = 0.0625;
  expected.mtbf = 100.5;
  expected.mttr = 12.25;
  expected.storm_rate = 0.04;
  expected.storm_radius = 3;
  expected.storm_duration = 17.5;
  EXPECT_EQ(s.faults, expected);
  EXPECT_EQ(Scenario::parse_text(s.to_string()).faults, expected);
  for (const std::string family : {"hypercube", "butterfly", "ring"}) {
    const TopologyRoutingConfig config = routing_config(s, family, nullptr);
    EXPECT_EQ(config.faults, expected) << family;
    EXPECT_EQ(config.ttl, 9) << family;
    EXPECT_EQ(config.spec.name, family);
  }
}

// Whole-result goldens of small fault-path cells, captured before the
// fault knobs became one value: the scenario text -> routing config ->
// fault model mapping must stay bit-identical, TTL included (the deflection
// and Valiant cells drop packets at their TTL), and knobs that change
// nothing (a TTL or a storm radius without faults) must stay inert.
TEST(FaultConfig, ScenarioCellsMatchTheirGoldens) {
  const std::vector<std::pair<std::string, std::string>> goldens = {
    {"hypercube_greedy d=6 lambda=0.4 fault_rate=0.05 "
     "fault_policy=skip_dim reps=2 measure=300",
     R"({"rho":0.2,"delay_mean":4.0936967372773259,)"
     R"("delay_half_width":8.7733664265152917,)"
     R"("population_mean":204.48271858478915,)"
     R"("population_half_width":1466.8286910396741,)"
     R"("throughput_mean":24.950000000000003,)"
     R"("throughput_half_width":10.842628041533914,)"
     R"("mean_hops":3.0806295403106994,)"
     R"("max_little_error":0.62066507628929113,)"
     R"("mean_final_backlog":286.5,"has_bounds":false,"lower_bound":0,)"
     R"("upper_bound":0,"extras":{"delivery_ratio":{"mean":1,)"
     R"("half_width":0},"mean_stretch":{"mean":1.0490050386019525,)"
     R"("half_width":0.25085374558611606},)"
     R"("delay_p50":{"mean":3.6748240812028712,)"
     R"("half_width":0.723995940678251},)"
     R"("delay_p99":{"mean":21.569435483870986,)"
     R"("half_width":179.67290782699266},"fault_drops":{"mean":0,)"
     R"("half_width":0},"buffer_drops":{"mean":0,"half_width":0}}})"},
    {"hypercube_greedy d=5 lambda=0.4 node_fault_rate=0.04 "
     "fault_policy=adaptive reps=2 measure=300",
     R"({"rho":0.2,"delay_mean":5.153377873775014,)"
     R"("delay_half_width":11.285051346130054,)"
     R"("population_mean":216.27230899131217,)"
     R"("population_half_width":727.5587731990355,)"
     R"("throughput_mean":11.33,)"
     R"("throughput_half_width":5.0401278786817825,)"
     R"("mean_hops":2.4848534193485792,)"
     R"("max_little_error":0.71728546514577307,"mean_final_backlog":314,)"
     R"("has_bounds":false,"lower_bound":0,"upper_bound":0,)"
     R"("extras":{"delivery_ratio":{"mean":0.94901852620540494,)"
     R"("half_width":0.22191374218894871},)"
     R"("mean_stretch":{"mean":1.0027487049370976,)"
     R"("half_width":0.034925607690089885},)"
     R"("delay_p50":{"mean":3.2298974261304894,)"
     R"("half_width":1.070437422725361},)"
     R"("delay_p99":{"mean":44.836666666666666,)"
     R"("half_width":83.395057085078548},"fault_drops":{"mean":181.5,)"
     R"("half_width":756.01918180226755},"buffer_drops":{"mean":0,)"
     R"("half_width":0}}})"},
    {"hypercube_greedy d=6 lambda=0.4 fault_mtbf=150 fault_mttr=15 "
     "fault_policy=skip_dim reps=2 measure=300",
     R"({"rho":0.2,"delay_mean":4.4436052549347522,)"
     R"("delay_half_width":2.329434376633801,)"
     R"("population_mean":115.70305638171567,)"
     R"("population_half_width":77.27670828551301,)"
     R"("throughput_mean":25.155,)"
     R"("throughput_half_width":1.0376733867874304,)"
     R"("mean_hops":3.5942100591577768,)"
     R"("max_little_error":0.031819389411362316,)"
     R"("mean_final_backlog":114,"has_bounds":false,"lower_bound":0,)"
     R"("upper_bound":0,"extras":{"delivery_ratio":{"mean":1,)"
     R"("half_width":0},"mean_stretch":{"mean":1.2285073005601177,)"
     R"("half_width":0.41028330947294578},)"
     R"("delay_p50":{"mean":3.8308474569117723,)"
     R"("half_width":0.24159627154556068},)"
     R"("delay_p99":{"mean":24.610666666666653,)"
     R"("half_width":31.3504424857163},"fault_drops":{"mean":0,)"
     R"("half_width":0},"buffer_drops":{"mean":0,"half_width":0}}})"},
    {"hypercube_greedy d=6 lambda=0.4 storm_rate=0.05 "
     "storm_radius=2 storm_duration=20 fault_policy=deflect reps=2 "
     "measure=300",
     R"({"rho":0.2,"delay_mean":6.2850474864543724,)"
     R"("delay_half_width":6.7529906031783682,)"
     R"("population_mean":126.10318108861614,)"
     R"("population_half_width":167.722011564318,)"
     R"("throughput_mean":15.91,)"
     R"("throughput_half_width":16.136880014939152,)"
     R"("mean_hops":3.7667207919574333,)"
     R"("max_little_error":0.22743575460513157,"mean_final_backlog":188,)"
     R"("has_bounds":false,"lower_bound":0,"upper_bound":0,)"
     R"("extras":{"delivery_ratio":{"mean":0.63450660177854257,)"
     R"("half_width":0.4726629413413469},)"
     R"("mean_stretch":{"mean":1.3289748691699503,)"
     R"("half_width":0.87198994600950908},)"
     R"("delay_p50":{"mean":3.943698165226968,)"
     R"("half_width":1.3156757767903138},)"
     R"("delay_p99":{"mean":37.249249999999996,)"
     R"("half_width":18.211167938119434},"fault_drops":{"mean":2.74e+03,)"
     R"("half_width":2808.0712466941372},"buffer_drops":{"mean":0,)"
     R"("half_width":0}}})"},
    {"butterfly_greedy d=5 lambda=0.5 fault_rate=0.03 "
     "fault_policy=twin_detour reps=2 measure=300",
     R"({"rho":0.25,"delay_mean":5.5953994003906882,)"
     R"("delay_half_width":0.41198795094327373,)"
     R"("population_mean":90.109228768879177,)"
     R"("population_half_width":19.730969023700322,)"
     R"("throughput_mean":13.405000000000001,)"
     R"("throughput_half_width":2.5200639393408855,)"
     R"("mean_hops":2.5371018241042922,)"
     R"("max_little_error":0.0088396207875326063,)"
     R"("mean_final_backlog":78.5,"has_bounds":false,"lower_bound":0,)"
     R"("upper_bound":0,)"
     R"("extras":{"delivery_ratio":{"mean":0.84985014705333406,)"
     R"("half_width":0.21565330077309133},"mean_stretch":{"mean":1,)"
     R"("half_width":0},"delay_p50":{"mean":5.6294970946134439,)"
     R"("half_width":0.14669631865995589},)"
     R"("delay_p99":{"mean":8.4011803135888528,)"
     R"("half_width":2.2494298950836504},"fault_drops":{"mean":711,)"
     R"("half_width":1067.3211978384954},"buffer_drops":{"mean":0,)"
     R"("half_width":0}}})"},
    {"valiant_mixing d=5 lambda=0.25 fault_rate=0.05 "
     "fault_policy=skip_dim ttl=8 reps=2 measure=300",
     R"({"rho":0.125,"delay_mean":5.8776653266382777,)"
     R"("delay_half_width":0.33147080210813262,)"
     R"("population_mean":50.352254120952026,)"
     R"("population_half_width":19.095399441429514,)"
     R"("throughput_mean":7.1533333333333333,)"
     R"("throughput_half_width":2.1177007893620976,)"
     R"("mean_hops":5.0204505242008359,)"
     R"("max_little_error":0.06263582544324936,)"
     R"("mean_final_backlog":52.5,"has_bounds":false,"lower_bound":0,)"
     R"("upper_bound":0,)"
     R"("extras":{"delivery_ratio":{"mean":0.90832420387280322,)"
     R"("half_width":0.068151985178230276},)"
     R"("mean_stretch":{"mean":1.0269110869568849,)"
     R"("half_width":0.028683999187102859},)"
     R"("delay_p50":{"mean":5.9248287671232873,)"
     R"("half_width":0.0021757199890700186},)"
     R"("delay_p99":{"mean":11.004798761609905,)"
     R"("half_width":0.71634671283498919},"fault_drops":{"mean":217,)"
     R"("half_width":241.41788998727876},"buffer_drops":{"mean":0,)"
     R"("half_width":0}}})"},
    {"deflection d=6 lambda=0.05 fault_rate=0.08 ttl=7 reps=2 "
     "measure=300",
     R"({"rho":0.025,"delay_mean":3.0823594209241145,)"
     R"("delay_half_width":0.39865062552197728,"population_mean":0,)"
     R"("population_half_width":0,"throughput_mean":2.9916666666666663,)"
     R"("throughput_half_width":1.4612135446598462,)"
     R"("mean_hops":3.0823594209241145,"max_little_error":0,)"
     R"("mean_final_backlog":5,"has_bounds":false,"lower_bound":0,)"
     R"("upper_bound":0,)"
     R"("extras":{"deflection_fraction":{"mean":0.0529137493855663,)"
     R"("half_width":0.19835263589588129},)"
     R"("delivery_ratio":{"mean":0.943394755092763,)"
     R"("half_width":0.23406799064525044},)"
     R"("mean_stretch":{"mean":1.022510074730983,)"
     R"("half_width":0.0289932484459589},)"
     R"("delay_p50":{"mean":3.5847749566830838,)"
     R"("half_width":0.2922286673943395},)"
     R"("delay_p99":{"mean":6.5481066176470577,)"
     R"("half_width":0.47671624754649222},"fault_drops":{"mean":53.5,)"
     R"("half_width":209.65237814684735}}})"},
    {"deflection d=6 lambda=0.05 ttl=5 reps=2 measure=300",
     R"({"rho":0.025,"delay_mean":3.0577533772012764,)"
     R"("delay_half_width":0.40697852466961854,"population_mean":0,)"
     R"("population_half_width":0,"throughput_mean":3.17,)"
     R"("throughput_half_width":0.76237228417035452,)"
     R"("mean_hops":3.0577533772012764,"max_little_error":0,)"
     R"("mean_final_backlog":5,"has_bounds":false,"lower_bound":0,)"
     R"("upper_bound":0,)"
     R"("extras":{"deflection_fraction":{"mean":0.0035969477143735812,)"
     R"("half_width":0.000748571444154879},"delivery_ratio":{"mean":1,)"
     R"("half_width":0},"mean_stretch":{"mean":1.0105692255387861,)"
     R"("half_width":0.004969504553581033},)"
     R"("delay_p50":{"mean":3.5597495206136145,)"
     R"("half_width":0.32808626682746406},)"
     R"("delay_p99":{"mean":6.4025882352941146,)"
     R"("half_width":0.61737206541638967},"fault_drops":{"mean":0,)"
     R"("half_width":0}}})"},
    {"hypercube_greedy d=6 lambda=0.4 storm_radius=2 reps=2 "
     "measure=300",
     R"({"rho":0.2,"delay_mean":3.2951781315402298,)"
     R"("delay_half_width":0.05835741031637167,)"
     R"("population_mean":83.963173828317125,)"
     R"("population_half_width":10.10489006183839,)"
     R"("throughput_mean":25.095,)"
     R"("throughput_half_width":2.3082938604046936,)"
     R"("mean_hops":3.0057326694208539,)"
     R"("max_little_error":0.0025520209288020213,)"
     R"("mean_final_backlog":101.5,"has_bounds":true,)"
     R"("lower_bound":3.0625,"upper_bound":3.75,)"
     R"("extras":{"delivery_ratio":{"mean":1,"half_width":0},)"
     R"("mean_stretch":{"mean":1,"half_width":0},)"
     R"("delay_p50":{"mean":3.564540074007875,)"
     R"("half_width":0.10450249256470591},)"
     R"("delay_p99":{"mean":6.867479787739982,)"
     R"("half_width":0.50998630385913379},"fault_drops":{"mean":0,)"
     R"("half_width":0},"buffer_drops":{"mean":0,"half_width":0}}})"},
  };
  for (const auto& [text, golden] : goldens) {
    EXPECT_EQ(result_to_json(Engine().run_one(Scenario::parse_text(text))),
              golden)
        << text;
  }
}

}  // namespace
}  // namespace routesim
