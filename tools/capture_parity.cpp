// Maintenance tool (build target: tool_capture_parity): prints hexfloat
// metric vectors for each packet simulator.  The pinned constants in
// tests/test_kernel_parity.cpp were produced by running this tool at the
// last commit *before* the simulators were rebased onto the shared packet
// kernel; rerun it whenever a deliberate behaviour change requires
// re-pinning, and diff its output across commits to prove bit parity.
#include <cstdio>
#include <vector>

#include "core/equivalence.hpp"
#include "queueing/levelled_network.hpp"
#include "routing/deflection.hpp"
#include "routing/multicast.hpp"
#include "routing/pipelined_baseline.hpp"
#include "routing/topology_greedy.hpp"
#include "workload/permutation.hpp"
#include "workload/trace.hpp"

using namespace routesim;

namespace {
void emit(const char* name, const std::vector<double>& values) {
  std::printf("%s = {", name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%a", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("};\n");
}
}  // namespace

int main() {
  {
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 1.0;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 42;
    c.track_occupancy = true;
    c.track_delay_histogram = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("hypercube_continuous",
         {sim.delay().mean(), sim.delay().max(), sim.hops().mean(),
          sim.time_avg_population(), stats.peak_population(),
          sim.final_population(),
          static_cast<double>(stats.deliveries_in_window()),
          static_cast<double>(stats.arrivals_in_window()), sim.throughput(),
          sim.little_check().relative_error(),
          static_cast<double>(sim.arc_counters()[3].total_arrivals),
          static_cast<double>(sim.arc_counters()[3].external_arrivals),
          stats.occupancy_means()[5], sim.max_node_occupancy(),
          static_cast<double>(stats.delay_histogram()->bin_count(4)),
          stats.delay_histogram()->quantile(0.9)});
  }
  {
    TopologyRoutingConfig c;
    c.spec.d = 5;
    c.lambda = 0.9;
    c.destinations = DestinationDistribution::bit_flip(5, 0.4);
    c.seed = 3;
    c.slot = 0.5;
    TopologyGreedySim sim(c);
    sim.run(40.0, 540.0);
    emit("hypercube_slotted",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), sim.final_population(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  {
    // tau = 0.2: five slot controls per unit service time, so most service
    // completions land exactly on a slot tick and tie with its control.
    TopologyRoutingConfig c;
    c.spec.d = 5;
    c.lambda = 0.8;
    c.destinations = DestinationDistribution::bit_flip(5, 0.5);
    c.seed = 77;
    c.slot = 0.2;
    TopologyGreedySim sim(c);
    sim.run(25.0, 325.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("hypercube_tick_boundary",
         {sim.delay().mean(), sim.delay().max(), sim.hops().mean(),
          sim.time_avg_population(), stats.peak_population(),
          sim.final_population(),
          static_cast<double>(stats.deliveries_in_window()),
          static_cast<double>(stats.arrivals_in_window()), sim.throughput(),
          sim.little_check().relative_error(),
          static_cast<double>(sim.arc_counters()[3].total_arrivals),
          static_cast<double>(sim.arc_counters()[3].external_arrivals)});
  }
  {
    const auto dist = DestinationDistribution::uniform(5);
    const PacketTrace trace = generate_hypercube_trace(5, 0.8, dist, 400.0, 21);
    TopologyRoutingConfig c;
    c.spec.d = 5;
    c.lambda = 0.8;
    c.destinations = dist;
    c.seed = 21;
    c.trace = &trace;
    TopologyGreedySim sim(c);
    sim.run(30.0, 400.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("hypercube_trace",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), static_cast<double>(stats.deliveries_in_window())});
  }
  {
    TopologyRoutingConfig c;
    c.spec.d = 5;
    c.lambda = 1.2;
    c.destinations = DestinationDistribution::uniform(5);
    c.seed = 8;
    c.service_order = ArcServiceOrder::kLifo;
    c.dimension_order = DimensionOrder::kRandomPerHop;
    c.buffer_capacity = 3;
    TopologyGreedySim sim(c);
    sim.run(25.0, 525.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("hypercube_ablation",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), static_cast<double>(stats.drops_in_window()),
          static_cast<double>(stats.deliveries_in_window())});
  }
  for (const std::uint32_t buffers : {0u, 3u}) {
    TopologyRoutingConfig c;
    c.spec.d = 5;
    c.lambda = 1.2;
    c.destinations = DestinationDistribution::uniform(5);
    c.seed = 13;
    c.service_order = ArcServiceOrder::kRandom;
    c.buffer_capacity = buffers;
    c.track_delay_histogram = true;
    TopologyGreedySim sim(c);
    sim.run(25.0, 525.0);
    const KernelStats& stats = sim.kernel_stats();
    emit(buffers == 0 ? "hypercube_random_order"
                      : "hypercube_random_order_buffers",
         {sim.delay().mean(), sim.delay().max(), sim.delay().variance(),
          sim.hops().mean(), sim.time_avg_population(), sim.throughput(),
          static_cast<double>(stats.drops_in_window()),
          static_cast<double>(stats.deliveries_in_window()),
          stats.delay_histogram()->quantile(0.9)});
  }
  {
    TopologyRoutingConfig c;
    c.spec.name = "butterfly";
    c.spec.d = 5;
    c.lambda = 0.8;
    c.destinations = DestinationDistribution::bit_flip(5, 0.4);
    c.seed = 7;
    c.track_occupancy = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("butterfly_continuous",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.final_population(),
          static_cast<double>(stats.deliveries_in_window()),
          static_cast<double>(stats.arrivals_in_window()), sim.throughput(),
          sim.little_check().relative_error(),
          static_cast<double>(sim.arc_counters()[2].total_arrivals),
          stats.occupancy_means()[1]});
  }
  {
    TopologyRoutingConfig c;
    c.spec.name = "butterfly";
    c.spec.d = 4;
    c.lambda = 0.7;
    c.destinations = DestinationDistribution::uniform(4);
    c.seed = 5;
    c.slot = 1.0;
    TopologyGreedySim sim(c);
    sim.run(20.0, 520.0);
    emit("butterfly_slotted",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  for (const double slot : {0.0, 1.0}) {
    // Twin detours at a live fault rate, continuous and slotted: misrouted
    // packets are fault-dropped at the exit level.
    TopologyRoutingConfig c;
    c.spec.name = "butterfly";
    c.spec.d = 6;
    c.lambda = 0.6;
    c.destinations = DestinationDistribution::bit_flip(6, 0.4);
    c.seed = 43;
    c.slot = slot;
    c.track_occupancy = true;
    c.fault_policy = FaultPolicy::kTwinDetour;
    c.faults.arc_fault_rate = 0.05;
    c.faults.node_fault_rate = 0.01;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    emit(slot == 0.0 ? "butterfly_twin_detour_continuous"
                     : "butterfly_twin_detour_slotted",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
          static_cast<double>(stats.fault_drops_in_window()),
          static_cast<double>(stats.deliveries_in_window()),
          static_cast<double>(sim.arc_counters()[70].total_arrivals),
          stats.occupancy_means()[2], stats.max_occupancy()});
  }
  {
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.5;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 9;
    c.valiant = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    emit("valiant",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.final_population(), sim.throughput(),
          static_cast<double>(sim.kernel_stats().arrivals_in_window()),
          sim.little_check().relative_error()});
  }
  {
    MulticastConfig c;
    c.d = 6;
    c.lambda = 0.05;
    c.fanout = 4;
    c.seed = 11;
    GreedyMulticastSim sim(c);
    sim.run(50.0, 550.0);
    emit("multicast_tree",
         {sim.delivery_delay().mean(), sim.completion_delay().mean(),
          sim.transmissions_per_packet().mean(),
          sim.time_avg_copies_in_network(),
          static_cast<double>(sim.packets_in_window())});
  }
  {
    MulticastConfig c;
    c.d = 6;
    c.lambda = 0.05;
    c.fanout = 4;
    c.seed = 11;
    c.unicast_baseline = true;
    GreedyMulticastSim sim(c);
    sim.run(50.0, 550.0);
    emit("multicast_unicast",
         {sim.delivery_delay().mean(), sim.completion_delay().mean(),
          sim.transmissions_per_packet().mean(),
          sim.time_avg_copies_in_network(),
          static_cast<double>(sim.packets_in_window())});
  }
  {
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.05;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 13;
    DeflectionSim sim(c);
    sim.run(50, 1050);
    emit("deflection",
         {sim.delay().mean(), sim.hops().mean(), sim.deflection_fraction(),
          static_cast<double>(sim.injection_backlog()),
          static_cast<double>(sim.deliveries_in_window())});
  }
  {
    PipelinedBaselineConfig c;
    c.d = 5;
    c.lambda = 0.01;
    c.destinations = DestinationDistribution::uniform(5);
    c.seed = 17;
    PipelinedBaselineSim sim(c);
    sim.run(100.0, 2100.0);
    emit("pipelined",
         {sim.delay().mean(), sim.round_length().mean(),
          sim.backlog_at_rounds().mean(), static_cast<double>(sim.backlog()),
          static_cast<double>(sim.deliveries_in_window())});
  }
  {
    // Per-source fixed-destination (permutation workload) pins, captured
    // when the mode was introduced: the kernel consumes no destination
    // randomness, so these values regress any change to the fixed path.
    const Permutation perm = Permutation::bit_reversal(6);
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.3;
    c.destinations = DestinationDistribution::uniform(6);
    c.fixed_destinations = &perm.table();
    c.seed = 42;
    c.track_occupancy = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    emit("hypercube_bit_reversal",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), sim.max_node_occupancy(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  {
    const Permutation perm = Permutation::bit_reversal(6);
    TopologyRoutingConfig c;
    c.spec.name = "butterfly";
    c.spec.d = 6;
    c.lambda = 0.1;
    c.destinations = DestinationDistribution::uniform(6);
    c.fixed_destinations = &perm.table();
    c.seed = 42;
    c.track_occupancy = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    emit("butterfly_bit_reversal",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  {
    const Permutation perm = Permutation::transpose(6);
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.2;
    c.destinations = DestinationDistribution::uniform(6);
    c.fixed_destinations = &perm.table();
    c.seed = 42;
    c.valiant = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    emit("valiant_transpose",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  {
    // Fault-storm pins, captured when the storm process was introduced:
    // any change to the storm RNG stream (salt 0x5709), ball growth,
    // expiry ordering or base/composite state split shifts these values.
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.5;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 31;
    c.fault_policy = FaultPolicy::kSkipDim;
    c.faults.storm_rate = 0.05;
    c.faults.storm_radius = 1;
    c.faults.storm_duration = 20.0;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("hypercube_storm",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
          static_cast<double>(stats.fault_drops_in_window()),
          static_cast<double>(stats.deliveries_in_window()),
          static_cast<double>(sim.fault_model().storms().storms_started())});
  }
  {
    // Adaptive-policy pins under a static fault set: regress the one-hop
    // lookahead's probe order and deflection fallback.
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.5;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 37;
    c.fault_policy = FaultPolicy::kAdaptive;
    c.faults.arc_fault_rate = 0.15;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("hypercube_adaptive",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
          static_cast<double>(stats.fault_drops_in_window()),
          static_cast<double>(stats.deliveries_in_window())});
  }
  {
    // Valiant under a storm with the adaptive policy: pins the phase-target
    // reroute and the storm wiring on the second scheme that has it.
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.3;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 41;
    c.valiant = true;
    c.fault_policy = FaultPolicy::kAdaptive;
    c.faults.storm_rate = 0.04;
    c.faults.storm_radius = 1;
    c.faults.storm_duration = 15.0;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    emit("valiant_storm_adaptive",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), sim.kernel_stats().delivery_ratio(),
          sim.kernel_stats().mean_stretch(),
          static_cast<double>(sim.kernel_stats().fault_drops_in_window()),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  {
    // Topology-parametric pins, captured when the generic simulator was
    // introduced: any change to the ring's arc indexing, BFS metric or
    // greedy tie-break shifts these values.
    TopologyRoutingConfig c;
    c.spec = {"ring", 6, "4,16", "4x4"};
    c.lambda = 0.2;
    c.seed = 23;
    c.track_delay_histogram = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    emit("topology_ring_chords",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), sim.final_population(),
          sim.little_check().relative_error(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  {
    TopologyRoutingConfig c;
    c.spec = {"torus", 4, "", "4x4x4"};
    c.lambda = 0.5;
    c.seed = 29;
    c.track_delay_histogram = true;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    emit("topology_torus",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), sim.final_population(),
          sim.little_check().relative_error(),
          static_cast<double>(sim.kernel_stats().deliveries_in_window())});
  }
  for (const auto discipline : {Discipline::kFifo, Discipline::kPs}) {
    auto config = make_hypercube_network_q(5, 1.0, 0.5, discipline, 19);
    config.track_per_server = true;
    LevelledNetwork net(config);
    net.set_checkpoints({100.0, 300.0, 500.0});
    net.run(50.0, 550.0);
    emit(discipline == Discipline::kFifo ? "network_q_fifo" : "network_q_ps",
         {net.delay().mean(), net.time_avg_population(),
          net.peak_population(), net.final_population(),
          static_cast<double>(net.departures_in_window()),
          static_cast<double>(net.arrivals_in_window()), net.throughput(),
          static_cast<double>(net.checkpoint_departures()[1]),
          net.server_stats()[2].mean_occupancy,
          static_cast<double>(net.server_stats()[2].total_arrivals)});
  }
  {
    // Dynamic-fault pins: the exponential up/down process (its RNG stream,
    // transition order and node-kill exclusion) under skip_dim on the cube
    // and under deflection with a binding TTL.
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.5;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 47;
    c.fault_policy = FaultPolicy::kSkipDim;
    c.faults.mtbf = 100.0;
    c.faults.mttr = 10.0;
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    emit("hypercube_dynamic_skip_dim",
         {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
          sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
          static_cast<double>(stats.fault_drops_in_window()),
          static_cast<double>(stats.deliveries_in_window()),
          static_cast<double>(sim.fault_model().faulty_arc_count())});
  }
  {
    TopologyRoutingConfig c;
    c.spec.d = 6;
    c.lambda = 0.05;
    c.destinations = DestinationDistribution::uniform(6);
    c.seed = 53;
    c.ttl = 8;
    c.faults.mtbf = 100.0;
    c.faults.mttr = 10.0;
    DeflectionSim sim(c);
    sim.run(50, 1050);
    const KernelStats& stats = sim.kernel_stats();
    emit("deflection_dynamic",
         {sim.delay().mean(), sim.hops().mean(), sim.deflection_fraction(),
          static_cast<double>(sim.injection_backlog()),
          static_cast<double>(sim.deliveries_in_window()),
          stats.delivery_ratio(), stats.mean_stretch(),
          static_cast<double>(stats.fault_drops_in_window()),
          static_cast<double>(sim.fault_model().faulty_arc_count())});
  }
  return 0;
}
