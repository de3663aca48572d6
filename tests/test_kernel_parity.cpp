// Cross-scheme parity suite for the shared packet kernel.
//
// Every value below was captured from the simulators *before* they were
// rebased onto des/packet_kernel.hpp (tools/capture_parity.cpp, run at the
// pre-refactor commit) and is written as a hexadecimal float literal, so
// the comparison is exact: the kernel must reproduce the original event
// order, RNG consumption order and floating-point arithmetic bit for bit.
// Any change to the kernel's event set, arc queues, arrival process or
// statistics that alters results — however slightly — fails here.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/equivalence.hpp"
#include "queueing/levelled_network.hpp"
#include "routing/deflection.hpp"
#include "routing/multicast.hpp"
#include "routing/pipelined_baseline.hpp"
#include "routing/topology_greedy.hpp"
#include "obs/trace.hpp"
#include "workload/permutation.hpp"
#include "workload/trace.hpp"

namespace routesim {
namespace {

// Every pinned case in this file replays with execution tracing active:
// a file-scope session installed as the ambient thread_trace() means the
// kernels record their drive spans while the hexfloat comparisons below
// stay exact — the observability layer's never-perturb-results contract,
// enforced at the strictest point in the test suite.
obs::TraceSession g_parity_trace_session;
obs::ThreadTraceScope g_parity_trace_scope(&g_parity_trace_session);

/// The topology-parametric config on the paper's d-cube: the greedy,
/// Valiant and deflection pins below run through it.
TopologyRoutingConfig cube_config(int d, double lambda,
                                  const DestinationDistribution& destinations,
                                  std::uint64_t seed) {
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = destinations;
  config.seed = seed;
  return config;
}

/// The same config on the paper's d-dimensional butterfly: its pins run
/// through the one greedy simulator too.
TopologyRoutingConfig butterfly_config(int d, double lambda,
                                       const DestinationDistribution& destinations,
                                       std::uint64_t seed) {
  TopologyRoutingConfig config =
      cube_config(d, lambda, destinations, seed);
  config.spec.name = "butterfly";
  return config;
}

void expect_exact(const std::vector<double>& actual,
                  const std::vector<double>& pinned) {
  ASSERT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], pinned[i]) << "metric index " << i;
  }
}

TEST(KernelParity, HypercubeContinuousWithOccupancyAndHistogram) {
  TopologyRoutingConfig config =
      cube_config(6, 1.0, DestinationDistribution::uniform(6), 42);
  config.track_occupancy = true;
  config.track_delay_histogram = true;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  const KernelStats& stats = sim.kernel_stats();
  expect_exact(
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
       stats.delay_histogram()->quantile(0.9)},
      {0x1.0c056af905f04p+2, 0x1.61f6bf533987p+4, 0x1.7ed650aa79378p+1,
       0x1.0d5c078f36224p+8, 0x1.5p+8, 0x1.2ap+8, 0x1.f11p+14, 0x1.f5b8p+14,
       0x1.fcfdf3b645a1dp+5, 0x1.95d562f44e424p-10, 0x1.aep+7, 0x1.aep+7,
       0x1.fe0446a0d94d2p+1, 0x1.ep+3, 0x1.89bp+12, 0x1.bcafeeaded7ap+2});
}

TEST(KernelParity, HypercubeSlotted) {
  TopologyRoutingConfig config =
      cube_config(5, 0.9, DestinationDistribution::bit_flip(5, 0.4), 3);
  config.slot = 0.5;
  TopologyGreedySim sim(config);
  sim.run(40.0, 540.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), sim.final_population(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.3c437449e7e1ep+1, 0x1.fdebd231b667p+0, 0x1.1bbe76c8b4396p+6,
       0x1.c91eb851eb852p+4, 0x1.0cp+6, 0x1.be68p+13});
}

// tau = 0.2: five slot controls per unit service time, so most service
// completions land exactly on a slot tick and tie with its control — the
// (time, seq) tie the other slotted pins (tau = 0.5 and 1) rarely reach.
// Captured by tools/capture_parity.
TEST(KernelParity, HypercubeSlottedTickBoundary) {
  TopologyRoutingConfig config =
      cube_config(5, 0.8, DestinationDistribution::bit_flip(5, 0.5), 77);
  config.slot = 0.2;
  TopologyGreedySim sim(config);
  sim.run(25.0, 325.0);
  const KernelStats& stats = sim.kernel_stats();
  expect_exact(
      {sim.delay().mean(), sim.delay().max(), sim.hops().mean(),
       sim.time_avg_population(), stats.peak_population(),
       sim.final_population(),
       static_cast<double>(stats.deliveries_in_window()),
       static_cast<double>(stats.arrivals_in_window()), sim.throughput(),
       sim.little_check().relative_error(),
       static_cast<double>(sim.arc_counters()[3].total_arrivals),
       static_cast<double>(sim.arc_counters()[3].external_arrivals)},
      {0x1.98694d1871e9ap+1, 0x1.8cccccccccdp+3, 0x1.40ce4de6bfcbfp+1,
       0x1.496508dfea349p+6, 0x1.c8p+6, 0x1.84p+6, 0x1.dc8p+12, 0x1.e29p+12,
       0x1.969d0369d036ap+4, 0x1.6e9e7db1aefb2p-9, 0x1.ep+6, 0x1.ep+6});
}

TEST(KernelParity, HypercubeTraceReplay) {
  const auto dist = DestinationDistribution::uniform(5);
  const PacketTrace trace = generate_hypercube_trace(5, 0.8, dist, 400.0, 21);
  TopologyRoutingConfig config = cube_config(5, 0.8, dist, 21);
  config.trace = &trace;
  TopologyGreedySim sim(config);
  sim.run(30.0, 400.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.929c3188bd2c9p+1, 0x1.3ea22856622e5p+1, 0x1.46ee3527959f8p+6,
       0x1.9b1d0f38bc31dp+4, 0x1.2918p+13});
}

TEST(KernelParity, HypercubeAblationsLifoRandomOrderFiniteBuffers) {
  TopologyRoutingConfig config =
      cube_config(5, 1.2, DestinationDistribution::uniform(5), 8);
  config.service_order = ArcServiceOrder::kLifo;
  config.dimension_order = DimensionOrder::kRandomPerHop;
  config.buffer_capacity = 3;
  TopologyGreedySim sim(config);
  sim.run(25.0, 525.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(),
       static_cast<double>(sim.kernel_stats().drops_in_window()),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.be6b8eba40477p+1, 0x1.3a285d7a285c2p+1, 0x1.fbc3226e1762fp+6,
       0x1.15a1cac083127p+5, 0x1.a54p+10, 0x1.0f2p+14});
}

// Random service order draws its pick from the kernel RNG after each pop,
// so any change to the queue's indexing or to the draw's timing shows here.
// Pinned with infinite buffers and with buffer_capacity = 3 (drops).
TEST(KernelParity, HypercubeRandomServiceOrderPinned) {
  const auto run = [](std::uint32_t buffers) {
    TopologyRoutingConfig config =
        cube_config(5, 1.2, DestinationDistribution::uniform(5), 13);
    config.service_order = ArcServiceOrder::kRandom;
    config.buffer_capacity = buffers;
    config.track_delay_histogram = true;
    TopologyGreedySim sim(config);
    sim.run(25.0, 525.0);
    const KernelStats& stats = sim.kernel_stats();
    return std::vector<double>{
        sim.delay().mean(), sim.delay().max(), sim.delay().variance(),
        sim.hops().mean(), sim.time_avg_population(), sim.throughput(),
        static_cast<double>(stats.drops_in_window()),
        static_cast<double>(stats.deliveries_in_window()),
        stats.delay_histogram()->quantile(0.9)};
  };
  expect_exact(run(0),
               {0x1.ffc5304479bedp+1, 0x1.b1c288e7c702p+4, 0x1.a8455f589e2fp+2,
                0x1.3d857e346944ap+1, 0x1.348e4573c0d7ap+7,
                0x1.31ba5e353f7cfp+5, 0x0p+0, 0x1.2a9p+14,
                0x1.c4d542004d543p+2});
  expect_exact(run(3),
               {0x1.b66d83588851dp+1, 0x1.9e5ee1d8fcdfp+3, 0x1.95ff6b074618cp+1,
                0x1.3c2396bbb888p+1, 0x1.f81b8336d6c7p+6,
                0x1.1c0c49ba5e354p+5, 0x1.634p+10, 0x1.1564p+14,
                0x1.72efc9c7079a3p+2});
}

TEST(KernelParity, ButterflyContinuousWithLevelOccupancy) {
  TopologyRoutingConfig config =
      butterfly_config(5, 0.8, DestinationDistribution::bit_flip(5, 0.4), 7);
  config.track_occupancy = true;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  const KernelStats& stats = sim.kernel_stats();
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.final_population(),
       static_cast<double>(stats.deliveries_in_window()),
       static_cast<double>(stats.arrivals_in_window()), sim.throughput(),
       sim.little_check().relative_error(),
       static_cast<double>(sim.arc_counters()[2].total_arrivals),
       stats.occupancy_means()[1]},
      {0x1.8a5bd874387e6p+2, 0x1.016f2bb02d3dcp+1, 0x1.365e6a2b5ca5dp+7,
       0x1.5ap+7, 0x1.83a8p+13, 0x1.891p+13, 0x1.8cf5c28f5c28fp+4,
       0x1.2a96c18bbda8dp-10, 0x1.c8p+7, 0x1.e9cb4a3f37beep+4});
}

TEST(KernelParity, ButterflySlotted) {
  TopologyRoutingConfig config =
      butterfly_config(4, 0.7, DestinationDistribution::uniform(4), 5);
  config.slot = 1.0;
  TopologyGreedySim sim(config);
  sim.run(20.0, 520.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.2e75dcc147709p+2, 0x1.01415fb12c26fp+1, 0x1.9bc6a7ef9db23p+5,
       0x1.59db22d0e5604p+3, 0x1.51cp+12});
}

TEST(KernelParity, ValiantMixing) {
  TopologyRoutingConfig config =
      cube_config(6, 0.5, DestinationDistribution::uniform(6), 9);
  config.valiant = true;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.final_population(), sim.throughput(),
       static_cast<double>(sim.kernel_stats().arrivals_in_window()),
       sim.little_check().relative_error()},
      {0x1.0bb28f4c05ce2p+3, 0x1.80255ab1c1d0ep+2, 0x1.0cd62adf2be9ep+8,
       0x1.15p+8, 0x1.f947ae147ae14p+4, 0x1.f618p+13, 0x1.1a89569698a64p-14});
}

TEST(KernelParity, MulticastTreeAndUnicastBaseline) {
  MulticastConfig config;
  config.d = 6;
  config.lambda = 0.05;
  config.fanout = 4;
  config.seed = 11;
  GreedyMulticastSim tree(config);
  tree.run(50.0, 550.0);
  expect_exact(
      {tree.delivery_delay().mean(), tree.completion_delay().mean(),
       tree.transmissions_per_packet().mean(), tree.time_avg_copies_in_network(),
       static_cast<double>(tree.packets_in_window())},
      {0x1.8c1224f046978p+1, 0x1.1b986495f9009p+2, 0x1.3a0707fd71758p+3,
       0x1.061165ec63e8cp+5, 0x1.938p+10});

  config.unicast_baseline = true;
  GreedyMulticastSim unicast(config);
  unicast.run(50.0, 550.0);
  expect_exact(
      {unicast.delivery_delay().mean(), unicast.completion_delay().mean(),
       unicast.transmissions_per_packet().mean(),
       unicast.time_avg_copies_in_network(),
       static_cast<double>(unicast.packets_in_window())},
      {0x1.d73edbbf4b33dp+1, 0x1.57d69910bae59p+2, 0x1.7fc7c0147455fp+3,
       0x1.7cfa1767f80f8p+5, 0x1.938p+10});
}

TEST(KernelParity, Deflection) {
  DeflectionSim sim(cube_config(6, 0.05, DestinationDistribution::uniform(6), 13));
  sim.run(50, 1050);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.deflection_fraction(),
       static_cast<double>(sim.injection_backlog()),
       static_cast<double>(sim.deliveries_in_window())},
      {0x1.81734f0c54203p+1, 0x1.81734f0c54203p+1, 0x1.450c0ff29780ap-9,
       0x1.4p+2, 0x1.8d2p+11});
}

TEST(KernelParity, PipelinedBaseline) {
  PipelinedBaselineConfig config;
  config.d = 5;
  config.lambda = 0.01;
  config.destinations = DestinationDistribution::uniform(5);
  config.seed = 17;
  PipelinedBaselineSim sim(config);
  sim.run(100.0, 2100.0);
  expect_exact(
      {sim.delay().mean(), sim.round_length().mean(),
       sim.backlog_at_rounds().mean(), static_cast<double>(sim.backlog()),
       static_cast<double>(sim.deliveries_in_window())},
      {0x1.cff9a91011616p+1, 0x1.5c7531788e2aep+1, 0x1.b91b91b91b91fp-7,
       0x0p+0, 0x1.56p+9});
}

// The levelled network shares the kernel's metric-harvest path (KernelStats),
// so its outputs are pinned too — under both disciplines of Prop. 11.
TEST(KernelParity, NetworkQFifoAndPs) {
  const std::vector<std::vector<double>> pinned = {
      {0x1.ce673037db013p+1, 0x1.be60eafd915bep+6, 0x1.2ap+7, 0x1.02p+7,
       0x1.e13p+13, 0x1.e1e8p+13, 0x1.ecbc6a7ef9db2p+4, 0x1.1e7p+13,
       0x1.90defa78b2d7p-1, 0x1.07p+8},
      {0x1.4602c9e2805f5p+2, 0x1.3b445e89d6158p+7, 0x1.ap+7, 0x1.6cp+7,
       0x1.e12p+13, 0x1.e1e8p+13, 0x1.ecac083126e98p+4, 0x1.1c98p+13,
       0x1.0a0090ba240e8p+0, 0x1.07p+8}};
  const Discipline disciplines[] = {Discipline::kFifo, Discipline::kPs};
  for (int which = 0; which < 2; ++which) {
    auto config = make_hypercube_network_q(5, 1.0, 0.5, disciplines[which], 19);
    config.track_per_server = true;
    LevelledNetwork net(config);
    net.set_checkpoints({100.0, 300.0, 500.0});
    net.run(50.0, 550.0);
    expect_exact(
        {net.delay().mean(), net.time_avg_population(), net.peak_population(),
         net.final_population(),
         static_cast<double>(net.departures_in_window()),
         static_cast<double>(net.arrivals_in_window()), net.throughput(),
         static_cast<double>(net.checkpoint_departures()[1]),
         net.server_stats()[2].mean_occupancy,
         static_cast<double>(net.server_stats()[2].total_arrivals)},
        pinned[which]);
  }
}

// The fault-injection subsystem must be invisible at fault_rate = 0: with a
// fault policy attached but every rate zero, routing goes through the
// fault-aware code path (FaultModel configured, per-hop liveness checks,
// TTL guard) yet never sees a dead arc, so results must stay bit-identical
// to the pristine pins above — same event order, same RNG consumption,
// same floating-point arithmetic.
TEST(KernelParity, HypercubeFaultPathAtZeroRateIsBitIdentical) {
  TopologyRoutingConfig config =
      cube_config(6, 1.0, DestinationDistribution::uniform(6), 42);
  config.track_occupancy = true;
  config.track_delay_histogram = true;
  for (const FaultPolicy policy :
       {FaultPolicy::kDrop, FaultPolicy::kSkipDim, FaultPolicy::kDeflect,
        FaultPolicy::kAdaptive}) {
    config.fault_policy = policy;  // all rates zero: nothing is ever down
    TopologyGreedySim sim(config);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    expect_exact(
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
         stats.delay_histogram()->quantile(0.9)},
        {0x1.0c056af905f04p+2, 0x1.61f6bf533987p+4, 0x1.7ed650aa79378p+1,
         0x1.0d5c078f36224p+8, 0x1.5p+8, 0x1.2ap+8, 0x1.f11p+14, 0x1.f5b8p+14,
         0x1.fcfdf3b645a1dp+5, 0x1.95d562f44e424p-10, 0x1.aep+7, 0x1.aep+7,
         0x1.fe0446a0d94d2p+1, 0x1.ep+3, 0x1.89bp+12, 0x1.bcafeeaded7ap+2});
    EXPECT_EQ(stats.fault_drops_in_window(), 0u);
    EXPECT_EQ(stats.delivery_ratio(), 1.0);
    EXPECT_EQ(stats.mean_stretch(), 1.0);
  }
}

TEST(KernelParity, HypercubeSlottedFaultPathAtZeroRateIsBitIdentical) {
  TopologyRoutingConfig config =
      cube_config(5, 0.9, DestinationDistribution::bit_flip(5, 0.4), 3);
  config.slot = 0.5;
  config.fault_policy = FaultPolicy::kSkipDim;
  TopologyGreedySim sim(config);
  sim.run(40.0, 540.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), sim.final_population(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.3c437449e7e1ep+1, 0x1.fdebd231b667p+0, 0x1.1bbe76c8b4396p+6,
       0x1.c91eb851eb852p+4, 0x1.0cp+6, 0x1.be68p+13});
}

TEST(KernelParity, ButterflyFaultPathAtZeroRateIsBitIdentical) {
  TopologyRoutingConfig config =
      butterfly_config(5, 0.8, DestinationDistribution::bit_flip(5, 0.4), 7);
  config.track_occupancy = true;
  for (const FaultPolicy policy :
       {FaultPolicy::kDrop, FaultPolicy::kTwinDetour}) {
    config.fault_policy = policy;
    TopologyGreedySim sim(config);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    expect_exact(
        {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
         sim.final_population(),
         static_cast<double>(stats.deliveries_in_window()),
         static_cast<double>(stats.arrivals_in_window()), sim.throughput(),
         sim.little_check().relative_error(),
         static_cast<double>(sim.arc_counters()[2].total_arrivals),
         stats.occupancy_means()[1]},
        {0x1.8a5bd874387e6p+2, 0x1.016f2bb02d3dcp+1, 0x1.365e6a2b5ca5dp+7,
         0x1.5ap+7, 0x1.83a8p+13, 0x1.891p+13, 0x1.8cf5c28f5c28fp+4,
         0x1.2a96c18bbda8dp-10, 0x1.c8p+7, 0x1.e9cb4a3f37beep+4});
    EXPECT_EQ(stats.fault_drops_in_window(), 0u);
    EXPECT_EQ(stats.delivery_ratio(), 1.0);
  }
}

// Twin detours at a live fault rate (arc and node faults): a detoured
// packet keeps its wrong row bit and is fault-dropped at the exit level.
// Captured by tools/capture_parity from the butterfly's former native
// simulator; continuous and slotted.
TEST(KernelParity, ButterflyTwinDetourPinned) {
  TopologyRoutingConfig config =
      butterfly_config(6, 0.6, DestinationDistribution::bit_flip(6, 0.4), 43);
  config.track_occupancy = true;
  config.fault_policy = FaultPolicy::kTwinDetour;
  config.faults.arc_fault_rate = 0.05;
  config.faults.node_fault_rate = 0.01;
  const auto run_pinned = [](const TopologyRoutingConfig& c) {
    TopologyGreedySim sim(c);
    sim.run(50.0, 550.0);
    const KernelStats& stats = sim.kernel_stats();
    return std::vector<double>{
        sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
        sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
        static_cast<double>(stats.fault_drops_in_window()),
        static_cast<double>(stats.deliveries_in_window()),
        static_cast<double>(sim.arc_counters()[70].total_arrivals),
        stats.occupancy_means()[2], stats.max_occupancy()};
  };
  expect_exact(run_pinned(config),
               {0x1.d02b1bfaeab5ep+2, 0x1.3080d40af0f08p+1, 0x1.2148ebb6705abp+8,
                0x1.a947ae147ae14p+4, 0x1.68633fbd2ee63p-1, 0x1p+0,
                0x1.5d7p+12, 0x1.9f5p+13, 0x1.dcp+7, 0x1.87c05b6530f1cp+5,
                0x1.54p+6});
  config.slot = 1.0;
  expect_exact(run_pinned(config),
               {0x1.ca6eed9d6e76ap+2, 0x1.2eafd1087f4dap+1,
                0x1.1b6872b020c4ap+8, 0x1.a83126e978d5p+4,
                0x1.66d6aa0d96ce7p-1, 0x1p+0, 0x1.61ap+12, 0x1.9e4p+13,
                0x1.03p+8, 0x1.ad9db22d0e56p+5, 0x1.4p+6});
}

TEST(KernelParity, ValiantMixingFaultPathAtZeroRateIsBitIdentical) {
  TopologyRoutingConfig config =
      cube_config(6, 0.5, DestinationDistribution::uniform(6), 9);
  config.valiant = true;
  for (const FaultPolicy policy :
       {FaultPolicy::kDrop, FaultPolicy::kSkipDim, FaultPolicy::kDeflect,
        FaultPolicy::kAdaptive}) {
    config.fault_policy = policy;
    TopologyGreedySim sim(config);
    sim.run(50.0, 550.0);
    expect_exact(
        {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
         sim.final_population(), sim.throughput(),
         static_cast<double>(sim.kernel_stats().arrivals_in_window()),
         sim.little_check().relative_error()},
        {0x1.0bb28f4c05ce2p+3, 0x1.80255ab1c1d0ep+2, 0x1.0cd62adf2be9ep+8,
         0x1.15p+8, 0x1.f947ae147ae14p+4, 0x1.f618p+13,
         0x1.1a89569698a64p-14});
    EXPECT_EQ(sim.kernel_stats().fault_drops_in_window(), 0u);
    EXPECT_EQ(sim.kernel_stats().mean_stretch(), 1.0);
  }
}

// Deflection with zero fault rates keeps the fault model inactive and its
// pins unchanged (its fault machinery only engages when an arc is down).
TEST(KernelParity, DeflectionFaultConfigAtZeroRateIsBitIdentical) {
  TopologyRoutingConfig config =
      cube_config(6, 0.05, DestinationDistribution::uniform(6), 13);
  config.ttl = 64 * 6;  // explicit TTL; never reached without faults
  DeflectionSim sim(config);
  sim.run(50, 1050);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.deflection_fraction(),
       static_cast<double>(sim.injection_backlog()),
       static_cast<double>(sim.deliveries_in_window())},
      {0x1.81734f0c54203p+1, 0x1.81734f0c54203p+1, 0x1.450c0ff29780ap-9,
       0x1.4p+2, 0x1.8d2p+11});
  EXPECT_EQ(sim.kernel_stats().fault_drops_in_window(), 0u);
}

// reset() + rerun must reproduce a fresh construction exactly — this is the
// contract that lets replication workers reuse kernel storage.
TEST(KernelParity, ResetReusesStorageWithIdenticalResults) {
  TopologyRoutingConfig small =
      cube_config(4, 0.6, DestinationDistribution::uniform(4), 101);

  TopologyRoutingConfig big =
      cube_config(6, 1.0, DestinationDistribution::uniform(6), 42);
  big.track_occupancy = true;
  big.track_delay_histogram = true;

  // Warm the simulator on a *different* topology first, then reset into the
  // pinned configuration: results must match the fresh-construction pins.
  TopologyGreedySim sim(small);
  sim.run(10.0, 200.0);
  sim.reset(big);
  sim.run(50.0, 550.0);
  EXPECT_EQ(sim.delay().mean(), 0x1.0c056af905f04p+2);
  EXPECT_EQ(sim.time_avg_population(), 0x1.0d5c078f36224p+8);
  EXPECT_EQ(sim.hops().mean(), 0x1.7ed650aa79378p+1);
  EXPECT_EQ(static_cast<double>(sim.kernel_stats().deliveries_in_window()),
            0x1.f11p+14);
  EXPECT_EQ(sim.kernel_stats().occupancy_means()[5], 0x1.fe0446a0d94d2p+1);

  // And back again: reuse in the other direction.
  TopologyGreedySim fresh(small);
  fresh.run(10.0, 200.0);
  sim.reset(small);
  sim.run(10.0, 200.0);
  EXPECT_EQ(sim.delay().mean(), fresh.delay().mean());
  EXPECT_EQ(sim.time_avg_population(), fresh.time_avg_population());
  EXPECT_EQ(static_cast<double>(sim.kernel_stats().deliveries_in_window()),
            static_cast<double>(fresh.kernel_stats().deliveries_in_window()));
}

// --- per-source fixed-destination (permutation workload) pins ------------
//
// The arrival refactor routed every sampled workload through
// one shared spawn path; the suites *above* prove that path is
// bit-identical to the pre-kernel simulators.  The pins below (captured by
// tools/capture_parity when the mode was introduced) freeze the new fixed
// destination path: the kernel must consume *no* destination randomness
// and route every packet of source x to pi(x).

TEST(KernelParity, HypercubeFixedDestinationsBitReversal) {
  const Permutation perm = Permutation::bit_reversal(6);
  // rho = 1.2: deliberately past the collapse point.
  TopologyRoutingConfig config =
      cube_config(6, 0.3, DestinationDistribution::uniform(6), 42);
  config.fixed_destinations = &perm.table();
  config.track_occupancy = true;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), sim.max_node_occupancy(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.b8932ec7fb9b6p+4, 0x1.746084ef5a8b2p+1, 0x1.261fd2de4d4b4p+9,
       0x1.160c49ba5e354p+4, 0x1.5p+7, 0x1.0f88p+13});
}

TEST(KernelParity, ButterflyFixedDestinationsBitReversal) {
  const Permutation perm = Permutation::bit_reversal(6);
  TopologyRoutingConfig config =
      butterfly_config(6, 0.1, DestinationDistribution::uniform(6), 42);
  config.fixed_destinations = &perm.table();
  config.track_occupancy = true;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.94dd748417b6bp+2, 0x1.814fa6d7aeb56p+1, 0x1.40fb2c6858ec9p+5,
       0x1.8fdf3b645a1cbp+2, 0x1.868p+11});
}

TEST(KernelParity, ValiantFixedDestinationsTranspose) {
  const Permutation perm = Permutation::transpose(6);
  TopologyRoutingConfig config =
      cube_config(6, 0.2, DestinationDistribution::uniform(6), 42);
  config.valiant = true;
  config.fixed_destinations = &perm.table();
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.a1f9d7e969129p+2, 0x1.7f610817b7919p+2, 0x1.523db35e03eecp+6,
       0x1.98f5c28f5c28fp+3, 0x1.8f6p+12});
}

// --- topology-parametric pins ---------------------------------------------
//
// Captured from tools/capture_parity.cpp when the generic topology
// simulator was introduced: any change to the ring's / torus's arc
// indexing, metric tables or greedy tie-break order shifts these values.
// The hypercube and butterfly pins above double as the refactor guard —
// every family runs through the one TopologyGreedySim.

TEST(KernelParity, TopologyRingWithChords) {
  TopologyRoutingConfig config;
  config.spec = {"ring", 6, "4,16", "4x4"};
  config.lambda = 0.2;
  config.seed = 23;
  config.track_delay_histogram = true;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), sim.final_population(),
       sim.little_check().relative_error(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.75d8e229078e9p+1, 0x1.65f602e66246fp+1, 0x1.2b5a745701c5fp+5,
       0x1.96c8b43958106p+3, 0x1.88p+5, 0x1.25b13a7387d2p-13, 0x1.8d4p+12});
}

TEST(KernelParity, TopologyTorus3D) {
  TopologyRoutingConfig config;
  config.spec = {"torus", 4, "", "4x4x4"};
  config.lambda = 0.5;
  config.seed = 29;
  config.track_delay_histogram = true;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), sim.final_population(),
       sim.little_check().relative_error(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.cf42e01878443p+1, 0x1.7ffdf4b175928p+1, 0x1.d382a70f2aa82p+6,
       0x1.007ae147ae148p+5, 0x1.84p+6, 0x1.40baf09ac7f97p-10,
       0x1.f4fp+13});
}

// --- fault-storm and adaptive-policy pins --------------------------------
//
// Captured from tools/capture_parity.cpp when the storm process and the
// adaptive policy were introduced.  The storm pins freeze the storm RNG
// stream (salt 0x5709), the incidence-ball growth, the expiry-before-
// arrival tie order and the base/composite state split; the adaptive pins
// freeze the one-hop-lookahead probe order and deflection fallback.

TEST(KernelParity, HypercubeStormPinned) {
  TopologyRoutingConfig config =
      cube_config(6, 0.5, DestinationDistribution::uniform(6), 31);
  config.fault_policy = FaultPolicy::kSkipDim;
  config.faults.storm_rate = 0.05;
  config.faults.storm_radius = 1;
  config.faults.storm_duration = 20.0;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  const KernelStats& stats = sim.kernel_stats();
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
       static_cast<double>(stats.fault_drops_in_window()),
       static_cast<double>(stats.deliveries_in_window()),
       static_cast<double>(sim.fault_model().storms().storms_started())},
      {0x1.50859e61fccd4p+2, 0x1.c621e98ae3be7p+1, 0x1.2ae4d220d1543p+7,
       0x1.b2d0e56041893p+4, 0x1.bc830cf02ed88p-1, 0x1.375cf017020e4p+0,
       0x1.01ep+11, 0x1.a8ap+13, 0x1p+5});
}

TEST(KernelParity, HypercubeAdaptivePinned) {
  TopologyRoutingConfig config =
      cube_config(6, 0.5, DestinationDistribution::uniform(6), 37);
  config.fault_policy = FaultPolicy::kAdaptive;
  config.faults.arc_fault_rate = 0.15;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  const KernelStats& stats = sim.kernel_stats();
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
       static_cast<double>(stats.fault_drops_in_window()),
       static_cast<double>(stats.deliveries_in_window())},
      {0x1.af0669b4a8c5ep+3, 0x1.d6397ba7c52f4p+1, 0x1.fb835c8feaa48p+9,
       0x1.c578d4fdf3b64p+4, 0x1p+0, 0x1.4a14165bbbcffp+0, 0x0p+0,
       0x1.bad8p+13});
}

TEST(KernelParity, ValiantStormAdaptivePinned) {
  TopologyRoutingConfig config =
      cube_config(6, 0.3, DestinationDistribution::uniform(6), 41);
  config.valiant = true;
  config.fault_policy = FaultPolicy::kAdaptive;
  config.faults.storm_rate = 0.04;
  config.faults.storm_radius = 1;
  config.faults.storm_duration = 15.0;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), sim.kernel_stats().delivery_ratio(),
       sim.kernel_stats().mean_stretch(),
       static_cast<double>(sim.kernel_stats().fault_drops_in_window()),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.14a54f963b133p+3, 0x1.a1574f212232ep+2, 0x1.3b1ae2555d27p+7,
       0x1.146a7ef9db22dp+4, 0x1.cc1e41695c93ep-1, 0x1.189216ef22c5ep+0,
       0x1.e7p+9, 0x1.0dfp+13});
}

// --- dynamic-fault pins ---------------------------------------------------
//
// Captured from tools/capture_parity.cpp before the up/down process moved
// onto des/event_queue.hpp: they freeze the process's RNG stream (salt
// 0xFA17), its transition order, its node-kill exclusion, and the kernel's
// and the deflection slot loop's way of driving it.

TEST(KernelParity, HypercubeDynamicSkipDimPinned) {
  TopologyRoutingConfig config =
      cube_config(6, 0.5, DestinationDistribution::uniform(6), 47);
  config.fault_policy = FaultPolicy::kSkipDim;
  config.faults.mtbf = 100.0;
  config.faults.mttr = 10.0;
  TopologyGreedySim sim(config);
  sim.run(50.0, 550.0);
  const KernelStats& stats = sim.kernel_stats();
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(), stats.delivery_ratio(), stats.mean_stretch(),
       static_cast<double>(stats.fault_drops_in_window()),
       static_cast<double>(stats.deliveries_in_window()),
       static_cast<double>(sim.fault_model().faulty_arc_count())},
      {0x1.2075caeab5298p+2, 0x1.c06ff30afb2bp+1, 0x1.218feb4b83abp+7,
       0x1.f9cac083126e9p+4, 0x1p+0, 0x1.3140ad5d996b1p+0, 0x0p+0,
       0x1.edfp+13, 0x1.dp+4});
}

TEST(KernelParity, DeflectionDynamicFaultsPinned) {
  TopologyRoutingConfig config =
      cube_config(6, 0.05, DestinationDistribution::uniform(6), 53);
  config.ttl = 8;
  config.faults.mtbf = 100.0;
  config.faults.mttr = 10.0;
  DeflectionSim sim(config);
  sim.run(50, 1050);
  const KernelStats& stats = sim.kernel_stats();
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.deflection_fraction(),
       static_cast<double>(sim.injection_backlog()),
       static_cast<double>(sim.deliveries_in_window()),
       stats.delivery_ratio(), stats.mean_stretch(),
       static_cast<double>(stats.fault_drops_in_window()),
       static_cast<double>(sim.fault_model().faulty_arc_count())},
      {0x1.940709f8cb205p+1, 0x1.940709f8cb205p+1, 0x1.36f5cffde6ba6p-4,
       0x1.4p+3, 0x1.7dep+11, 0x1.e29dd165a852cp-1, 0x1.13017c4c28c74p+0,
       0x1.74p+7, 0x1.dp+4});
}

// --- external trace-file replay pins -------------------------------------
//
// save_trace_jsonl emits times in shortest exact-round-trip decimal form,
// so a recorded trace must load back bit-identically and replay to the
// *same* hexfloat pins as the in-memory trace above — the recorded-trace
// round-trip contract behind `routesim_bench --record-trace` +
// `workload=trace trace_file=`.
TEST(KernelParity, TraceFileRoundTripReplaysToSamePins) {
  const auto dist = DestinationDistribution::uniform(5);
  const PacketTrace trace = generate_hypercube_trace(5, 0.8, dist, 400.0, 21);

  const std::string path = ::testing::TempDir() + "parity_trace.jsonl";
  save_trace_jsonl(trace, path);
  const PacketTrace loaded = load_trace_jsonl(path, 5);

  // The per-packet (time, origin, destination) stream survives exactly.
  ASSERT_EQ(loaded.packets.size(), trace.packets.size());
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    EXPECT_EQ(loaded.packets[i].time, trace.packets[i].time) << "packet " << i;
    EXPECT_EQ(loaded.packets[i].origin, trace.packets[i].origin);
    EXPECT_EQ(loaded.packets[i].destination, trace.packets[i].destination);
  }

  TopologyRoutingConfig config = cube_config(5, 0.8, dist, 21);
  config.trace = &loaded;
  TopologyGreedySim sim(config);
  sim.run(30.0, 400.0);
  expect_exact(
      {sim.delay().mean(), sim.hops().mean(), sim.time_avg_population(),
       sim.throughput(),
       static_cast<double>(sim.kernel_stats().deliveries_in_window())},
      {0x1.929c3188bd2c9p+1, 0x1.3ea22856622e5p+1, 0x1.46ee3527959f8p+6,
       0x1.9b1d0f38bc31dp+4, 0x1.2918p+13});
  std::remove(path.c_str());
}

}  // namespace
}  // namespace routesim
