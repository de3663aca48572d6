// Cross-checks against independent reference implementations:
//   - the event queue against std::priority_queue;
//   - the PS virtual time LevelledNetwork runs on (PsVirtualClock) against
//     a brute-force fixed-step integrator of the fair-sharing dynamics;
//   - exact conservation laws (arrivals = departures + backlog) on the
//     packet-level simulators and the levelled network;
//   - trace replay vs. live Poisson generation (statistical equivalence).

#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <vector>

#include "core/equivalence.hpp"
#include "des/event_queue.hpp"
#include "queueing/levelled_network.hpp"
#include "routing/topology_greedy.hpp"
#include "single_server.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace routesim {
namespace {

TEST(Reference, EventQueueMatchesStdPriorityQueue) {
  EventQueue<int> ours;
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> reference;

  Rng rng(7);
  int id = 0;
  for (int step = 0; step < 50000; ++step) {
    if (reference.empty() || rng.bernoulli(0.55)) {
      const double t = rng.uniform() * 1e6;
      ours.push(t, id);
      reference.emplace(t, id);
      ++id;
    } else {
      const auto event = ours.pop();
      // Times must agree exactly; payloads may differ among exact ties,
      // but ties on 53-bit uniform doubles do not occur in this test.
      ASSERT_DOUBLE_EQ(event.time, reference.top().first);
      ASSERT_EQ(event.payload, reference.top().second);
      reference.pop();
    }
  }
}

// Brute-force PS: advance in tiny fixed steps, sharing the rate equally.
std::vector<double> ps_departures_brute_force(const std::vector<double>& arrivals,
                                              double rate, double dt) {
  std::vector<double> remaining(arrivals.size(), 1.0);
  std::vector<double> departures(arrivals.size(), 0.0);
  std::size_t done = 0;
  double t = 0.0;
  while (done < arrivals.size()) {
    int active = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i] <= t && remaining[i] > 0.0) ++active;
    }
    if (active > 0) {
      const double share = rate * dt / active;
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (arrivals[i] <= t && remaining[i] > 0.0) {
          remaining[i] -= share;
          if (remaining[i] <= 0.0) {
            departures[i] = t + dt;
            ++done;
          }
        }
      }
    }
    t += dt;
  }
  return departures;
}

TEST(Reference, PsServerMatchesBruteForceIntegrator) {
  Rng rng(11);
  std::vector<double> arrivals;
  double t = 0.0;
  for (int i = 0; i < 60; ++i) {
    t += rng.uniform() * 1.2;
    arrivals.push_back(t);
  }
  const auto exact = ps_departure_times(arrivals, 1.0);
  const auto brute = ps_departures_brute_force(arrivals, 1.0, 1e-4);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_NEAR(exact[i], brute[i], 5e-3) << "customer " << i;
  }
}

TEST(Reference, HypercubeConservationLawExact) {
  // Starting empty with warmup = 0: injected = delivered + still-in-flight,
  // as exact integers.
  TopologyRoutingConfig config;
  config.spec.d = 5;
  config.lambda = 1.4;
  config.destinations = DestinationDistribution::uniform(5);
  config.seed = 13;
  TopologyGreedySim sim(config);
  sim.run(0.0, 5000.0);
  EXPECT_EQ(sim.kernel_stats().arrivals_in_window(),
            sim.kernel_stats().deliveries_in_window() +
                static_cast<std::uint64_t>(sim.final_population()));
}

TEST(Reference, HypercubeConservationWithDrops) {
  TopologyRoutingConfig config;
  config.spec.d = 4;
  config.lambda = 1.8;
  config.destinations = DestinationDistribution::uniform(4);
  config.seed = 17;
  config.buffer_capacity = 2;
  TopologyGreedySim sim(config);
  sim.run(0.0, 5000.0);
  const KernelStats& stats = sim.kernel_stats();
  EXPECT_EQ(stats.arrivals_in_window(),
            stats.deliveries_in_window() + stats.drops_in_window() +
                static_cast<std::uint64_t>(sim.final_population()));
}

TEST(Reference, ButterflyConservationLawExact) {
  TopologyRoutingConfig config;
  config.spec.name = "butterfly";
  config.spec.d = 4;
  config.lambda = 1.0;
  config.destinations = DestinationDistribution::uniform(4);
  config.seed = 19;
  TopologyGreedySim sim(config);
  sim.run(0.0, 5000.0);
  const KernelStats& stats = sim.kernel_stats();
  EXPECT_EQ(stats.arrivals_in_window(),
            stats.deliveries_in_window() +
                static_cast<std::uint64_t>(sim.final_population()));
}

TEST(Reference, LevelledNetworkConservationLawExact) {
  LevelledNetwork net(make_hypercube_network_q(4, 1.2, 0.5, Discipline::kFifo, 23));
  net.run(0.0, 5000.0);
  EXPECT_EQ(net.arrivals_in_window(),
            net.departures_in_window() +
                static_cast<std::uint64_t>(net.final_population()));
}

TEST(Reference, TraceReplayStatisticallyMatchesLiveGeneration) {
  // A replayed Poisson trace and live generation with the same parameters
  // are the same process; their delay estimates agree within noise.
  const int d = 5;
  const double lambda = 1.0;
  const auto dist = DestinationDistribution::uniform(d);
  const auto trace = generate_hypercube_trace(d, lambda, dist, 40000.0, 29);

  TopologyRoutingConfig replay_cfg;
  replay_cfg.spec.d = d;
  replay_cfg.destinations = dist;
  replay_cfg.trace = &trace;
  TopologyGreedySim replay(replay_cfg);
  replay.run(1000.0, 40000.0);

  TopologyRoutingConfig live_cfg;
  live_cfg.spec.d = d;
  live_cfg.lambda = lambda;
  live_cfg.destinations = dist;
  live_cfg.seed = 31;
  TopologyGreedySim live(live_cfg);
  live.run(1000.0, 40000.0);

  EXPECT_NEAR(replay.delay().mean() / live.delay().mean(), 1.0, 0.03);
  EXPECT_NEAR(replay.hops().mean() / live.hops().mean(), 1.0, 0.02);
}

TEST(Reference, SlottedTotalInputIntensityMatchesContinuous) {
  // Same nominal intensity: slotted and continuous runs inject the same
  // packet volume per unit time (within Poisson noise).
  TopologyRoutingConfig continuous_cfg;
  continuous_cfg.spec.d = 5;
  continuous_cfg.lambda = 1.0;
  continuous_cfg.destinations = DestinationDistribution::uniform(5);
  continuous_cfg.seed = 37;
  TopologyGreedySim continuous(continuous_cfg);
  continuous.run(0.0, 20000.0);

  auto slotted_cfg = continuous_cfg;
  slotted_cfg.slot = 0.5;
  TopologyGreedySim slotted(slotted_cfg);
  slotted.run(0.0, 20000.0);

  const double expected = 1.0 * 32 * 20000.0;
  EXPECT_NEAR(
      static_cast<double>(continuous.kernel_stats().arrivals_in_window()),
      expected, 4.0 * std::sqrt(expected));
  EXPECT_NEAR(static_cast<double>(slotted.kernel_stats().arrivals_in_window()),
              expected, 4.0 * std::sqrt(expected));
}

}  // namespace
}  // namespace routesim
