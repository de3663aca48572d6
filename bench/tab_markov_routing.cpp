// Experiment X15 — Lemma 4 / Property C: routing in the equivalent network
// is Markovian with transition probabilities p(1-p)^(j-i-1) from dimension
// i to dimension j and exit probability (1-p)^(d-i).  Measured on the
// packet-level simulator by accounting arrivals per dimension.

#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "routing/topology_greedy.hpp"

using namespace routesim;

int main() {
  std::cout << "X15: Markov routing property (Lemma 4 / Property C)\n";
  const int d = 5;
  const double lambda = 1.0, p = 0.35;
  std::cout << "hypercube d=" << d << ", lambda=" << lambda << ", p=" << p << "\n\n";

  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::bit_flip(d, p);
  config.seed = 83;
  TopologyGreedySim sim(config);
  const HypercubeTopology cube(d);
  sim.run(500.0, 120500.0);

  // Dimension-level arrival accounting.
  std::vector<double> external(d + 1, 0.0), total(d + 1, 0.0);
  for (int dim = 1; dim <= d; ++dim) {
    for (NodeId x = 0; x < 32; ++x) {
      const auto& counters = sim.arc_counters()[cube.arc_index(x, dim)];
      external[dim] += static_cast<double>(counters.external_arrivals);
      total[dim] += static_cast<double>(counters.total_arrivals);
    }
  }

  benchtab::Checker checker;
  benchtab::Table table({"dim j", "internal arrivals sim",
                         "PropC prediction sum_i total_i*p(1-p)^(j-i-1)", "ratio"});
  for (int j = 2; j <= d; ++j) {
    double predicted = 0.0;
    for (int i = 1; i < j; ++i) predicted += total[i] * p * std::pow(1 - p, j - i - 1);
    const double internal = total[j] - external[j];
    table.add_row({std::to_string(j), benchtab::fmt(internal, 0),
                   benchtab::fmt(predicted, 0),
                   benchtab::fmt(internal / predicted, 4)});
    checker.require(std::abs(internal / predicted - 1.0) < 0.02,
                    "dim " + std::to_string(j) + ": internal flow matches Property C");
  }
  table.print();

  // Exit accounting: total departures from the network must equal
  // sum_i total_i * (1-p)^(d-i) (every completion either continues or exits).
  double predicted_exits = 0.0;
  for (int i = 1; i <= d; ++i) predicted_exits += total[i] * std::pow(1 - p, d - i);
  // Deliveries exclude self-addressed packets, which never enter any arc.
  const KernelStats& stats = sim.kernel_stats();
  const auto measured_exits = static_cast<double>(stats.deliveries_in_window()) -
                              static_cast<double>(stats.arrivals_in_window()) *
                                  std::pow(1 - p, d);
  std::cout << "\nexit flow: measured " << benchtab::fmt(measured_exits, 0)
            << " vs Property C prediction " << benchtab::fmt(predicted_exits, 0)
            << " (ratio " << benchtab::fmt(measured_exits / predicted_exits, 4)
            << ")\n";
  checker.require(std::abs(measured_exits / predicted_exits - 1.0) < 0.02,
                  "network exits match the (1-p)^(d-i) exit law");

  std::cout << "\nShape check: knowing a packet just crossed dimension i tells\n"
               "you nothing about its remaining dimensions beyond Bernoulli(p)\n"
               "coin flips (Lemma 1 independence) — routing is Markovian.\n";
  return checker.summarize();
}
