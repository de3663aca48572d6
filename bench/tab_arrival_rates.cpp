// Experiment X14 — the arrival-rate structure that makes the whole
// analysis work: Property A (external arc rates lambda*p*(1-p)^(i-1)),
// Proposition 5 (total rate = rho at EVERY arc), and Proposition 15
// (butterfly rates lambda(1-p) / lambda p by arc kind), all *measured* on
// the packet-level simulators.

#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "routing/topology_greedy.hpp"
#include "topology/topology.hpp"

using namespace routesim;

int main() {
  std::cout << "X14: measured arrival rates vs Property A / Prop. 5 / Prop. 15\n\n";
  benchtab::Checker checker;

  {
    const int d = 5;
    const double lambda = 1.0, p = 0.35;
    std::cout << "hypercube d=" << d << ", lambda=" << lambda << ", p=" << p << ":\n";
    TopologyRoutingConfig config;
    config.spec.d = d;
    config.lambda = lambda;
    config.destinations = DestinationDistribution::bit_flip(d, p);
    config.seed = 71;
    TopologyGreedySim sim(config);
    const HypercubeTopology cube(d);
    const double warmup = 500.0, horizon = 100500.0;
    sim.run(warmup, horizon);
    const double window = horizon - warmup;

    benchtab::Table table({"dim i", "ext rate sim", "PropA lp(1-p)^(i-1)",
                           "total rate sim", "Prop5 rho"});
    for (int dim = 1; dim <= d; ++dim) {
      double external = 0.0, total = 0.0;
      for (NodeId x = 0; x < 32; ++x) {
        const auto& counters = sim.arc_counters()[cube.arc_index(x, dim)];
        external += static_cast<double>(counters.external_arrivals);
        total += static_cast<double>(counters.total_arrivals);
      }
      const double ext_rate = external / 32.0 / window;
      const double total_rate = total / 32.0 / window;
      const double property_a = lambda * p * std::pow(1 - p, dim - 1);
      table.add_row({std::to_string(dim), benchtab::fmt(ext_rate, 4),
                     benchtab::fmt(property_a, 4), benchtab::fmt(total_rate, 4),
                     benchtab::fmt(lambda * p, 4)});
      checker.require(std::abs(ext_rate / property_a - 1.0) < 0.03,
                      "dim " + std::to_string(dim) + ": Property A external rate");
      checker.require(std::abs(total_rate / (lambda * p) - 1.0) < 0.03,
                      "dim " + std::to_string(dim) + ": Prop. 5 total rate = rho");
    }
    table.print();
    std::cout << '\n';
  }

  {
    const int d = 4;
    const double lambda = 1.0, p = 0.3;
    std::cout << "butterfly d=" << d << ", lambda=" << lambda << ", p=" << p << ":\n";
    TopologyRoutingConfig config;
    config.spec.name = "butterfly";
    config.spec.d = d;
    config.lambda = lambda;
    config.destinations = DestinationDistribution::bit_flip(d, p);
    config.seed = 72;
    TopologyGreedySim sim(config);
    const double warmup = 500.0, horizon = 80500.0;
    sim.run(warmup, horizon);
    const double window = horizon - warmup;
    const ButterflyTopology bfly(d);
    using ArcKind = ButterflyTopology::ArcKind;

    benchtab::Table table({"level", "straight sim", "P15 l(1-p)", "vertical sim",
                           "P15 lp"});
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
      const double straight_rate = straight / 16.0 / window;
      const double vertical_rate = vertical / 16.0 / window;
      table.add_row({std::to_string(level), benchtab::fmt(straight_rate, 4),
                     benchtab::fmt(lambda * (1 - p), 4),
                     benchtab::fmt(vertical_rate, 4), benchtab::fmt(lambda * p, 4)});
      checker.require(
          std::abs(straight_rate / (lambda * (1 - p)) - 1.0) < 0.03,
          "level " + std::to_string(level) + ": Prop. 15 straight-arc rate");
      checker.require(
          std::abs(vertical_rate / (lambda * p) - 1.0) < 0.04,
          "level " + std::to_string(level) + ": Prop. 15 vertical-arc rate");
    }
    table.print();
  }

  std::cout << "\nShape check: early dimensions take more *external* traffic but\n"
               "internal forwarding exactly equalises the total at rho — the\n"
               "symmetry that makes every server of Q identical.\n";
  return checker.summarize();
}
