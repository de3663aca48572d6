// Experiment X12 — queue-size results (§3.3 end, §4.3 end):
//   - hypercube: mean packets per node <= d*rho/(1-rho); the total network
//     population exceeds d*2^d*rho/(1-rho)*(1+eps) only with the tiny
//     probability bounded by the Chernoff estimate;
//   - butterfly: overall packets per node ~ eta, and the packets held by
//     levels 1..j stay near j*2^d*eta (the paper's per-level conjecture).

#include <algorithm>
#include <iostream>

#include "common/table.hpp"
#include "core/bounds.hpp"
#include "queueing/product_form.hpp"
#include "routing/topology_greedy.hpp"

using namespace routesim;

int main() {
  std::cout << "X12: queue occupancy per node / per level\n\n";
  benchtab::Checker checker;

  {
    std::cout << "hypercube (d = 6, p = 1/2):\n";
    benchtab::Table table({"rho", "mean/node sim", "bound d*rho/(1-rho)",
                           "peak/node", "P[N > bound*(1+0.5)] (Chernoff)"});
    for (const double rho : {0.5, 0.8}) {
      const int d = 6;
      TopologyRoutingConfig config;
      config.spec.d = d;
      config.lambda = 2.0 * rho;
      config.destinations = DestinationDistribution::uniform(d);
      config.seed = 303;
      config.track_occupancy = true;
      TopologyGreedySim sim(config);
      sim.run(1000.0, 31000.0);

      double mean_per_node = 0.0;
      for (const double occupancy : sim.kernel_stats().occupancy_means()) {
        mean_per_node += occupancy;
      }
      mean_per_node /= 64.0;
      const double bound = bounds::mean_packets_per_node_bound({d, 2.0 * rho, 0.5});
      const double chernoff =
          geometric_sum_chernoff_tail(d * 64.0, rho, 0.5);

      table.add_row({benchtab::fmt(rho, 1), benchtab::fmt(mean_per_node, 3),
                     benchtab::fmt(bound, 3),
                     benchtab::fmt(sim.max_node_occupancy(), 0),
                     benchtab::fmt(chernoff, 9)});
      checker.require(mean_per_node <= bound * 1.02,
                      "rho=" + benchtab::fmt(rho, 1) +
                          ": mean per-node occupancy below d*rho/(1-rho)");
      // Total population w.h.p. below the (1+eps) product-form ceiling.
      checker.require(sim.time_avg_population() <=
                          hypercube_ps_mean_population(d, rho) * 1.05,
                      "rho=" + benchtab::fmt(rho, 1) +
                          ": total population below product-form ceiling");
    }
    table.print();
    std::cout << '\n';
  }

  {
    std::cout << "butterfly (d = 6, lambda = 1.2, p = 1/2):\n";
    const int d = 6;
    const double lambda = 1.2, p = 0.5;
    TopologyRoutingConfig config;
    config.spec.name = "butterfly";
    config.spec.d = d;
    config.lambda = lambda;
    config.destinations = DestinationDistribution::bit_flip(d, p);
    config.seed = 404;
    config.track_occupancy = true;
    TopologyGreedySim sim(config);
    sim.run(1000.0, 41000.0);

    const double eta = bounds::bfly_mean_packets_per_node({d, lambda, p});
    benchtab::Table table({"level j", "mean packets level j", "cum levels 1..j",
                           "conjecture j*2^d*eta"});
    double cumulative = 0.0;
    bool conjecture_holds = true;
    for (int level = 1; level <= d; ++level) {
      const double at_level =
          sim.kernel_stats().occupancy_means()[static_cast<std::size_t>(level - 1)];
      cumulative += at_level;
      const double conjectured = level * 64.0 * eta;
      conjecture_holds = conjecture_holds && cumulative <= conjectured * 1.1;
      table.add_row({std::to_string(level), benchtab::fmt(at_level, 1),
                     benchtab::fmt(cumulative, 1), benchtab::fmt(conjectured, 1)});
    }
    table.print();
    checker.require(conjecture_holds,
                    "butterfly: levels 1..j hold <= j*2^d*eta*(1+eps) packets "
                    "(§4.3 conjecture evidence)");
    // eta is the product-form (PS) ceiling; FIFO sits below it (Prop. 11)
    // but above the Little's-law floor lambda*2^d*d (every packet spends at
    // least d time units in the network).
    const double floor = lambda * 64.0 * d;
    checker.require(sim.time_avg_population() >= floor * 0.98 &&
                        sim.time_avg_population() <= d * 64.0 * eta * 1.02,
                    "butterfly: total population between the Little floor "
                    "lambda*2^d*d and the eta ceiling d*2^d*eta");
  }

  std::cout << "\nShape check: occupancy per node is O(d) on the cube and O(1)\n"
               "per node on the butterfly for fixed rho, as the paper states.\n";
  return checker.summarize();
}
