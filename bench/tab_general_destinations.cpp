// Experiment X20 — the §2.2 closing remark: Propositions 2/3 and the
// stability condition extend to ANY translation-invariant destination law
// f(x XOR z), with per-dimension load factors
//     rho_j = lambda * sum_{y: y_j = 1} f(y),   rho = max_j rho_j.
// This harness uses a deliberately skewed f, verifies the measured
// per-dimension arc rates against the rho_j formula, and shows that the
// bottleneck dimension alone decides stability.

#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "core/bounds.hpp"
#include "routing/topology_greedy.hpp"

using namespace routesim;

int main() {
  std::cout << "X20: general translation-invariant destinations (§2.2 end)\n";
  const int d = 4;
  // Skewed law: mask 0100 (dim 3 only) with weight .55; mask 0011
  // (dims 1+2) with weight .30; mask 1111 with weight .15.
  std::vector<double> pmf(16, 0.0);
  pmf[0b0100] = 0.55;
  pmf[0b0011] = 0.30;
  pmf[0b1111] = 0.15;
  std::cout << "f: P[0100]=.55 P[0011]=.30 P[1111]=.15  (bottleneck: dim 3)\n\n";

  benchtab::Checker checker;

  // Per-dimension flip probabilities: dim1 = dim2 = .45, dim3 = .70, dim4 = .15.
  const double lambda = 1.2;
  TopologyRoutingConfig config;
  config.spec.d = d;
  config.lambda = lambda;
  config.destinations = DestinationDistribution::general(d, pmf);
  config.seed = 1001;
  TopologyGreedySim sim(config);
  const HypercubeTopology cube(d);
  sim.run(500.0, 60500.0);
  const double window = 60000.0;

  benchtab::Table table({"dim j", "rho_j = lambda*flip_j", "arc rate measured",
                         "ratio"});
  for (int dim = 1; dim <= d; ++dim) {
    const double rho_j = bounds::dimension_load_factor(pmf, dim, lambda);
    double total = 0.0;
    for (NodeId x = 0; x < 16; ++x) {
      total += static_cast<double>(
          sim.arc_counters()[cube.arc_index(x, dim)].total_arrivals);
    }
    const double measured = total / 16.0 / window;
    table.add_row({std::to_string(dim), benchtab::fmt(rho_j, 3),
                   benchtab::fmt(measured, 3), benchtab::fmt(measured / rho_j, 3)});
    checker.require(std::abs(measured / rho_j - 1.0) < 0.03,
                    "dim " + std::to_string(dim) +
                        ": measured arc rate equals lambda*sum_{y_j=1} f(y)");
  }
  table.print();

  const double rho = bounds::load_factor_general(pmf, d, lambda);
  std::cout << "\nload factor rho = max_j rho_j = " << benchtab::fmt(rho, 3)
            << " (dimension 3)\n";
  checker.require(std::abs(rho - lambda * 0.70) < 1e-9,
                  "rho equals the bottleneck dimension's load");

  // Stability governed by the bottleneck: lambda chosen so that only dim 3
  // crosses 1.
  {
    TopologyRoutingConfig hot = config;
    hot.lambda = 1.55;  // rho_3 = 1.085 > 1, all other rho_j < 0.70
    TopologyGreedySim unstable(hot);
    unstable.run(0.0, 30000.0);
    checker.require(unstable.final_population() > 1500.0,
                    "rho_3 > 1 makes the system unstable even though every "
                    "other dimension is lightly loaded");

    TopologyRoutingConfig cool = config;
    cool.lambda = 1.35;  // rho_3 = 0.945 < 1
    TopologyGreedySim stable(cool);
    stable.run(2000.0, 42000.0);
    checker.require(stable.final_population() < 1000.0,
                    "rho_3 < 1 keeps the system stable (bottleneck criterion)");
  }

  std::cout << "\nShape check: the necessary condition (2) holds per dimension\n"
               "for any translation-invariant law, exactly as §2.2 states.\n";
  return checker.summarize();
}
