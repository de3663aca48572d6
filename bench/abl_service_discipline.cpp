// Ablation A1 — the FIFO priority rule.  The paper fixes FIFO at every arc
// ("priority is given to the one that arrived first", §3).  This ablation
// swaps in LIFO and random order: all three are work-conserving and blind
// to service requirements, so the MEAN delay — the quantity Props. 12/13
// bound — is unchanged; only the delay distribution's shape moves.  The
// FIFO choice therefore costs nothing in mean and buys the best tail.

#include <iostream>

#include "common/table.hpp"
#include "routing/topology_greedy.hpp"

using namespace routesim;

namespace {

struct Outcome {
  double mean, stddev, p99, max;
};

Outcome run_with(ArcServiceOrder order, double rho, std::uint64_t seed) {
  TopologyRoutingConfig config;
  config.spec.d = 6;
  config.lambda = 2.0 * rho;
  config.destinations = DestinationDistribution::uniform(6);
  config.seed = seed;
  config.service_order = order;
  config.track_delay_histogram = true;
  TopologyGreedySim sim(config);
  sim.run(1500.0, 41500.0);
  return Outcome{sim.delay().mean(), sim.delay().stddev(),
                 sim.kernel_stats().delay_histogram()->quantile(0.99),
                 sim.delay().max()};
}

}  // namespace

int main() {
  std::cout << "A1: arc service discipline ablation (d = 6, p = 1/2)\n";
  std::cout << "paper's rule: FIFO; ablations: LIFO, random order\n\n";

  benchtab::Checker checker;
  for (const double rho : {0.5, 0.8}) {
    std::cout << "rho = " << rho << ":\n";
    const auto fifo = run_with(ArcServiceOrder::kFifo, rho, 7);
    const auto lifo = run_with(ArcServiceOrder::kLifo, rho, 7);
    const auto random = run_with(ArcServiceOrder::kRandom, rho, 7);

    benchtab::Table table({"discipline", "mean T", "stddev", "p99", "max"});
    table.add_row({"FIFO (paper)", benchtab::fmt(fifo.mean), benchtab::fmt(fifo.stddev),
                   benchtab::fmt(fifo.p99, 1), benchtab::fmt(fifo.max, 1)});
    table.add_row({"LIFO", benchtab::fmt(lifo.mean), benchtab::fmt(lifo.stddev),
                   benchtab::fmt(lifo.p99, 1), benchtab::fmt(lifo.max, 1)});
    table.add_row({"random", benchtab::fmt(random.mean), benchtab::fmt(random.stddev),
                   benchtab::fmt(random.p99, 1), benchtab::fmt(random.max, 1)});
    table.print();

    checker.require(std::abs(lifo.mean / fifo.mean - 1.0) < 0.03 &&
                        std::abs(random.mean / fifo.mean - 1.0) < 0.03,
                    "rho=" + benchtab::fmt(rho, 1) +
                        ": mean delay insensitive to the service order");
    checker.require(fifo.p99 <= lifo.p99 && fifo.p99 <= random.p99 * 1.05,
                    "rho=" + benchtab::fmt(rho, 1) +
                        ": FIFO has the lightest p99 tail");
    checker.require(lifo.stddev > fifo.stddev,
                    "rho=" + benchtab::fmt(rho, 1) + ": LIFO inflates variance");
    std::cout << '\n';
  }

  std::cout << "Conclusion: Props. 12/13 would hold for any work-conserving\n"
               "order; FIFO additionally minimises the tail — the right choice\n"
               "both analytically and practically.\n";
  return checker.summarize();
}
