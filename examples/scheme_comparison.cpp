// Scenario: choosing a routing scheme for a 6-cube interconnect.  Replays
// the SAME Poisson workload through four schemes —
//   1. greedy dimension-order (the paper's scheme, §3),
//   2. two-phase Valiant mixing (§5 / [Val82]),
//   3. the §2.3 pipelined-rounds baseline,
//   4. deflection routing ([GrH89], slot-synchronous),
// and prints a head-to-head comparison of delay, hops and backlog.
//
//   build/examples/example_scheme_comparison

#include <iomanip>
#include <iostream>

#include "routing/deflection.hpp"
#include "routing/pipelined_baseline.hpp"
#include "routing/topology_greedy.hpp"
#include "workload/trace.hpp"

int main() {
  using namespace routesim;

  const int d = 6;
  const double lambda = 0.8;  // rho = 0.4 for the greedy scheme
  const auto dist = DestinationDistribution::uniform(d);
  const double horizon = 15000.0, warmup = 1000.0;

  std::cout << "Scheme comparison on the " << d << "-cube, lambda = " << lambda
            << " (rho = " << lambda * 0.5 << " for greedy), uniform traffic\n\n";

  const auto trace = generate_hypercube_trace(d, lambda, dist, horizon, 2025);

  // 1. Greedy (trace replay).
  TopologyRoutingConfig greedy_cfg;
  greedy_cfg.spec.d = d;
  greedy_cfg.destinations = dist;
  greedy_cfg.trace = &trace;
  TopologyGreedySim greedy(greedy_cfg);
  greedy.run(warmup, horizon);

  // 2. Valiant mixing (same trace).
  TopologyRoutingConfig mixing_cfg;
  mixing_cfg.spec.d = d;
  mixing_cfg.destinations = dist;
  mixing_cfg.trace = &trace;
  mixing_cfg.seed = 2025;
  mixing_cfg.valiant = true;
  TopologyGreedySim mixing(mixing_cfg);
  mixing.run(warmup, horizon);

  // 3. Pipelined baseline (same statistical workload; the scheme batches
  //    at round boundaries so a trace replay is not meaningful for it).
  PipelinedBaselineConfig baseline_cfg;
  baseline_cfg.d = d;
  baseline_cfg.lambda = lambda;
  baseline_cfg.destinations = dist;
  baseline_cfg.seed = 2025;
  PipelinedBaselineSim baseline(baseline_cfg);
  baseline.run(warmup, horizon);

  // 4. Deflection (slot-synchronous, same rate).
  TopologyRoutingConfig deflect_cfg;
  deflect_cfg.spec.d = d;
  deflect_cfg.lambda = lambda;
  deflect_cfg.destinations = dist;
  deflect_cfg.seed = 2025;
  DeflectionSim deflection(deflect_cfg);
  deflection.run(static_cast<std::uint64_t>(warmup),
                 static_cast<std::uint64_t>(horizon));

  const auto row = [](const std::string& name, double delay, double hops,
                      double backlog, const std::string& note) {
    std::cout << std::left << std::setw(22) << name << std::right << std::setw(10)
              << std::fixed << std::setprecision(2) << delay << std::setw(10)
              << hops << std::setw(12) << std::setprecision(0) << backlog
              << "   " << note << '\n';
    std::cout.unsetf(std::ios_base::fixed);
  };

  std::cout << std::left << std::setw(22) << "scheme" << std::right << std::setw(10)
            << "delay" << std::setw(10) << "hops" << std::setw(12) << "backlog"
            << "   notes\n";
  row("greedy (paper)", greedy.delay().mean(), greedy.hops().mean(),
      greedy.final_population(), "stable for all rho < 1");
  row("valiant mixing", mixing.delay().mean(), mixing.hops().mean(),
      mixing.final_population(), "~d/2 extra hops, capacity halved");
  row("pipelined rounds", baseline.delay().mean(), d * 0.5,
      static_cast<double>(baseline.backlog()), "stable only for rho ~ 1/(Rd)");
  row("deflection", deflection.delay().mean(), deflection.hops().mean(),
      static_cast<double>(deflection.injection_backlog()),
      "bufferless; misroutes under load");

  std::cout << "\nThe greedy scheme wins on every axis for this workload — the\n"
               "paper's point: no idling, no mixing overhead, full stability\n"
               "region, O(d) delay.\n";
  return 0;
}
