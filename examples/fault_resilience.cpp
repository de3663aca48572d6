// Fault resilience: how greedy routing on the 6-cube degrades as links
// fail, and what a fault-aware reroute policy buys back.
//
//   build/examples/example_fault_resilience
//
// Sweeps a static link fault rate at fixed load and compares the drop
// baseline (a packet whose required arc is dead is lost) with skip_dim
// (greedy over the surviving dimensions with a TTL-bounded detour).  The
// same sweep is reachable from the command line as
//
//   build/bench/routesim_bench --scenario hypercube_greedy --set d=6
//       --set rho=0.5 --set fault_policy=skip_dim --sweep fault_rate=0:0.2:0.05
//
// Metrics: delivery ratio (fraction of decided packets delivered), mean
// stretch (hops / Hamming distance over delivered packets), p99 delay.

#include <cstdio>

#include "core/scenario.hpp"

int main() {
  using namespace routesim;

  std::printf("Greedy 6-cube at rho = 0.5 under static link faults\n\n");
  std::printf("%-10s %-10s %12s %12s %10s %10s\n", "fault_rate", "policy",
              "delivery", "stretch", "T", "p99");

  for (const char* policy : {"drop", "skip_dim", "deflect"}) {
    for (const double fault_rate : {0.0, 0.05, 0.1, 0.2}) {
      Scenario scenario;
      scenario.scheme = "hypercube_greedy";
      scenario.d = 6;
      scenario.p = 0.5;
      scenario.lambda = 1.0;  // rho = lambda * p = 0.5
      scenario.faults.arc_fault_rate = fault_rate;
      scenario.fault_policy = policy;
      scenario.measure = 2000.0;
      scenario.plan = ReplicationPlan{4, /*seed=*/7};

      const RunResult result = run(scenario);
      std::printf("%-10.2f %-10s %12.4f %12.4f %10.3f %10.1f\n", fault_rate,
                  policy, result.extra("delivery_ratio")->mean,
                  result.extra("mean_stretch")->mean, result.delay.mean,
                  result.extra("delay_p99")->mean);
    }
    std::printf("\n");
  }

  std::printf(
      "Reading: drop loses packets in proportion to the dead arcs on their\n"
      "greedy path; skip_dim recovers nearly all of them (the surviving\n"
      "cube stays connected at these rates) at the price of stretch > 1\n"
      "and a heavier delay tail; deflect buys the same recovery at more\n"
      "stretch and delay because it reroutes blindly.\n");
  return 0;
}
