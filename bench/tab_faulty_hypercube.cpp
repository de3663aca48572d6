// Experiment F1 — greedy routing on a *faulty* d-cube: delivery ratio,
// path stretch and tail delay as static link faults sweep across load
// levels, for the drop baseline and the skip_dim reroute policy.
//
// The paper's bracket applies only to the fault-free rows (shown first at
// each load); faulty rows trade the bracket for the resilience metrics.
// Expected shape: delivery ratio decays with fault_rate under drop (every
// dead required arc kills its packet) but stays near 1 under skip_dim as
// long as the surviving cube stays connected; skip_dim pays for that with
// stretch > 1 and a heavier delay tail.

#include "common/driver.hpp"

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_faulty_hypercube",
      "F1: greedy d-cube under static link faults (d = 6, p = 1/2)\n"
      "fault-free rows carry the paper's bracket; faulty rows report\n"
      "delivery ratio / stretch / p99 instead",
      {"delivery_ratio", "mean_stretch", "delay_p99"});

  const double fault_rates[] = {0.0, 0.05, 0.1, 0.2};
  const char* policies[] = {"drop", "skip_dim"};

  for (const double rho : {0.3, 0.6}) {
    for (const char* policy : policies) {
      for (const double fault_rate : fault_rates) {
        if (fault_rate == 0.0 && std::string(policy) != "drop") {
          continue;  // fault-free baseline once per load
        }
        routesim::Scenario scenario;
        scenario.scheme = "hypercube_greedy";
        scenario.d = 6;
        scenario.p = 0.5;
        scenario.lambda = rho / scenario.p;
        scenario.faults.arc_fault_rate = fault_rate;
        scenario.fault_policy = policy;
        scenario.measure = 1500.0;
        scenario.plan = {4, 4242};

        benchdrive::Case spec;
        spec.label = "rho=" + benchtab::fmt(rho, 1) + " f=" +
                     benchtab::fmt(fault_rate, 2) + " " + policy;
        spec.scenario = scenario;
        // Little's law compares sojourn against *all* arrivals, including
        // fault-dropped ones, so it only applies to fault-free rows.
        spec.check_little = fault_rate == 0.0;
        suite.add(spec);
      }
    }
  }

  // Shape checks on the harvested resilience metrics.
  auto& checker = suite.checker();
  for (const auto& outcome : suite.outcomes()) {
    const auto* ratio = outcome.result.extra("delivery_ratio");
    const auto* stretch = outcome.result.extra("mean_stretch");
    checker.require(ratio != nullptr && stretch != nullptr,
                    outcome.spec.label + ": resilience extras present");
    if (ratio == nullptr || stretch == nullptr) continue;
    checker.require(ratio->mean > 0.0 && ratio->mean <= 1.0 + 1e-12,
                    outcome.spec.label + ": delivery ratio in (0, 1]");
    checker.require(stretch->mean >= 1.0 - 1e-12,
                    outcome.spec.label + ": stretch >= 1");
    if (outcome.spec.scenario.faults.arc_fault_rate == 0.0) {
      checker.require(ratio->mean == 1.0,
                      outcome.spec.label + ": fault-free delivery ratio == 1");
      checker.require(stretch->mean == 1.0,
                      outcome.spec.label + ": fault-free stretch == 1");
    }
    if (outcome.spec.scenario.fault_policy == "drop") {
      // Drop never detours, so delivered packets took the greedy path.
      checker.require(stretch->mean == 1.0,
                      outcome.spec.label + ": drop policy stretch == 1");
    }
  }
  // At equal load and fault rate, rerouting must not deliver less than
  // dropping.
  for (std::size_t i = 0; i < suite.outcomes().size(); ++i) {
    const auto& drop = suite.outcomes()[i];
    if (drop.spec.scenario.fault_policy != "drop" ||
        drop.spec.scenario.faults.arc_fault_rate == 0.0) {
      continue;
    }
    for (const auto& other : suite.outcomes()) {
      if (other.spec.scenario.fault_policy == "skip_dim" &&
          other.spec.scenario.faults.arc_fault_rate == drop.spec.scenario.faults.arc_fault_rate &&
          other.spec.scenario.lambda == drop.spec.scenario.lambda) {
        const auto* skip_ratio = other.result.extra("delivery_ratio");
        const auto* drop_ratio = drop.result.extra("delivery_ratio");
        if (skip_ratio == nullptr || drop_ratio == nullptr) continue;
        checker.require(
            skip_ratio->mean + 1e-9 >= drop_ratio->mean,
            drop.spec.label + ": skip_dim delivers at least as much as drop");
      }
    }
  }

  std::cout << "\nShape check: delivery ratio decays with f under drop, "
               "stays ~1 under skip_dim; skip_dim pays in stretch and p99.\n";
  return suite.finish(argc, argv);
}
