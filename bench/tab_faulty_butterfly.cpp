// Experiment F2 — greedy routing on a *faulty* butterfly.  The butterfly
// has a unique path of exactly d arcs per origin/destination pair, so a
// static arc fault rate f gives a closed-form delivery ratio under the
// drop policy: P[all d required arcs alive] = (1 - f)^d.  The twin_detour
// policy keeps misrouted packets moving (measuring the capacity cost of
// deflection without path diversity) but cannot save them — the wrong row
// bit can never be fixed at a later level.

#include <cmath>

#include "common/driver.hpp"

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_faulty_butterfly",
      "F2: greedy butterfly under static link faults (d = 5, p = 1/2)\n"
      "drop rows must match the unique-path closed form (1-f)^d",
      {"delivery_ratio", "mean_stretch", "delay_p99"});

  const int d = 5;
  const double rho = 0.5;

  for (const char* policy : {"drop", "twin_detour"}) {
    for (const double fault_rate : {0.0, 0.02, 0.05, 0.1}) {
      if (fault_rate == 0.0 && std::string(policy) != "drop") continue;
      routesim::Scenario scenario;
      scenario.scheme = "butterfly_greedy";
      scenario.d = d;
      scenario.p = 0.5;
      scenario.lambda = rho;  // rho = lambda * max{p, 1-p} = lambda here
      scenario.faults.arc_fault_rate = fault_rate;
      scenario.fault_policy = policy;
      scenario.measure = 1500.0;
      scenario.plan = {6, 777};

      benchdrive::Case spec;
      spec.label = "f=" + benchtab::fmt(fault_rate, 2) + " " + policy;
      spec.scenario = scenario;
      spec.check_little = fault_rate == 0.0;
      suite.add(spec);
    }
  }

  auto& checker = suite.checker();
  for (const auto& outcome : suite.outcomes()) {
    const double f = outcome.spec.scenario.faults.arc_fault_rate;
    const auto* ratio = outcome.result.extra("delivery_ratio");
    const auto* stretch = outcome.result.extra("mean_stretch");
    checker.require(ratio != nullptr && stretch != nullptr,
                    outcome.spec.label + ": resilience extras present");
    if (ratio == nullptr || stretch == nullptr) continue;
    // Every delivered butterfly packet crosses exactly d arcs, detour or
    // not, so stretch is identically 1.
    checker.require(stretch->mean == 1.0,
                    outcome.spec.label + ": unique-path stretch == 1");
    if (f == 0.0) {
      checker.require(ratio->mean == 1.0,
                      outcome.spec.label + ": fault-free delivery ratio == 1");
      continue;
    }
    // Unique-path closed form, for both policies (the twin detour only
    // postpones the loss): (1-f)^d within CI half-width + slack.
    const double expected = std::pow(1.0 - f, d);
    checker.require(
        std::abs(ratio->mean - expected) <= ratio->half_width + 0.03,
        outcome.spec.label + ": delivery ratio ~ (1-f)^d = " +
            benchtab::fmt(expected, 3));
  }

  std::cout << "\nShape check: delivery ratio tracks (1-f)^d for both "
               "policies — the butterfly's unique path makes faults fatal; "
               "twin_detour only converts drops into wasted transmissions.\n";
  return suite.finish(argc, argv);
}
