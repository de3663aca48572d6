// Experiment X5 — the stability boundary: the necessary condition of §2.1
// (rho <= 1 for ANY scheme) is attained by the greedy scheme (Prop. 6).
// Below rho = 1 the backlog is flat in the horizon; above it grows
// linearly (the bottleneck dimension overflows).  Each load is probed by
// the same scenario at two explicit horizons; the growth rate is the slope
// of the replication-mean backlog.

#include "common/driver.hpp"

namespace {

routesim::Scenario at_horizon(double rho, double horizon) {
  routesim::Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 5;
  scenario.workload = "uniform";
  scenario.lambda = 2.0 * rho;  // p = 1/2
  scenario.window = {0.0, horizon};
  scenario.plan = {3, 1};
  return scenario;
}

}  // namespace

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_stability_boundary",
      "X5: stability boundary of greedy routing (d = 5, p = 1/2)\n"
      "growth rate = d/dt of network backlog, averaged over replications");
  const double t1 = 10000.0, t2 = 20000.0;

  for (const double rho : {0.70, 0.90, 0.98, 1.02, 1.10, 1.30}) {
    // Same seeds at both horizons: the pair is sample-path coupled.
    const auto& first = suite.add(
        {"rho=" + benchtab::fmt(rho, 2) + " t=" + benchtab::fmt(t1, 0),
         at_horizon(rho, t1), false, false});
    const auto& second = suite.add(
        {"rho=" + benchtab::fmt(rho, 2) + " t=" + benchtab::fmt(t2, 0),
         at_horizon(rho, t2), false, false});
    const double growth =
        (second.mean_final_backlog - first.mean_final_backlog) / (t2 - t1);
    const bool stable_observed = growth / 32.0 < 0.005;
    const bool stable_expected = rho < 1.0;
    suite.checker().require(stable_observed == stable_expected,
                            "rho=" + benchtab::fmt(rho, 2) +
                                ": observed stability matches theory");
  }

  std::cout << "\nShape check: the boundary sits at rho = 1 exactly — the "
               "broadest region any scheme can achieve (§2.1 + Prop. 6).\n";
  return suite.finish(argc, argv);
}
