// Experiment X3 — the paper's headline quantitative claim (Props. 12/13):
// for the greedy scheme on the d-cube with uniform destinations,
//   dp + p*rho/(2(1-rho))  <=  T  <=  dp/(1-rho)   for all rho < 1,
// and T grows like 1/(1-rho) under heavy traffic.  A pure scenario sweep
// of the load factor at fixed d.

#include "common/driver.hpp"

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_hypercube_delay_vs_load",
      "X3: hypercube greedy delay vs load factor (d = 8, p = 1/2)\n"
      "bounds: LB = Prop. 13, UB = Prop. 12");

  for (const double rho : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}) {
    routesim::Scenario scenario;
    scenario.scheme = "hypercube_greedy";
    scenario.d = 8;
    scenario.p = 0.5;
    scenario.lambda = rho / scenario.p;
    scenario.measure = rho < 0.9 ? 4000.0 : 12000.0;
    scenario.plan = {6, 1234};
    suite.add({"rho=" + benchtab::fmt(rho, 2), scenario});
  }

  std::cout << "\nShape check: T stays O(d) for fixed rho and blows up like "
               "1/(1-rho) as rho -> 1.\n";
  return suite.finish(argc, argv);
}
