// Experiment X6 — heavy-traffic behaviour (discussion after Prop. 13):
//   p/2  <=  lim_{rho->1} (1-rho) T  <=  d p ,
// and at p = 1 the limit is exactly p/2 = 1/2 (disjoint paths, closed form
// T = d + rho/(2(1-rho))).  Scenario sweeps of rho -> 1 with the band and
// closed-form post-checks.

#include <cmath>

#include "common/driver.hpp"
#include "core/bounds.hpp"

int main(int argc, char** argv) {
  using routesim::bounds::HypercubeParams;
  benchdrive::Suite suite("tab_heavy_traffic",
                          "X6: heavy-traffic scaling (1-rho)*T as rho -> 1 "
                          "(d = 5)");
  const int d = 5;

  // Uniform destinations: the scaled delay stays inside [p/2, dp].
  double last_scaled = 0.0;
  for (const double rho : {0.90, 0.95, 0.98, 0.99}) {
    routesim::Scenario scenario;
    scenario.scheme = "hypercube_greedy";
    scenario.d = d;
    scenario.p = 0.5;
    scenario.lambda = rho / scenario.p;
    scenario.measure = 20000.0 / (1 - rho) / 10.0;  // longer near 1
    scenario.plan = {6, 555};
    const auto& result =
        suite.add({"p=0.5 rho=" + benchtab::fmt(rho, 2), scenario, false, false});
    const double scaled = (1 - rho) * result.delay.mean;
    last_scaled = scaled;
    const HypercubeParams params{d, scenario.lambda, scenario.p};
    suite.checker().require(
        scaled >= routesim::bounds::heavy_traffic_lower(params) * 0.9 &&
            scaled <= routesim::bounds::heavy_traffic_upper(params) * 1.1,
        "rho=" + benchtab::fmt(rho, 2) + ": (1-rho)T within [p/2, dp] band");
  }
  suite.checker().require(last_scaled > 0.0,
                          "scaled delay converges to a finite value");

  // p = 1: the lower bound is tight and the delay has a closed form.
  for (const double rho : {0.90, 0.95, 0.98}) {
    routesim::Scenario scenario;
    scenario.scheme = "hypercube_greedy";
    scenario.d = d;
    scenario.p = 1.0;
    scenario.lambda = rho;
    scenario.measure = 20000.0;
    scenario.plan = {6, 777};
    const auto& result =
        suite.add({"p=1 rho=" + benchtab::fmt(rho, 2), scenario, false, false});
    const double exact = routesim::bounds::greedy_delay_exact_p1(d, rho);
    suite.checker().require(
        std::abs(result.delay.mean / exact - 1.0) < 0.03,
        "p=1 rho=" + benchtab::fmt(rho, 2) +
            ": simulation matches closed form d + rho/(2(1-rho))");
  }

  std::cout << "\nShape check: (1-rho)T is bounded and the p=1 case attains "
               "the lower-bound scaling p/2 (§3.3 end).\n";
  return suite.finish(argc, argv);
}
