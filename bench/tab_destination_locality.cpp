// Experiment X11 — the destination-locality knob of eq. (1): p < 1/2 makes
// traffic local, p = 1/2 uniform, p -> 1 antipodal.  Two sweeps:
//   (a) fixed load factor rho = lambda*p: smaller p means *more* packets
//       but shorter trips; T ~ dp/(1-rho) shrinks with p.
//   (b) fixed lambda: rho = lambda*p grows with p, compounding longer trips
//       with higher load.

#include <iostream>

#include "common/table.hpp"
#include "core/scenario.hpp"

using namespace routesim;

/// Greedy routing on the d-cube at (lambda, p) over `window`, 5 replications.
RunResult greedy_point(int d, double lambda, double p, const Window& window,
                       std::uint64_t seed) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = d;
  scenario.lambda = lambda;
  scenario.p = p;
  scenario.window = window;
  scenario.plan = {5, seed};
  return run(scenario);
}

int main() {
  std::cout << "X11: effect of destination locality p (d = 8)\n\n";
  const int d = 8;
  benchtab::Checker checker;

  {
    std::cout << "(a) fixed load factor rho = 0.6 (lambda = rho/p adjusts):\n";
    benchtab::Table table({"p", "lambda", "LB (P13)", "T sim", "UB (P12)", "T/(dp)"});
    double previous = 0.0;
    for (const double p : {0.125, 0.25, 0.5, 0.75, 1.0}) {
      const double rho = 0.6;
      const auto window = Window::for_load(d, rho, 4000.0);
      const auto estimate = greedy_point(d, rho / p, p, window, 808);
      table.add_row({benchtab::fmt(p, 3), benchtab::fmt(rho / p, 2),
                     benchtab::fmt(estimate.lower_bound),
                     benchtab::fmt(estimate.delay.mean),
                     benchtab::fmt(estimate.upper_bound),
                     benchtab::fmt(estimate.delay.mean / (d * p), 2)});
      checker.require(estimate.delay.mean >= estimate.lower_bound * 0.97 &&
                          estimate.delay.mean <= estimate.upper_bound * 1.03,
                      "fixed-rho p=" + benchtab::fmt(p, 3) + ": T within bracket");
      checker.require(estimate.delay.mean > previous,
                      "fixed-rho p=" + benchtab::fmt(p, 3) +
                          ": delay increases with trip length dp");
      previous = estimate.delay.mean;
    }
    table.print();
    std::cout << '\n';
  }

  {
    std::cout << "(b) fixed lambda = 1.0 (rho = p grows with p):\n";
    benchtab::Table table({"p", "rho", "T sim", "UB (P12)"});
    double previous = 0.0;
    bool monotone = true;
    for (const double p : {0.2, 0.4, 0.6, 0.8, 0.9}) {
      const double rho = p;
      const auto window = Window::for_load(d, rho, 5000.0);
      const auto estimate = greedy_point(d, 1.0, p, window, 909);
      table.add_row({benchtab::fmt(p, 2), benchtab::fmt(rho, 2),
                     benchtab::fmt(estimate.delay.mean),
                     benchtab::fmt(estimate.upper_bound)});
      monotone = monotone && estimate.delay.mean > previous;
      previous = estimate.delay.mean;
      checker.require(estimate.delay.mean <= estimate.upper_bound * 1.03,
                      "fixed-lambda p=" + benchtab::fmt(p, 1) + ": T <= P12");
    }
    table.print();
    checker.require(monotone,
                    "fixed-lambda: delay strictly increases with p "
                    "(longer trips AND higher load)");
  }

  std::cout << "\nShape check: localised traffic (small p) is cheap; the "
               "uniform case p = 1/2 is the standard benchmark; antipodal "
               "traffic pays the full diameter.\n";
  return checker.summarize();
}
