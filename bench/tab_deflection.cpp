// Experiment X17 — related-work comparison [GrH89]: deflection (hot-potato)
// routing versus greedy store-and-forward, both slot-synchronous (tau = 1).
// Deflection needs no buffers but misroutes under contention; greedy queues
// instead.  Both schemes are scenarios sharing d, lambda, window and seeds;
// the deflection fraction arrives as a registry extra metric.

#include <cmath>

#include "common/driver.hpp"

namespace {

routesim::Scenario slotted(const std::string& scheme, double lambda) {
  routesim::Scenario scenario;
  scenario.scheme = scheme;
  scenario.d = 5;
  scenario.workload = "uniform";
  scenario.lambda = lambda;
  if (scheme == "hypercube_greedy") scenario.tau = 1.0;
  scenario.window = {500.0, 20500.0};  // slots for deflection
  scenario.plan = {2, 929};
  return scenario;
}

}  // namespace

int main(int argc, char** argv) {
  benchdrive::Suite suite("tab_deflection",
                          "X17: greedy (slotted) vs deflection routing "
                          "(d = 5, p = 1/2)",
                          {"deflection_fraction"});

  double light_fraction = -1.0, heavy_fraction = -1.0;
  for (const double lambda : {0.05, 0.2, 0.4, 0.6}) {
    const std::string tag = "lambda=" + benchtab::fmt(lambda, 2);
    const auto& greedy =
        suite.add({tag + " greedy", slotted("hypercube_greedy", lambda), false});
    const auto& deflection =
        suite.add({tag + " deflection", slotted("deflection", lambda), false,
                   false});

    const double fraction = deflection.extra("deflection_fraction")->mean;
    if (lambda == 0.05) light_fraction = fraction;
    if (lambda == 0.6) heavy_fraction = fraction;

    suite.checker().require(
        deflection.mean_hops >= greedy.mean_hops - 0.1,
        tag + ": deflection never takes fewer hops than shortest path");
    if (lambda <= 0.05) {
      suite.checker().require(
          std::abs(deflection.delay.mean - greedy.delay.mean) < 1.5,
          "light load: deflection delay comparable to greedy");
    }
  }

  suite.checker().require(heavy_fraction > 4.0 * light_fraction,
                          "deflection fraction grows sharply with load");

  std::cout << "\nShape check: with buffers (greedy) contention becomes "
               "queueing;\nwithout (deflection) it becomes misrouting — the "
               "trade-off\nstudied approximately in [GrH89].\n";
  return suite.finish(argc, argv);
}
