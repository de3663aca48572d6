// Experiment X8 — butterfly greedy routing (Props. 14-17): delay versus
// lambda for several p, bracketed by the universal lower bound (P14) and
// the product-form upper bound (P17); the p <-> 1-p symmetry and the
// bottleneck role of max{p, 1-p} are checked over the scenario results.

#include <cmath>

#include "common/driver.hpp"
#include "core/bounds.hpp"

namespace {

routesim::Scenario butterfly(int d, double lambda, double p) {
  routesim::Scenario scenario;
  scenario.scheme = "butterfly_greedy";
  scenario.d = d;
  scenario.lambda = lambda;
  scenario.p = p;
  scenario.measure = 5000.0;
  return scenario;
}

}  // namespace

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_butterfly_delay",
      "X8: butterfly greedy delay vs lambda (d = 6)\n"
      "bounds: LB = Prop. 14, UB = Prop. 17; rho = lambda*max{p,1-p}");
  const int d = 6;

  for (const double p : {0.3, 0.5, 0.7}) {
    for (const double lambda : {0.3, 0.6, 0.9, 1.1, 1.3}) {
      const routesim::bounds::ButterflyParams params{d, lambda, p};
      if (routesim::bounds::bfly_load_factor(params) >= 0.99) continue;
      routesim::Scenario scenario = butterfly(d, lambda, p);
      scenario.plan = {6, 4242};
      suite.add({"p=" + benchtab::fmt(p, 1) + " lambda=" + benchtab::fmt(lambda, 1),
                 scenario});
    }
  }

  // Symmetry p <-> 1-p: same scheme, mirrored bit-flip parameter, same seeds.
  {
    routesim::Scenario low = butterfly(d, 1.0, 0.3);
    routesim::Scenario high = butterfly(d, 1.0, 0.7);
    low.plan = high.plan = {6, 31};
    const double t_low = suite.add({"symmetry p=0.3", low, false, false}).delay.mean;
    const double t_high =
        suite.add({"symmetry p=0.7", high, false, false}).delay.mean;
    suite.checker().require(
        std::abs(t_low / t_high - 1.0) < 0.03,
        "delay symmetric under p <-> 1-p (straight/vertical exchange)");
  }

  // Bottleneck: at fixed lambda, p = 1/2 minimises the delay (the load
  // rho = lambda*max{p,1-p} is smallest at p = 1/2).
  {
    routesim::Scenario balanced = butterfly(d, 1.3, 0.5);
    routesim::Scenario skewed = butterfly(d, 1.3, 0.7);
    balanced.plan = skewed.plan = {6, 17};
    const double t_balanced =
        suite.add({"bottleneck p=0.5", balanced, false, false}).delay.mean;
    const double t_skewed =
        suite.add({"bottleneck p=0.7", skewed, false, false}).delay.mean;
    suite.checker().require(
        t_balanced < t_skewed,
        "p = 1/2 sustains a given lambda with the least delay (§4.2)");
  }

  std::cout << "\nShape check: delays sit inside [P14, P17]; the vertical arcs\n"
               "(p > 1/2) or straight arcs (p < 1/2) are the bottleneck.\n";
  return suite.finish(argc, argv);
}
