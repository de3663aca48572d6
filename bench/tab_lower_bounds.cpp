// Experiment X13 — the lower-bound hierarchy (Props. 2 and 3): the
// universal bound (any scheme), the oblivious bound (any oblivious scheme)
// and the greedy-specific bound (Prop. 13) versus the simulated delay.
// The greedy scheme is oblivious, so all three must sit below it, in order.

#include "common/driver.hpp"
#include "core/bounds.hpp"

int main(int argc, char** argv) {
  using namespace routesim::bounds;
  benchdrive::Suite suite(
      "tab_lower_bounds",
      "X13: lower-bound hierarchy vs simulated greedy delay (p = 1/2)");

  for (const int d : {4, 6, 8}) {
    for (const double rho : {0.5, 0.9}) {
      routesim::Scenario scenario;
      scenario.scheme = "hypercube_greedy";
      scenario.d = d;
      scenario.p = 0.5;
      scenario.lambda = 2.0 * rho;
      scenario.measure = rho < 0.9 ? 4000.0 : 10000.0;
      scenario.plan = {5, 606};
      const std::string tag =
          "d=" + std::to_string(d) + " rho=" + benchtab::fmt(rho, 1);
      const auto& result = suite.add({tag, scenario});

      const HypercubeParams params{d, scenario.lambda, scenario.p};
      const double universal = universal_delay_lower_bound(params);
      const double oblivious = oblivious_delay_lower_bound(params);
      const double greedy_lb = greedy_delay_lower_bound(params);
      suite.checker().require(universal <= oblivious + 1e-9,
                              tag + ": P2 <= P3 (restricting to oblivious "
                                    "tightens)");
      suite.checker().require(oblivious <= greedy_lb + 1e-9, tag + ": P3 <= P13");
      suite.checker().require(result.delay.mean >= greedy_lb * 0.97,
                              tag + ": simulated T above the greedy LB");
      suite.checker().require(result.delay.mean >= oblivious * 0.97,
                              tag + ": simulated T above the oblivious LB "
                                    "(greedy is oblivious)");
    }
  }

  std::cout << "\nShape check: P2's queueing term carries the 1/2^d factor, so\n"
               "it is loose in d (as the paper remarks); P3 removes it for\n"
               "oblivious schemes and P13 sharpens it by a factor <= 2.\n";
  return suite.finish(argc, argv);
}
