// Experiment X4 — the O(d) delay claim: for fixed rho < 1 the average
// delay grows linearly in the dimension d, with slope between the bounds'
// slopes p (LB) and p/(1-rho) (UB).  A scenario sweep of d at two loads
// with linearity post-checks over the collected results.

#include <cmath>

#include "common/driver.hpp"

int main(int argc, char** argv) {
  benchdrive::Suite suite("tab_hypercube_delay_vs_dim",
                          "X4: hypercube greedy delay vs dimension (p = 1/2)");
  const double p = 0.5;

  for (const double rho : {0.5, 0.8}) {
    std::vector<double> per_d;
    for (int d = 2; d <= 10; ++d) {
      routesim::Scenario scenario;
      scenario.scheme = "hypercube_greedy";
      scenario.d = d;
      scenario.p = p;
      scenario.lambda = rho / p;
      scenario.measure = 3000.0;
      scenario.plan = {5, 77};
      const auto& result =
          suite.add({"rho=" + benchtab::fmt(rho, 1) + " d=" + std::to_string(d),
                     scenario, true, true, 0.05, 0.05});
      per_d.push_back(result.delay.mean);
    }

    // Linearity: T(d)/d settles to a constant — compare the last ratios.
    const double ratio_8 = per_d[6] / 8.0;
    const double ratio_10 = per_d[8] / 10.0;
    suite.checker().require(std::abs(ratio_10 / ratio_8 - 1.0) < 0.1,
                            "rho=" + benchtab::fmt(rho, 1) +
                                ": T/d approximately constant for large d "
                                "(O(d) delay)");
    suite.checker().require(ratio_10 >= p * 0.95 &&
                                ratio_10 <= p / (1 - rho) * 1.05,
                            "rho=" + benchtab::fmt(rho, 1) +
                                ": slope between p and p/(1-rho)");
  }
  return suite.finish(argc, argv);
}
