// Experiment X10 — slotted time (§3.4): batch Poisson arrivals at slot
// boundaries k*tau.  The paper bounds the slotted delay by the continuous
// bound plus tau: T~ <= dp/(1-rho) + tau.  One scenario per tau (tau = 0
// is the continuous-time reference row); the registry picks the slotted
// upper bound automatically.

#include "common/driver.hpp"
#include "core/bounds.hpp"

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_slotted_time",
      "X10: slotted-time greedy routing (d = 6, p = 1/2, rho = 0.6)");

  routesim::Scenario base;
  base.scheme = "hypercube_greedy";
  base.d = 6;
  base.p = 0.5;
  base.lambda = 0.6 / base.p;
  base.measure = 6000.0;
  base.plan = {6, 3000};
  const double continuous_lb =
      routesim::bounds::greedy_delay_lower_bound(base.hypercube_params());

  for (const double tau : {0.0, 0.125, 0.25, 0.5, 1.0}) {
    routesim::Scenario scenario = base;
    scenario.tau = tau;
    const auto& result = suite.add(
        {tau == 0.0 ? "tau=0 (continuous)" : "tau=" + benchtab::fmt(tau, 3),
         scenario});
    if (tau > 0.0) {
      suite.checker().require(result.delay.mean >= continuous_lb * 0.95,
                              "tau=" + benchtab::fmt(tau, 3) +
                                  ": slotted delay not below the continuous LB");
    }
  }

  std::cout << "\nShape check: slotting perturbs the delay by at most about "
               "tau; stability is unaffected (§3.4).\n";
  return suite.finish(argc, argv);
}
