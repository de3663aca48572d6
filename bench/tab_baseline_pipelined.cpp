// Experiment X9 — §2.3: the non-greedy pipelined baseline (rounds of the
// Valiant-Brebner first phase) versus the greedy scheme.  The baseline's
// stability region shrinks like 1/(R d) while greedy holds the full
// rho < 1; R is *measured* (extra metric round_over_d).  Both schemes run
// as scenarios at two horizons; stability is the backlog slope.

#include "common/driver.hpp"

namespace {

routesim::Scenario scheme_at(const std::string& scheme, int d, double lambda,
                             double horizon) {
  routesim::Scenario scenario;
  scenario.scheme = scheme;
  scenario.d = d;
  scenario.workload = "uniform";
  scenario.lambda = lambda;
  scenario.window = {0.0, horizon};
  scenario.plan = {2, 11};
  return scenario;
}

}  // namespace

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_baseline_pipelined",
      "X9: greedy vs pipelined baseline (§2.3), uniform destinations\n"
      "baseline stability requires lambda < ~1/(R d); greedy needs only "
      "rho = lambda/2 < 1",
      {"round_over_d"});
  const double t1 = 8000.0, t2 = 16000.0;

  for (const int d : {4, 6, 8}) {
    // lambda = 1.0 => rho = 0.5: trivially stable for greedy at every d,
    // hopeless for the baseline whose per-node service time is ~R*d.
    for (const double lambda : {1.0 / (6.0 * d), 1.0}) {
      const std::string tag =
          "d=" + std::to_string(d) + " lambda=" + benchtab::fmt(lambda, 4);
      const auto& base1 = suite.add({tag + " baseline t1",
                                     scheme_at("pipelined_baseline", d, lambda, t1),
                                     false, false});
      const auto& base2 = suite.add({tag + " baseline t2",
                                     scheme_at("pipelined_baseline", d, lambda, t2),
                                     false, false});
      const auto& greedy1 = suite.add({tag + " greedy t1",
                                       scheme_at("hypercube_greedy", d, lambda, t1),
                                       false, false});
      const auto& greedy2 = suite.add({tag + " greedy t2",
                                       scheme_at("hypercube_greedy", d, lambda, t2),
                                       false, false});

      const double nodes = static_cast<double>(1u << d);
      const double baseline_slope =
          (base2.mean_final_backlog - base1.mean_final_backlog) / (t2 - t1);
      const double greedy_slope =
          (greedy2.mean_final_backlog - greedy1.mean_final_backlog) / (t2 - t1);
      const bool baseline_stable = baseline_slope < 0.01 * nodes;
      const bool greedy_stable = greedy_slope < 0.01 * nodes;

      if (lambda < 0.1) {
        suite.checker().require(baseline_stable,
                                "d=" + std::to_string(d) +
                                    ": baseline stable at lambda ~ 1/(6d) "
                                    "(inside its region)");
      } else {
        suite.checker().require(!baseline_stable,
                                "d=" + std::to_string(d) +
                                    ": baseline UNSTABLE at rho = 0.5 "
                                    "(region shrinks ~1/d)");
      }
      suite.checker().require(greedy_stable,
                              tag + ": greedy stable (rho < 1)");
    }
  }

  std::cout << "\nShape check: the baseline's usable load vanishes as d grows "
               "(~1/(Rd)); greedy keeps the whole region rho < 1 — the paper's "
               "§2.3 motivation for avoiding idling.\n";
  return suite.finish(argc, argv);
}
