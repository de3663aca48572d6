// Scenario: a message-passing multiprocessor (the paper's motivating
// setting, §1.1) — 256 processors on an 8-cube exchanging messages with
// uniformly random partners.  Question: how does the end-to-end message
// latency degrade as the per-processor injection rate grows, and how close
// to the capacity bound can the machine run with acceptable latency?
//
//   build/examples/example_uniform_traffic_study

#include <iomanip>
#include <iostream>

#include "core/scenario.hpp"

int main() {
  using namespace routesim;

  const int d = 8;  // 256 processors
  const double p = 0.5;

  std::cout << "Uniform-traffic latency study on the " << d << "-cube ("
            << (1 << d) << " processors)\n";
  std::cout << "necessary condition for ANY routing scheme: lambda < 1/p = 2\n\n";
  std::cout << std::setw(8) << "lambda" << std::setw(8) << "rho" << std::setw(12)
            << "T (sim)" << std::setw(10) << "+/-" << std::setw(12) << "UB P12"
            << std::setw(14) << "slowdown" << '\n';

  // Slowdown = T / (d*p): the factor contention adds over an empty network.
  for (const double lambda : {0.2, 0.6, 1.0, 1.4, 1.8, 1.9}) {
    const bounds::HypercubeParams params{d, lambda, p};
    const double rho = bounds::load_factor(params);
    Scenario scenario;
    scenario.scheme = "hypercube_greedy";
    scenario.d = d;
    scenario.lambda = lambda;
    scenario.p = p;
    scenario.window = Window::for_load(d, rho, 4000.0);
    scenario.plan = {6, /*seed=*/7};
    const RunResult estimate = run(scenario);
    std::cout << std::setw(8) << lambda << std::setw(8) << rho << std::setw(12)
              << std::fixed << std::setprecision(2) << estimate.delay.mean
              << std::setw(10) << std::setprecision(2) << estimate.delay.half_width
              << std::setw(12) << std::setprecision(2) << estimate.upper_bound
              << std::setw(13) << std::setprecision(2)
              << estimate.delay.mean / (d * p) << "x\n";
    std::cout.unsetf(std::ios_base::fixed);
  }

  std::cout << "\nReading the table: at 50% of capacity the messages take only\n"
               "~1.5x the zero-load latency; even at 95% of capacity the\n"
               "slowdown stays within the paper's dp/(1-rho) guarantee — the\n"
               "practical content of Propositions 6 and 12.\n";
  return 0;
}
