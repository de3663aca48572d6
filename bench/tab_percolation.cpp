// Experiment F2 — percolation-scale fault storms on the d-cube (d = 10):
// delivery ratio and stretch as the static arc fault rate sweeps across
// the routing percolation knee, for the drop baseline, the skip_dim
// reroute policy and the adaptive (one-hop lookahead) policy.
//
// Alongside each fault rate the table reports the giant-component
// fraction of the *surviving* cube (largest connected component over
// bidirectionally-alive links, replication-0 fault set), computed here in
// the bench — structural percolation — next to the delivery ratio —
// *routing* percolation.  The two tell opposite stories depending on the
// policy: the drop baseline percolates out (delivery <= 0.5) while the
// giant component is still exactly whole — a single dead arc on the
// greedy path kills the packet long before the cube fragments — while
// the rerouting policies ride the cube's path diversity all the way to
// the structural transition and collapse with it.
//
// Checked shape (CI-enforced): delivery ratio >= 0.95 for the rerouting
// policies well below the knee, <= 0.5 for every policy well above it,
// drop already <= 0.5 at a rate where the giant fraction is still > 0.99,
// and adaptive strictly dominates skip_dim at two or more sweep points
// around criticality (the lookahead avoids dead-end detours exactly when
// dead arcs start to cluster).

#include <cstdio>
#include <vector>

#include "common/driver.hpp"
#include "fault/fault_model.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace {

constexpr int kDim = 10;
constexpr std::uint64_t kBaseSeed = 4242;

/// Fraction of nodes in the largest component of the surviving cube,
/// where a link survives iff *both* directed arcs are alive (the
/// conservative, routing-usable notion) — replication-0 fault set.
double giant_component_fraction(double fault_rate) {
  const routesim::HypercubeTopology cube(kDim);
  routesim::FaultModelConfig config;
  config.arc_fault_rate = fault_rate;
  routesim::FaultModel model;
  model.configure(config, cube, routesim::derive_stream(kBaseSeed, 0));

  const std::uint32_t n = cube.num_nodes();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::uint32_t> stack;
  std::uint32_t giant = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    std::uint32_t size = 0;
    stack.assign(1, root);
    seen[root] = 1;
    while (!stack.empty()) {
      const std::uint32_t node = stack.back();
      stack.pop_back();
      ++size;
      for (int dim = 1; dim <= kDim; ++dim) {
        const auto next = routesim::flip_dimension(node, dim);
        if (seen[next]) continue;
        if (model.is_faulty(cube.arc_index(node, dim)) ||
            model.is_faulty(cube.arc_index(next, dim))) {
          continue;
        }
        seen[next] = 1;
        stack.push_back(next);
      }
    }
    giant = std::max(giant, size);
  }
  return static_cast<double>(giant) / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_percolation",
      "F2: routing percolation on the faulty d-cube (d = 10, p = 1/2)\n"
      "arc fault rate sweeps across the routing knee; giant = largest\n"
      "surviving-component fraction (structural percolation, printed\n"
      "below): drop collapses with the giant still whole, rerouting\n"
      "rides path diversity to the structural transition",
      {"delivery_ratio", "mean_stretch", "delay_p99"});

  const double fault_rates[] = {0.02, 0.3, 0.45, 0.55, 0.65, 0.7};
  const char* policies[] = {"drop", "skip_dim", "adaptive"};
  const double rho = 0.3;

  for (const char* policy : policies) {
    for (const double fault_rate : fault_rates) {
      routesim::Scenario scenario;
      scenario.scheme = "hypercube_greedy";
      scenario.d = kDim;
      scenario.p = 0.5;
      scenario.lambda = rho / scenario.p;
      scenario.faults.arc_fault_rate = fault_rate;
      scenario.fault_policy = policy;
      scenario.measure = 200.0;
      scenario.plan = {3, kBaseSeed};

      benchdrive::Case spec;
      spec.label = "f=" + benchtab::fmt(fault_rate, 2) + " " + policy;
      spec.scenario = scenario;
      // Little's law compares sojourn of delivered packets against *all*
      // arrivals; with fault drops it never applies here.
      spec.check_little = false;
      suite.add(spec);
    }
  }

  // Structural percolation next to the routing table: the giant component
  // barely notices fault rates that already killed the drop baseline.
  std::printf("\nstructural percolation (rep-0 fault set, bidirectional links):\n");
  std::printf("  %-6s %s\n", "f", "giant_frac");
  std::vector<double> giants;
  for (const double fault_rate : fault_rates) {
    giants.push_back(giant_component_fraction(fault_rate));
    std::printf("  %-6.2f %.4f\n", fault_rate, giants.back());
  }

  auto& checker = suite.checker();
  // The structural knee: essentially whole at the left edge of the sweep.
  checker.require(giants.front() > 0.99,
                  "giant component ~1 at the lowest fault rate");

  const auto ratio_of = [&](const char* policy,
                            double fault_rate) -> const routesim::ConfidenceInterval* {
    for (const auto& outcome : suite.outcomes()) {
      if (outcome.spec.scenario.fault_policy == policy &&
          outcome.spec.scenario.faults.arc_fault_rate == fault_rate) {
        return outcome.result.extra("delivery_ratio");
      }
    }
    return nullptr;
  };

  // Sanity on every row (ratio in (0, 1], stretch >= 1).
  for (const auto& outcome : suite.outcomes()) {
    const auto* ratio = outcome.result.extra("delivery_ratio");
    const auto* stretch = outcome.result.extra("mean_stretch");
    checker.require(ratio != nullptr && stretch != nullptr,
                    outcome.spec.label + ": resilience extras present");
    if (ratio == nullptr || stretch == nullptr) continue;
    checker.require(ratio->mean > 0.0 && ratio->mean <= 1.0 + 1e-12,
                    outcome.spec.label + ": delivery ratio in (0, 1]");
    checker.require(stretch->mean >= 1.0 - 1e-12,
                    outcome.spec.label + ": stretch >= 1");
  }

  // The routing knee, below: rerouting keeps delivery >= 0.95 at the low
  // end of the sweep...
  for (const char* policy : {"skip_dim", "adaptive"}) {
    const auto* low = ratio_of(policy, fault_rates[0]);
    checker.require(low != nullptr && low->mean >= 0.95,
                    std::string(policy) + ": delivery >= 0.95 below the knee");
  }
  // The baseline's knee sits far left of the structural one: drop is
  // already under water at a rate where the giant component is whole.
  {
    const auto* drop = ratio_of("drop", fault_rates[1]);
    checker.require(drop != nullptr && drop->mean <= 0.5 && giants[1] > 0.99,
                    "drop: delivery <= 0.5 while the giant component is whole");
  }
  // ... and above: every policy is under water at the high end.
  for (const char* policy : policies) {
    const auto* high = ratio_of(policy, fault_rates[5]);
    checker.require(high != nullptr && high->mean <= 0.5,
                    std::string(policy) + ": delivery <= 0.5 above the knee");
  }
  // Near criticality the one-hop lookahead must beat blind skipping at
  // two or more sweep points (strictly — this is the adaptive policy's
  // reason to exist).
  int adaptive_wins = 0;
  for (const double fault_rate : fault_rates) {
    const auto* skip = ratio_of("skip_dim", fault_rate);
    const auto* adaptive = ratio_of("adaptive", fault_rate);
    if (skip == nullptr || adaptive == nullptr) continue;
    if (adaptive->mean > skip->mean) ++adaptive_wins;
  }
  checker.require(adaptive_wins >= 2,
                  "adaptive strictly beats skip_dim at >= 2 sweep points "
                  "(got " + std::to_string(adaptive_wins) + ")");

  std::printf(
      "\nShape check: the drop baseline percolates out (delivery <= 0.5)\n"
      "while the giant component is still whole; rerouting rides the\n"
      "cube's path diversity to the structural transition, where\n"
      "adaptive's lookahead strictly beats blind dimension-skipping.\n");
  return suite.finish(argc, argv);
}
