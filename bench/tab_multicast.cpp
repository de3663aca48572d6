// Experiment X19 — the §5 generalisation implemented: packets destined for
// a SUBSET of nodes, routed along dimension-ordered multicast trees.
// Tree vs k-unicast is one scenario pair per fanout (unicast_baseline=1
// disables tree sharing); transmissions and completion delay arrive as
// registry extra metrics.

#include <cmath>

#include "common/driver.hpp"

namespace {

routesim::Scenario multicast(int fanout, bool unicast_baseline) {
  routesim::Scenario scenario;
  scenario.scheme = "multicast";
  scenario.d = 6;
  scenario.lambda = 0.02;
  scenario.fanout = fanout;
  scenario.unicast_baseline = unicast_baseline;
  scenario.window = {500.0, 20500.0};
  scenario.plan = {2, 606};
  return scenario;
}

}  // namespace

int main(int argc, char** argv) {
  benchdrive::Suite suite(
      "tab_multicast",
      "X19: greedy multicast trees vs k unicasts (d = 6, lambda = 0.02)",
      {"completion_delay", "transmissions_per_packet"});

  for (const int fanout : {1, 2, 4, 8, 16, 32}) {
    const std::string tag = "k=" + std::to_string(fanout);
    const auto& tree =
        suite.add({tag + " tree", multicast(fanout, false), false, false});
    const auto& unicast =
        suite.add({tag + " unicast", multicast(fanout, true), false, false});

    const double tree_tx = tree.extra("transmissions_per_packet")->mean;
    const double unicast_tx = unicast.extra("transmissions_per_packet")->mean;
    if (fanout == 1) {
      suite.checker().require(std::abs(tree_tx - unicast_tx) < 0.05,
                              "k=1: tree degenerates to unicast");
    } else {
      suite.checker().require(tree_tx < unicast_tx,
                              tag + ": tree uses fewer transmissions than k "
                                    "unicasts");
    }
    suite.checker().require(
        tree.extra("completion_delay")->mean >= tree.delay.mean - 1e-9,
        tag + ": completion (last dest) >= per-destination delay");
  }

  std::cout << "\nShape check: the saving grows with k (shared tree "
               "prefixes);\nat k = 2^d/2 the tree approaches the "
               "full-broadcast regime\nstudied in [StT90] (the paper's "
               "companion reference).\n";
  return suite.finish(argc, argv);
}
