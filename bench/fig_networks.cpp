// Experiment X1 — reproduces the structural figures of the paper:
//   Fig. 1a: the 3-dimensional hypercube;
//   Fig. 1b: its equivalent levelled network Q (§3.1, Properties A-C);
//   Fig. 3a: the 2-dimensional butterfly;
//   Fig. 3b: its equivalent network R (§4.3).
// Emits DOT graphs (machine-readable reproduction of the diagrams) and
// verifies every structural invariant the figures encode.

#include <cmath>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/equivalence.hpp"
#include "topology/topology.hpp"

using namespace routesim;

namespace {

void emit_hypercube_dot(const HypercubeTopology& cube) {
  std::cout << "// Fig. 1a — the " << cube.diameter() << "-cube\n";
  std::cout << "digraph hypercube_d" << cube.diameter() << " {\n";
  for (ArcId arc = 0; arc < cube.num_arcs(); ++arc) {
    const NodeId source = cube.arc_source(arc);
    const NodeId target = cube.arc_target(arc);
    std::cout << "  n" << source << " -> n" << target << " [label=\"dim"
              << lowest_dimension(source ^ target) << "\"];\n";
  }
  std::cout << "}\n\n";
}

void emit_network_q_dot(int d, double lambda, double p) {
  const auto config = make_hypercube_network_q(d, lambda, p, Discipline::kFifo, 1);
  std::cout << "// Fig. 1b — equivalent network Q for the " << d
            << "-cube (lambda=" << lambda << ", p=" << p << ")\n";
  std::cout << "digraph network_q_d" << d << " {\n  rankdir=LR;\n";
  for (std::uint32_t s = 0; s < config.servers.size(); ++s) {
    std::cout << "  s" << s << " [label=\"arc " << s << "\\next rate "
              << benchtab::fmt(config.servers[s].external_rate, 4) << "\"];\n";
  }
  for (std::uint32_t s = 0; s < config.servers.size(); ++s) {
    for (const auto& choice : config.servers[s].routing) {
      std::cout << "  s" << s << " -> s" << choice.target << " [label=\""
                << benchtab::fmt(choice.probability, 3) << "\"];\n";
    }
  }
  std::cout << "}\n\n";
}

void emit_butterfly_dot(const ButterflyTopology& bfly) {
  const int d = bfly.diameter();
  // Node [row; level] has index (level-1) * 2^d + row.
  const auto label = [d](NodeId node) {
    return "\"[" + std::to_string(node & ((NodeId{1} << d) - 1u)) + ";" +
           std::to_string((node >> d) + 1) + "]\"";
  };
  std::cout << "// Fig. 3a — the " << d << "-dimensional butterfly\n";
  std::cout << "digraph butterfly_d" << d << " {\n  rankdir=LR;\n";
  for (ArcId arc = 0; arc < bfly.num_arcs(); ++arc) {
    const char* style = bfly.hop_weight(arc) == 0 ? "solid" : "dashed";
    std::cout << "  " << label(bfly.arc_source(arc)) << " -> "
              << label(bfly.arc_target(arc)) << " [style=" << style << "];\n";
  }
  std::cout << "}\n\n";
}

}  // namespace

int main() {
  std::cout << "X1: structural reproduction of Figures 1a, 1b, 3a, 3b\n\n";

  const HypercubeTopology cube(3);
  emit_hypercube_dot(cube);
  emit_network_q_dot(3, 1.0, 0.5);
  const ButterflyTopology bfly(2);
  emit_butterfly_dot(bfly);

  benchtab::Table counts({"object", "nodes", "arcs/servers", "paper"});
  counts.add_row({"3-cube (Fig 1a)", "8", std::to_string(cube.num_arcs()),
                  "2^d nodes, d*2^d = 24 arcs"});
  const auto q_config = make_hypercube_network_q(3, 1.0, 0.5, Discipline::kFifo, 1);
  counts.add_row({"network Q (Fig 1b)", "-", std::to_string(q_config.servers.size()),
                  "d*2^d = 24 servers, 3 levels"});
  counts.add_row({"2-butterfly (Fig 3a)", std::to_string(bfly.num_nodes()),
                  std::to_string(bfly.num_arcs()),
                  "(d+1)*2^d = 12 nodes, d*2^(d+1) = 16 arcs"});
  const auto r_config = make_butterfly_network_r(2, 1.0, 0.5, Discipline::kFifo, 1);
  counts.add_row({"network R (Fig 3b)", "-", std::to_string(r_config.servers.size()),
                  "d*2^(d+1) = 16 servers, 2 levels"});
  counts.print();

  benchtab::Checker checker;
  checker.require(cube.num_nodes() == 8 && cube.num_arcs() == 24,
                  "Fig 1a: 3-cube has 2^3 nodes and 3*2^3 directed arcs");
  checker.require(q_config.servers.size() == 24,
                  "Fig 1b: network Q has one server per hypercube arc");

  // Property B: Q is levelled — every routing edge goes to a higher level.
  bool levelled = true;
  for (std::uint32_t s = 0; s < q_config.servers.size(); ++s) {
    for (const auto& choice : q_config.servers[s].routing) {
      levelled = levelled && choice.target > s;
    }
  }
  checker.require(levelled, "Fig 1b: Q is levelled (Property B)");

  // Property A: external rates by dimension are lambda*p*(1-p)^(i-1).
  bool rates_ok = true;
  for (int dim = 1; dim <= 3; ++dim) {
    const double expected = 1.0 * 0.5 * std::pow(0.5, dim - 1);
    for (NodeId x = 0; x < 8; ++x) {
      rates_ok = rates_ok &&
                 std::abs(q_config.servers[q_server_index(3, x, dim)].external_rate -
                          expected) < 1e-12;
    }
  }
  checker.require(rates_ok, "Fig 1b: Property A external rates");

  checker.require(bfly.num_nodes() == 12 && bfly.num_arcs() == 16,
                  "Fig 3a: 2-butterfly has (d+1)2^d nodes and d*2^(d+1) arcs");
  checker.require(r_config.servers.size() == 16,
                  "Fig 3b: network R has one server per butterfly arc");

  // Every origin-destination pair of the butterfly has a unique d-arc path:
  // greedy descent from [origin; 1] reaches [dest; d+1] in exactly d arcs.
  bool paths_ok = true;
  const NodeId exit_base = bfly.traffic_layout().sink_base;
  for (NodeId origin = 0; origin < 4; ++origin) {
    for (NodeId dest = 0; dest < 4; ++dest) {
      int arcs = 0;
      for (NodeId at = origin; at != exit_base + dest; ++arcs) {
        at = bfly.arc_target(bfly.greedy_next_arc(at, exit_base + dest));
      }
      paths_ok = paths_ok && arcs == 2;
    }
  }
  checker.require(paths_ok, "Fig 3a: unique d-arc path per origin/destination pair");

  return checker.summarize();
}
