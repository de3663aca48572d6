#include "core/equivalence.hpp"

#include "core/registry.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace routesim {

namespace {
using ArcKind = ButterflyTopology::ArcKind;
}  // namespace

std::uint32_t q_server_index(int d, NodeId x, int dim) {
  RS_EXPECTS(d >= 1 && dim >= 1 && dim <= d);
  RS_EXPECTS(x < (NodeId{1} << d));
  return HypercubeTopology(d).arc_index(x, dim);
}

std::uint32_t r_server_index(int d, NodeId row, int level, ArcKind kind) {
  RS_EXPECTS(d >= 1 && level >= 1 && level <= d);
  RS_EXPECTS(row < (NodeId{1} << d));
  const auto rows = std::uint32_t{1} << d;
  const std::uint32_t kind_offset = kind == ArcKind::kStraight ? 0 : rows;
  return static_cast<std::uint32_t>(level - 1) * (2u * rows) + kind_offset + row;
}

LevelledNetworkConfig make_hypercube_network_q(int d, double lambda, double p,
                                               Discipline discipline,
                                               std::uint64_t seed,
                                               bool track_per_server) {
  RS_EXPECTS(d >= 1 && d <= 20);
  RS_EXPECTS(lambda >= 0.0);
  RS_EXPECTS(p >= 0.0 && p <= 1.0);

  const auto nodes = std::uint32_t{1} << d;
  LevelledNetworkConfig config;
  config.discipline = discipline;
  config.seed = seed;
  config.track_per_server = track_per_server;
  config.servers.resize(static_cast<std::size_t>(d) * nodes);

  for (int dim = 1; dim <= d; ++dim) {
    // Property A: external rate lambda * p * (1-p)^(dim-1).
    const double external = lambda * p * std::pow(1.0 - p, dim - 1);
    for (NodeId x = 0; x < nodes; ++x) {
      auto& spec = config.servers[q_server_index(d, x, dim)];
      spec.service_rate = 1.0;
      spec.external_rate = external;
      // Property C: after crossing (x, x^e_dim) the packet is at x^e_dim and
      // joins dimension j > dim with probability p (1-p)^(j-dim-1).
      const NodeId next_node = flip_dimension(x, dim);
      spec.routing.reserve(static_cast<std::size_t>(d - dim));
      for (int j = dim + 1; j <= d; ++j) {
        spec.routing.push_back(RoutingChoice{
            p * std::pow(1.0 - p, j - dim - 1), q_server_index(d, next_node, j)});
      }
    }
  }
  return config;
}

LevelledNetworkConfig make_butterfly_network_r(int d, double lambda, double p,
                                               Discipline discipline,
                                               std::uint64_t seed,
                                               bool track_per_server) {
  RS_EXPECTS(d >= 1 && d <= 20);
  RS_EXPECTS(lambda >= 0.0);
  RS_EXPECTS(p >= 0.0 && p <= 1.0);

  const auto rows = std::uint32_t{1} << d;
  LevelledNetworkConfig config;
  config.discipline = discipline;
  config.seed = seed;
  config.track_per_server = track_per_server;
  config.servers.resize(static_cast<std::size_t>(d) * 2 * rows);

  const auto fill = [&](int level, NodeId row, ArcKind kind) {
    auto& spec = config.servers[r_server_index(d, row, level, kind)];
    spec.service_rate = 1.0;
    // Packets enter the network only at level 1; the Poisson(lambda) stream
    // of node [row; 1] splits into rate lambda*p on the vertical arc and
    // lambda*(1-p) on the straight arc (§4.2).
    if (level == 1) {
      spec.external_rate =
          kind == ArcKind::kVertical ? lambda * p : lambda * (1.0 - p);
    }
    if (level < d) {
      // Property B (§4.3): straight next with probability 1-p, vertical next
      // with probability p, from the row reached by this arc.
      const NodeId next_row =
          kind == ArcKind::kVertical ? flip_dimension(row, level) : row;
      spec.routing = {
          RoutingChoice{1.0 - p, r_server_index(d, next_row, level + 1,
                                                ArcKind::kStraight)},
          RoutingChoice{p, r_server_index(d, next_row, level + 1,
                                          ArcKind::kVertical)}};
    }
  };

  for (int level = 1; level <= d; ++level) {
    for (NodeId row = 0; row < rows; ++row) {
      fill(level, row, ArcKind::kStraight);
      fill(level, row, ArcKind::kVertical);
    }
  }
  return config;
}

LevelledNetworkConfig make_lemma9_network(double rate1, double rate2, double rate3,
                                          double p1_to_3, double p2_to_3,
                                          Discipline discipline, std::uint64_t seed) {
  RS_EXPECTS(rate1 >= 0.0 && rate2 >= 0.0 && rate3 >= 0.0);
  RS_EXPECTS(p1_to_3 >= 0.0 && p1_to_3 <= 1.0);
  RS_EXPECTS(p2_to_3 >= 0.0 && p2_to_3 <= 1.0);

  LevelledNetworkConfig config;
  config.discipline = discipline;
  config.seed = seed;
  config.servers.resize(3);
  config.servers[0].external_rate = rate1;
  config.servers[0].routing = {RoutingChoice{p1_to_3, 2}};
  config.servers[1].external_rate = rate2;
  config.servers[1].routing = {RoutingChoice{p2_to_3, 2}};
  config.servers[2].external_rate = rate3;
  return config;
}

namespace {

CompiledScenario compile_network_q(const Scenario& s, Discipline discipline) {
  const double p_eff = s.effective_p();
  CompiledScenario compiled;
  const Window window = s.resolved_window();
  compiled.replicate = [s, window, discipline, p_eff](std::uint64_t seed, int) {
    LevelledNetwork net(
        make_hypercube_network_q(s.d, s.lambda, p_eff, discipline, seed));
    net.run(window.warmup, window.horizon);
    // Packets whose destination equals their origin (probability (1-p)^d)
    // never enter Q; the paper's T averages over *all* packets, so the
    // in-network sojourn is scaled by the probability of entering.
    const double enter_prob = 1.0 - std::pow(1.0 - p_eff, s.d);
    return std::vector<double>{net.delay().mean() * enter_prob,
                               net.time_avg_population(),
                               net.throughput(),
                               0.0,
                               net.little_check().relative_error(),
                               net.final_population()};
  };
  const bounds::HypercubeParams params{s.d, s.lambda, p_eff};
  if (bounds::load_factor(params) < 1.0) {
    compiled.has_bounds = true;
    compiled.lower_bound = bounds::greedy_delay_lower_bound(params);
    compiled.upper_bound = bounds::greedy_delay_upper_bound(params);
  }
  return compiled;
}

}  // namespace

void register_network_q_schemes(SchemeRegistry& registry) {
  registry.add({.name = "network_q",
                .summary = "equivalent Markovian network Q of §3.1 "
                           "(discipline from the scenario: FIFO = Q, PS = Q~)",
                .compile =
                    [](const Scenario& s) {
                      return compile_network_q(s, s.discipline == "ps"
                                                      ? Discipline::kPs
                                                      : Discipline::kFifo);
                    },
                .keys = {"discipline"}});
  registry.add({"network_q_fifo",
                "network Q under FIFO (the real scheme's equivalent, §3.1)",
                [](const Scenario& s) {
                  return compile_network_q(s, Discipline::kFifo);
                }});
  registry.add({"network_q_ps",
                "network Q~ under processor sharing (the product-form "
                "majorant of Props. 11/12)",
                [](const Scenario& s) {
                  return compile_network_q(s, Discipline::kPs);
                }});
}

}  // namespace routesim
