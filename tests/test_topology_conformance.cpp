// Topology conformance kit: every family registered with make_topology
// must satisfy the concept contract documented in topology/topology.hpp —
// dense bijective arc indexing, out-arc enumeration consistent with
// arc_source, incidence symmetry, a metric that equals BFS shortest-path
// distance, greedy strict metric descent delivering in exactly metric()
// hops (<= diameter()), and per-family closed forms for arc counts,
// diameters and the uniform-traffic congestion constant.
//
// The kit runs exhaustively over all (src, dst) pairs at small sizes, so
// a new topology gets the whole certification by being added to
// `conformance_specs()` below.

#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <vector>

#include "topology/ring.hpp"
#include "topology/torus.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"
#include "workload/permutation.hpp"

namespace routesim {
namespace {

/// Small instances of every family, exercised by every TEST_P below.
std::vector<TopologySpec> conformance_specs() {
  return {
      {"hypercube", 4, "", "4x4"},
      {"butterfly", 3, "", "4x4"},
      {"ring", 4, "", "4x4"},            // plain cycle, n = 16
      {"ring", 5, "4", "4x4"},           // one chord class, n = 32
      {"ring", 6, "papillon", "4x4"},    // doubling ladder, n = 64
      {"torus", 4, "", "4x4"},
      {"torus", 4, "", "3x3x4"},         // odd extents + 3D
      {"mesh", 4, "", "4x3"},            // boundary nodes have degree < 2k
  };
}

std::string spec_label(const TopologySpec& spec) {
  std::string label = spec.name + "_d" + std::to_string(spec.d);
  if (!spec.ring_chords.empty()) label += "_" + spec.ring_chords;
  if (spec.name == "torus" || spec.name == "mesh") label += "_" + spec.torus_dims;
  for (char& c : label) {
    if (c == ',' || c == 'x') c = '_';
  }
  return label;
}

/// All-pairs BFS distances over the out-arc relation — the oracle metric().
std::vector<std::vector<int>> bfs_distances(const Topology& topo) {
  const std::uint32_t n = topo.num_nodes();
  std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
  for (NodeId src = 0; src < n; ++src) {
    dist[src][src] = 0;
    std::deque<NodeId> frontier = {src};
    while (!frontier.empty()) {
      const NodeId at = frontier.front();
      frontier.pop_front();
      for (int k = 0; k < topo.out_degree(at); ++k) {
        const NodeId next = topo.arc_target(topo.out_arc(at, k));
        if (dist[src][next] < 0) {
          dist[src][next] = dist[src][at] + 1;
          frontier.push_back(next);
        }
      }
    }
  }
  return dist;
}

class TopologyConformance : public ::testing::TestWithParam<TopologySpec> {};

TEST_P(TopologyConformance, ArcIndexingIsDenseAndBijective) {
  const auto topo = make_topology(GetParam());
  std::vector<int> seen(topo->num_arcs(), 0);
  std::uint32_t enumerated = 0;
  for (NodeId x = 0; x < topo->num_nodes(); ++x) {
    for (int k = 0; k < topo->out_degree(x); ++k) {
      const ArcId arc = topo->out_arc(x, k);
      ASSERT_LT(arc, topo->num_arcs());
      EXPECT_EQ(topo->arc_source(arc), x) << "arc " << arc;
      ++seen[arc];
      ++enumerated;
    }
  }
  EXPECT_EQ(enumerated, topo->num_arcs());
  for (ArcId a = 0; a < topo->num_arcs(); ++a) {
    EXPECT_EQ(seen[a], 1) << "arc " << a << " enumerated " << seen[a]
                          << " times";
    EXPECT_LT(topo->arc_target(a), topo->num_nodes());
  }
}

TEST_P(TopologyConformance, IncidenceMatchesArcEndpoints) {
  const auto topo = make_topology(GetParam());
  // Oracle: incidence of x = every arc with source or target x.
  std::map<NodeId, std::vector<ArcId>> expected;
  for (ArcId a = 0; a < topo->num_arcs(); ++a) {
    expected[topo->arc_source(a)].push_back(a);
    if (topo->arc_target(a) != topo->arc_source(a)) {
      expected[topo->arc_target(a)].push_back(a);
    }
  }
  for (NodeId x = 0; x < topo->num_nodes(); ++x) {
    std::vector<ArcId> incident;
    topo->append_incident_arcs(x, incident);
    std::sort(incident.begin(), incident.end());
    EXPECT_EQ(incident, expected[x]) << "node " << x;
  }
}

TEST_P(TopologyConformance, MetricEqualsBfsDistance) {
  const auto topo = make_topology(GetParam());
  const auto dist = bfs_distances(*topo);
  int max_metric = 0;
  for (NodeId u = 0; u < topo->num_nodes(); ++u) {
    for (NodeId v = 0; v < topo->num_nodes(); ++v) {
      ASSERT_EQ(topo->metric(u, v), dist[u][v]) << u << " -> " << v;
      max_metric = std::max(max_metric, dist[u][v]);
    }
  }
  EXPECT_EQ(topo->diameter(), max_metric);
}

TEST_P(TopologyConformance, GreedyDescendsAndDeliversInMetricHops) {
  const auto topo = make_topology(GetParam());
  for (NodeId src = 0; src < topo->num_nodes(); ++src) {
    for (NodeId dst = 0; dst < topo->num_nodes(); ++dst) {
      const int m = topo->metric(src, dst);
      if (m <= 0) continue;  // unreachable (butterfly DAG) or src == dst
      NodeId at = src;
      int hops = 0;
      while (at != dst) {
        ASSERT_LE(hops, topo->diameter()) << src << " -> " << dst;
        const int here = topo->metric(at, dst);
        const ArcId arc = topo->greedy_next_arc(at, dst);
        ASSERT_EQ(topo->arc_source(arc), at);
        at = topo->arc_target(arc);
        ASSERT_LT(topo->metric(at, dst), here)
            << "greedy did not descend at " << at;
        ++hops;
      }
      EXPECT_EQ(hops, m) << src << " -> " << dst;
    }
  }
}

// out_arc_descends is the port view deflection and the fault reroute
// policies route over; a family's override must agree with the metric.
TEST_P(TopologyConformance, OutArcDescendsAgreesWithMetric) {
  const auto topo = make_topology(GetParam());
  for (NodeId x = 0; x < topo->num_nodes(); ++x) {
    for (NodeId dest = 0; dest < topo->num_nodes(); ++dest) {
      const int here = topo->metric(x, dest);
      for (int k = 0; k < topo->out_degree(x); ++k) {
        const NodeId head = topo->arc_target(topo->out_arc(x, k));
        EXPECT_EQ(topo->out_arc_descends(x, k, dest),
                  topo->metric(head, dest) < here)
            << x << " port " << k << " toward " << dest;
      }
    }
  }
}

// What the greedy simulator reads besides the graph (terminals, hop
// weights, occupancy groups) must stay inside the topology, and on every
// reachable pair a greedy walk crosses metric() arcs of which exactly
// hop_distance() have hop weight 1.
TEST_P(TopologyConformance, TrafficLayoutIsInRange) {
  const auto topo = make_topology(GetParam());
  const Topology::TrafficLayout layout = topo->traffic_layout();
  ASSERT_GE(layout.num_sources, 1u);
  ASSERT_LE(layout.num_sources, topo->num_nodes());
  ASSERT_LE(std::uint64_t{layout.sink_base} + layout.num_sources,
            topo->num_nodes());
  for (ArcId a = 0; a < topo->num_arcs(); ++a) {
    const int weight = topo->hop_weight(a);
    EXPECT_TRUE(weight == 0 || weight == 1) << "arc " << a;
    EXPECT_LT(topo->occupancy_group(topo->arc_source(a)), layout.num_groups)
        << "arc " << a;
  }
  // Every source reaches every sink.
  for (NodeId src = 0; src < layout.num_sources; ++src) {
    for (NodeId t = 0; t < layout.num_sources; ++t) {
      EXPECT_GE(topo->metric(src, layout.sink_base + t), 0) << src << " -> " << t;
    }
  }
  for (NodeId src = 0; src < topo->num_nodes(); ++src) {
    for (NodeId dst = 0; dst < topo->num_nodes(); ++dst) {
      if (topo->metric(src, dst) < 0) continue;
      NodeId at = src;
      int arcs = 0;
      int hops = 0;
      while (at != dst) {
        const ArcId arc = topo->greedy_next_arc(at, dst);
        hops += topo->hop_weight(arc);
        at = topo->arc_target(arc);
        ++arcs;
      }
      EXPECT_EQ(arcs, topo->metric(src, dst)) << src << " -> " << dst;
      EXPECT_EQ(hops, topo->hop_distance(src, dst)) << src << " -> " << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, TopologyConformance, ::testing::ValuesIn(conformance_specs()),
    [](const ::testing::TestParamInfo<TopologySpec>& info) {
      return spec_label(info.param);
    });

// --- the butterfly's terminals and misrouting ---------------------------

TEST(ButterflyTraffic, TerminalsAreRowsAndOnlyVerticalArcsAreHops) {
  const int d = 3;
  const auto bfly = make_topology({"butterfly", d, "", "4x4"});
  const Topology::TrafficLayout layout = bfly->traffic_layout();
  EXPECT_EQ(layout.num_sources, 8u);
  EXPECT_EQ(layout.sink_base, 3u * 8u);  // level d+1 starts at d*2^d
  EXPECT_EQ(layout.num_groups, 3u);      // levels 1..d
  // The paper's arc layout (§4.1): the d*2^d straight arcs (x; j; s) at
  // (j-1)*2^d + x, then the vertical arcs (x; j; v) in the same order.
  const ArcId straight_arcs = static_cast<ArcId>(d) << d;
  ASSERT_EQ(bfly->num_arcs(), 2 * straight_arcs);
  for (ArcId a = 0; a < bfly->num_arcs(); ++a) {
    const bool vertical = a >= straight_arcs;
    const ArcId level_minus_one = (vertical ? a - straight_arcs : a) >> d;
    EXPECT_EQ(bfly->hop_weight(a), vertical ? 1 : 0);
    EXPECT_EQ(bfly->occupancy_group(bfly->arc_source(a)), level_minus_one);
  }
  for (NodeId src = 0; src < 8; ++src) {
    for (NodeId row = 0; row < 8; ++row) {
      const NodeId sink = layout.sink_base + row;
      EXPECT_EQ(bfly->metric(src, sink), d);
      EXPECT_EQ(bfly->hop_distance(src, sink), hamming_distance(src, row));
    }
  }
}

// A twin detour at any one level leaves the packet's row bit of that level
// wrong for good; greedy_next_arc keeps taking each later level's row-bit
// arc, so the walk still ends after d arcs at the exit level — on the
// wrong row, where the simulator drops it as misrouted.
TEST(ButterflyTraffic, MisroutedWalkEndsAtTheExitLevel) {
  const int d = 3;
  const auto bfly = make_topology({"butterfly", d, "", "4x4"});
  const Topology::TrafficLayout layout = bfly->traffic_layout();
  for (NodeId src = 0; src < layout.num_sources; ++src) {
    for (NodeId row = 0; row < layout.num_sources; ++row) {
      const NodeId sink = layout.sink_base + row;
      for (int detour = 0; detour < d; ++detour) {
        NodeId at = src;
        int arcs = 0;
        while (bfly->out_degree(at) > 0) {
          ArcId arc = bfly->greedy_next_arc(at, sink);
          if (arcs == detour) {
            // The level's other arc: its twin.
            arc = bfly->out_arc(at, bfly->out_arc(at, 0) == arc ? 1 : 0);
          }
          at = bfly->arc_target(arc);
          ++arcs;
        }
        EXPECT_EQ(arcs, d);
        EXPECT_GE(at, layout.sink_base);
        EXPECT_EQ(at, sink ^ (NodeId{1} << detour))
            << src << " -> " << row << " detour at level " << detour + 1;
      }
    }
  }
}

// --- closed forms per family ----------------------------------------------

TEST(TopologyClosedForms, ArcCountsAndDiameters) {
  {
    const auto cube = make_topology({"hypercube", 4, "", "4x4"});
    EXPECT_EQ(cube->num_nodes(), 16u);
    EXPECT_EQ(cube->num_arcs(), 4u * 16u);  // d * 2^d
    EXPECT_EQ(cube->diameter(), 4);
  }
  {
    const auto bfly = make_topology({"butterfly", 3, "", "4x4"});
    EXPECT_EQ(bfly->num_nodes(), 4u * 8u);       // (d+1) * 2^d
    EXPECT_EQ(bfly->num_arcs(), 3u * 16u);       // d * 2^(d+1)
    EXPECT_EQ(bfly->diameter(), 3);
  }
  {
    const auto ring = make_topology({"ring", 4, "", "4x4"});
    EXPECT_EQ(ring->num_nodes(), 16u);
    EXPECT_EQ(ring->num_arcs(), 2u * 16u);  // +1 and -1 classes
    EXPECT_EQ(ring->diameter(), 8);         // n / 2
  }
  {
    // One chord class doubles the arcs and cuts the diameter.
    const auto chords = make_topology({"ring", 5, "8", "4x4"});
    EXPECT_EQ(chords->num_nodes(), 32u);
    EXPECT_EQ(chords->num_arcs(), 4u * 32u);
    EXPECT_EQ(chords->diameter(), 5);  // two +-8 hops then <= 3 steps, x16 worst
  }
  {
    // Papillon ladder: strides 1, 2, 4, ..., 2^(d-2) give a log diameter.
    const auto papillon = make_topology({"ring", 6, "papillon", "4x4"});
    EXPECT_EQ(papillon->num_nodes(), 64u);
    EXPECT_EQ(papillon->num_arcs(), 2u * 5u * 64u);  // d-1 stride classes
    EXPECT_LE(papillon->diameter(), 6);
  }
  {
    const auto torus = make_topology({"torus", 4, "", "4x6"});
    EXPECT_EQ(torus->num_nodes(), 24u);
    EXPECT_EQ(torus->num_arcs(), 4u * 24u);  // 2 arcs per dim per node
    EXPECT_EQ(torus->diameter(), 2 + 3);     // sum of floor(n_i / 2)
  }
  {
    const auto mesh = make_topology({"mesh", 4, "", "4x3"});
    EXPECT_EQ(mesh->num_nodes(), 12u);
    // A k1 x k2 mesh has 2*(k1-1)*k2 + 2*k1*(k2-1) directed arcs.
    EXPECT_EQ(mesh->num_arcs(), 2u * 3u * 3u + 2u * 4u * 2u);
    EXPECT_EQ(mesh->diameter(), 3 + 2);  // sum of (n_i - 1)
  }
}

/// Brute-force uniform congestion: per-arc load summed over all (src, dst)
/// pairs at rate 1/n per pair per source, compared against the pinned
/// uniform_load_per_lambda closed forms.
double brute_force_uniform_load(const Topology& topo) {
  const std::uint32_t n = topo.num_nodes();
  std::vector<double> load(topo.num_arcs(), 0.0);
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      NodeId at = src;
      while (at != dst) {
        const ArcId arc = topo.greedy_next_arc(at, dst);
        load[arc] += 1.0 / static_cast<double>(n);
        at = topo.arc_target(arc);
      }
    }
  }
  double max_load = 0.0;
  for (const double l : load) max_load = std::max(max_load, l);
  return max_load;
}

TEST(TopologyClosedForms, UniformLoadMatchesBruteForce) {
  // Strongly connected families only (the butterfly's uniform law lives on
  // rows, not on the full DAG node set).
  const std::vector<TopologySpec> specs = {
      {"ring", 4, "", "4x4"},          // (n + 2) / 8 = 2.25
      {"ring", 5, "", "4x4"},          // (n + 2) / 8 = 4.25
      {"ring", 5, "4", "4x4"},         // chord sweep constant
      {"ring", 6, "papillon", "4x4"},  // ladder sweep constant
      {"torus", 4, "", "4x4"},         // (4 + 2) / 8 = 0.75
      {"torus", 4, "", "3x5"},         // odd extents: (25 - 1) / 40 = 0.6
      {"mesh", 4, "", "4x3"},          // floor(4/2) * ceil(4/2) / 4 = 1
  };
  for (const auto& spec : specs) {
    const auto topo = make_topology(spec);
    EXPECT_NEAR(topo->uniform_load_per_lambda(),
                brute_force_uniform_load(*topo), 1e-9)
        << spec_label(spec);
  }
  EXPECT_DOUBLE_EQ(make_topology({"ring", 4, "", ""})->uniform_load_per_lambda(),
                   2.25);
  EXPECT_DOUBLE_EQ(make_topology({"torus", 4, "", "4x4"})->uniform_load_per_lambda(),
                   0.75);
  EXPECT_DOUBLE_EQ(make_topology({"torus", 4, "", "3x5"})->uniform_load_per_lambda(),
                   0.6);
  EXPECT_DOUBLE_EQ(make_topology({"mesh", 4, "", "4x3"})->uniform_load_per_lambda(),
                   1.0);
}

TEST(TopologyClosedForms, HypercubeUniformLoadIsHalf) {
  // On the d-cube, arc (x, dim) is crossed by the greedy path from src to
  // dst iff the path visits x with dimension `dim` unresolved — summing
  // over all pairs gives exactly n/2 paths per arc, load 1/2 per unit rate.
  const auto cube = make_topology({"hypercube", 4, "", "4x4"});
  EXPECT_DOUBLE_EQ(cube->uniform_load_per_lambda(), 0.5);
  EXPECT_NEAR(brute_force_uniform_load(*cube), 0.5, 1e-9);
}

// --- adversarial congestion: the tornado on the ring ----------------------

TEST(TopologyCongestion, TornadoOnPlainRingIsThetaN) {
  // pi(x) = x + n/2 - 1: every packet travels clockwise n/2 - 1 hops, so
  // the greedy per-arc congestion is exactly n/2 - 1 = Theta(n) while
  // uniform traffic sits at (n + 2) / 8 — the ring's analogue of the
  // hypercube's transpose collapse.
  for (const int d : {4, 5, 6}) {
    const auto ring = make_topology({"ring", d, "", "4x4"});
    const Permutation tornado = Permutation::tornado(d);
    const CongestionReport report =
        topology_greedy_congestion(*ring, tornado.table());
    const std::uint64_t n = std::uint64_t{1} << d;
    EXPECT_EQ(report.max_load, n / 2 - 1) << "d=" << d;
    // Exactly the n clockwise arcs carry load.
    EXPECT_EQ(report.arcs_used, n) << "d=" << d;
  }
}

TEST(TopologyCongestion, ChordsDefuseTheTornado) {
  // With chord strides the same permutation rides the long chords, so the
  // worst arc load drops far below the plain ring's n/2 - 1.
  const int d = 6;
  const Permutation tornado = Permutation::tornado(d);
  const auto plain = make_topology({"ring", d, "", "4x4"});
  const auto papillon = make_topology({"ring", d, "papillon", "4x4"});
  const auto plain_report = topology_greedy_congestion(*plain, tornado.table());
  const auto papillon_report =
      topology_greedy_congestion(*papillon, tornado.table());
  EXPECT_EQ(plain_report.max_load, 31u);
  EXPECT_LT(papillon_report.max_load, plain_report.max_load / 2);
}

TEST(TopologyCongestion, HypercubeMatchesCanonicalPathOracle) {
  // The generic path walker over the hypercube must reproduce the loads
  // summed over the paper's canonical paths (§3: the required dimensions
  // crossed in increasing order, arc (x, x XOR e_m) at (m-1)*2^d + x)
  // exactly.
  const int d = 5;
  const NodeId nodes = NodeId{1} << d;
  const auto cube = make_topology({"hypercube", d, "", "4x4"});
  for (const auto* family : {"bit_reversal", "transpose", "tornado"}) {
    const Permutation perm = Permutation::by_name(family, d);
    const CongestionReport generic =
        topology_greedy_congestion(*cube, perm.table());
    std::vector<std::uint64_t> load(static_cast<std::size_t>(d) * nodes, 0);
    for (NodeId x = 0; x < nodes; ++x) {
      NodeId cur = x;
      for (int m = 1; m <= d; ++m) {
        if (!has_dimension(cur ^ perm.table()[x], m)) continue;
        ++load[static_cast<std::size_t>(m - 1) * nodes + cur];
        cur = flip_dimension(cur, m);
      }
    }
    std::uint64_t total = 0;
    std::uint64_t used = 0;
    for (const std::uint64_t l : load) {
      total += l;
      used += l > 0 ? 1 : 0;
    }
    EXPECT_EQ(generic.max_load, *std::max_element(load.begin(), load.end()))
        << family;
    EXPECT_EQ(generic.arcs_used, used) << family;
    EXPECT_EQ(generic.num_arcs, load.size()) << family;
    EXPECT_DOUBLE_EQ(generic.mean_load, static_cast<double>(total) /
                                            static_cast<double>(load.size()))
        << family;
  }
}

// --- parsing and factory errors -------------------------------------------

TEST(TopologyFactory, UnknownNameListsFamilies) {
  try {
    (void)make_topology({"moebius", 4, "", "4x4"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown topology 'moebius'"), std::string::npos);
    EXPECT_NE(message.find("ring"), std::string::npos);
    EXPECT_NE(message.find("torus"), std::string::npos);
  }
}

TEST(TopologyFactory, RingChordsValidation) {
  EXPECT_EQ(parse_ring_chords("", 4), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(parse_ring_chords("papillon", 4),
            (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(parse_ring_chords("4,2", 4), (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_THROW((void)parse_ring_chords("1", 4), std::invalid_argument);
  EXPECT_THROW((void)parse_ring_chords("8", 4), std::invalid_argument);  // > n/2-1
  EXPECT_THROW((void)parse_ring_chords("2,2", 4), std::invalid_argument);
  EXPECT_THROW((void)parse_ring_chords("2,x", 4), std::invalid_argument);
  EXPECT_THROW((void)parse_ring_chords("", 1), std::invalid_argument);  // d range
}

TEST(TopologyFactory, TorusDimsValidation) {
  EXPECT_EQ(parse_torus_dims("4x4"), (std::vector<std::uint32_t>{4, 4}));
  EXPECT_EQ(parse_torus_dims("3x5x2"), (std::vector<std::uint32_t>{3, 5, 2}));
  EXPECT_THROW((void)parse_torus_dims("4"), std::invalid_argument);
  EXPECT_THROW((void)parse_torus_dims("4x4x4x4"), std::invalid_argument);
  EXPECT_THROW((void)parse_torus_dims("1x4"), std::invalid_argument);
  EXPECT_THROW((void)parse_torus_dims("4x"), std::invalid_argument);
  EXPECT_THROW((void)parse_torus_dims("axb"), std::invalid_argument);
  EXPECT_THROW((void)parse_torus_dims("256x256x256"), std::invalid_argument);
}

TEST(TopologyFactory, SummariesExistForEveryFamily) {
  for (const auto& name : topology_names()) {
    EXPECT_FALSE(topology_summary(name).empty()) << name;
  }
  EXPECT_THROW((void)topology_summary("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace routesim
