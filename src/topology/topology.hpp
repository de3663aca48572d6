#pragma once
/// \file topology.hpp
/// \brief The topology concept: the abstract network interface the one
///        greedy simulator (routing/topology_greedy.hpp) and the conformance
///        kit (tests/test_topology_conformance.cpp) program against.
///
/// A `Topology` is a finite directed multigraph with a dense arc indexing
/// plus the two ingredients greedy routing needs: a *metric* (the
/// shortest-path potential a packet descends) and a *greedy next arc*
/// (the out-arc whose head is metric-closest to the destination).  The
/// contract, checked exhaustively by the conformance kit:
///
///   - arcs are indexed densely and bijectively in [0, num_arcs());
///     out_arc(x, 0..out_degree(x)) enumerates exactly the arcs with
///     arc_source == x;
///   - append_incident_arcs(x) lists exactly the arcs with source or
///     target x (the enumeration a node fault uses to take its arcs down,
///     fault/fault_model.hpp);
///   - metric(u, v) is the directed shortest-path length, -1 when v is
///     unreachable from u (the butterfly is a DAG);
///   - greedy_next_arc(u, v) (precondition: metric(u, v) > 0) returns an
///     out-arc of u whose head strictly decreases the metric, so greedy
///     delivery takes exactly metric(u, v) <= diameter() hops.  The
///     butterfly also defines it for an unreachable v on a later level (a
///     packet a fault detour misrouted keeps taking its level's row-bit
///     arc down to the exit level);
///   - diameter() is the maximum metric over reachable pairs;
///   - traffic_layout() says where packets enter and leave; hop_weight()
///     which arcs count as hops (hop_distance(u, v) of them on a greedy
///     path); occupancy_group() how nodes group for occupancy tracking;
///   - uniform_load_per_lambda() is the heaviest per-arc utilisation per
///     unit per-node rate under uniform destinations and greedy routing
///     (the load-factor rule for topology-parametric scenarios; the
///     closed forms per family are pinned in the conformance tests and
///     documented in docs/TOPOLOGIES.md).
///
/// Families: "hypercube" and "butterfly" (adapters over the paper's
/// classes, HypercubeTopology and ButterflyTopology below), "ring" (with
/// chord strides / the papillon ladder, topology/ring.hpp) and "torus" /
/// "mesh" (topology/torus.hpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "topology/butterfly.hpp"
#include "topology/hypercube.hpp"  // ArcId, NodeId
#include "util/bits.hpp"

namespace routesim {

class Topology {
 public:
  virtual ~Topology() = default;

  /// Family name as registered with make_topology (see topology_names()).
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  [[nodiscard]] virtual std::uint32_t num_nodes() const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t num_arcs() const noexcept = 0;

  [[nodiscard]] virtual NodeId arc_source(ArcId a) const = 0;
  [[nodiscard]] virtual NodeId arc_target(ArcId a) const = 0;

  /// Number of out-arcs of x (constant for vertex-transitive families,
  /// position-dependent on the mesh boundary and the butterfly exit level).
  [[nodiscard]] virtual int out_degree(NodeId x) const = 0;

  /// The k-th out-arc of x, k in [0, out_degree(x)).  The order is the
  /// family's canonical one and doubles as the greedy tie-break order.
  [[nodiscard]] virtual ArcId out_arc(NodeId x, int k) const = 0;

  /// Appends every arc incident to x (out-arcs then in-arcs).
  virtual void append_incident_arcs(NodeId x, std::vector<ArcId>& out) const = 0;

  /// Directed shortest-path length from `from` to `to`; -1 = unreachable.
  [[nodiscard]] virtual int metric(NodeId from, NodeId to) const = 0;

  /// max metric over reachable pairs.
  [[nodiscard]] virtual int diameter() const = 0;

  /// The greedy routing decision: an out-arc of `cur` whose head strictly
  /// decreases metric(., dest).  Precondition: metric(cur, dest) > 0.
  [[nodiscard]] virtual ArcId greedy_next_arc(NodeId cur, NodeId dest) const = 0;

  /// Whether out_arc(x, k) strictly decreases metric(., dest): the
  /// productive ports of deflection and the candidates the fault reroute
  /// policies (fault/fault_routing.hpp) try first.  Derived from metric();
  /// a family with a cheaper test overrides it.
  [[nodiscard]] virtual bool out_arc_descends(NodeId x, int k, NodeId dest) const {
    return metric(arc_target(out_arc(x, k)), dest) < metric(x, dest);
  }

  /// 1 when crossing `a` counts as a hop, else 0.  Every arc is a hop
  /// except the butterfly's straight arcs.
  [[nodiscard]] virtual int hop_weight(ArcId /*a*/) const { return 1; }

  /// Hops on a greedy path from `from` to a reachable `to`: the arcs of
  /// hop weight 1 among its metric(from, to) arcs — the baseline of the
  /// path-stretch statistic.
  [[nodiscard]] virtual int hop_distance(NodeId from, NodeId to) const {
    return metric(from, to);
  }

  /// The occupancy tracker that packets queued at x count toward, in
  /// [0, traffic_layout().num_groups): x itself, or its level on the
  /// butterfly.
  [[nodiscard]] virtual std::uint32_t occupancy_group(NodeId x) const {
    return x;
  }

  /// Where traffic enters and leaves.  Every family but the butterfly
  /// routes node to node and tracks each node on its own.
  struct TrafficLayout {
    /// Packets are born at the nodes [0, num_sources); sources, the
    /// destination law, permutation tables and traces index these
    /// terminals.
    std::uint32_t num_sources = 0;
    /// A packet for terminal t leaves the network at node sink_base + t.
    NodeId sink_base = 0;
    /// The number of occupancy groups (see occupancy_group).
    std::uint32_t num_groups = 0;
  };
  [[nodiscard]] virtual TrafficLayout traffic_layout() const {
    return {num_nodes(), 0, num_nodes()};
  }

  /// Heaviest per-arc utilisation per unit per-node generation rate under
  /// uniform destinations: lambda * uniform_load_per_lambda() < 1 is the
  /// stability condition of the corresponding dynamic experiment.
  [[nodiscard]] virtual double uniform_load_per_lambda() const = 0;
};

/// Adapter over the paper's Hypercube: out_arc(x, k) is the dimension-(k+1)
/// arc, so greedy descent crosses the lowest required dimension first (the
/// canonical path of §3) — the paper's greedy scheme step for step.  It is
/// final and defined inline so the routing loops, instantiated on it
/// through with_concrete_topology(), compile to the Hypercube arithmetic
/// with no virtual call.
class HypercubeTopology final : public Topology {
 public:
  explicit HypercubeTopology(int d) : cube_(d) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "hypercube";
    return kName;
  }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept override {
    return cube_.num_nodes();
  }
  [[nodiscard]] std::uint32_t num_arcs() const noexcept override {
    return cube_.num_arcs();
  }
  [[nodiscard]] NodeId arc_source(ArcId a) const override {
    return cube_.arc_source(a);
  }
  [[nodiscard]] NodeId arc_target(ArcId a) const override {
    return cube_.arc_target(a);
  }
  [[nodiscard]] int out_degree(NodeId x) const override {
    return cube_.out_degree(x);
  }
  [[nodiscard]] ArcId out_arc(NodeId x, int k) const override {
    return cube_.out_arc(x, k);
  }
  void append_incident_arcs(NodeId x, std::vector<ArcId>& out) const override {
    cube_.append_incident_arcs(x, out);
  }
  [[nodiscard]] int metric(NodeId from, NodeId to) const override {
    return cube_.distance(from, to);
  }
  [[nodiscard]] int diameter() const override { return cube_.dimension(); }
  [[nodiscard]] ArcId greedy_next_arc(NodeId cur, NodeId dest) const override {
    RS_DASSERT(cur != dest);
    return cube_.arc_index(cur, lowest_dimension(cur ^ dest));
  }
  [[nodiscard]] bool out_arc_descends(NodeId x, int k,
                                      NodeId dest) const override {
    return cube_.out_arc_descends(x, k, dest);
  }
  [[nodiscard]] int hop_distance(NodeId from, NodeId to) const override {
    return cube_.distance(from, to);
  }
  /// Each of the d*2^d arcs is crossed by a uniform-destination packet with
  /// probability 1/2 per dimension, so the per-arc load is lambda/2.
  [[nodiscard]] double uniform_load_per_lambda() const override { return 0.5; }

 private:
  Hypercube cube_;
};

/// Adapter over the paper's Butterfly, the d-cube unfolded (§4).  Nodes
/// are indexed (level-1)*2^d + row, as in Butterfly::append_incident_arcs,
/// and arcs by Butterfly::arc_index, straight arcs first: a straight
/// arc's index is its source node, a vertical arc's is its source plus
/// d*2^d, so every adjacency below is shift arithmetic.  The graph is a
/// DAG (packets only descend levels), so metric() is partial: (r1, l1)
/// reaches (r2, l2) iff l2 >= l1 and the rows agree outside the crossed
/// levels l1..l2-1, in which case the distance is exactly l2 - l1.  A
/// packet enters at a level-1 node and leaves at its row's level-(d+1)
/// node after exactly d arcs; only the vertical ones count as hops, one
/// per row bit the packet corrects.  Final and inline, like the cube.
class ButterflyTopology final : public Topology {
 public:
  explicit ButterflyTopology(int d)
      : bfly_(d), d_(d), verticals_(static_cast<ArcId>(d) << d) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "butterfly";
    return kName;
  }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept override {
    return verticals_ + bfly_.rows();
  }
  [[nodiscard]] std::uint32_t num_arcs() const noexcept override {
    return bfly_.num_arcs();
  }
  [[nodiscard]] NodeId arc_source(ArcId a) const override {
    return a >= verticals_ ? a - verticals_ : a;
  }
  [[nodiscard]] NodeId arc_target(ArcId a) const override {
    const ArcId vertical = a >= verticals_ ? 1u : 0u;
    const NodeId source = a - vertical * verticals_;
    return (source + bfly_.rows()) ^ (vertical << (source >> d_));
  }
  [[nodiscard]] int out_degree(NodeId x) const override {
    return x < verticals_ ? 2 : 0;
  }
  /// Port 0 is the straight arc, port 1 the vertical one.
  [[nodiscard]] ArcId out_arc(NodeId x, int k) const override {
    RS_DASSERT(k >= 0 && k < out_degree(x));
    return x + static_cast<ArcId>(k) * verticals_;
  }
  void append_incident_arcs(NodeId x, std::vector<ArcId>& out) const override {
    bfly_.append_incident_arcs(x, out);
  }
  [[nodiscard]] int metric(NodeId from, NodeId to) const override {
    const int l1 = level_of(from);
    const int l2 = level_of(to);
    if (l2 < l1) return -1;
    // Crossing levels l1..l2-1 can flip exactly the identity bits l1..l2-1
    // of the row; every other bit must already agree.
    const NodeId diff = row_of(from) ^ row_of(to);
    const NodeId crossable =
        ((NodeId{1} << (l2 - 1)) - 1u) ^ ((NodeId{1} << (l1 - 1)) - 1u);
    return (diff & ~crossable) == 0 ? l2 - l1 : -1;
  }
  [[nodiscard]] int diameter() const override { return d_; }
  /// The level's row-bit arc: vertical iff the row bit of this level
  /// differs from dest's.  Defined whenever dest lies on a later level.
  [[nodiscard]] ArcId greedy_next_arc(NodeId cur, NodeId dest) const override {
    RS_DASSERT((cur >> d_) < (dest >> d_));
    return cur + (((cur ^ dest) >> (cur >> d_)) & 1u) * verticals_;
  }
  /// The vertical arcs are the hops.
  [[nodiscard]] int hop_weight(ArcId a) const override {
    return a >= verticals_ ? 1 : 0;
  }
  [[nodiscard]] int hop_distance(NodeId from, NodeId to) const override {
    return hamming_distance(row_of(from), row_of(to));
  }
  /// Occupancy is tracked per level 1..d (the levels with out-arcs).
  [[nodiscard]] std::uint32_t occupancy_group(NodeId x) const override {
    return x >> d_;
  }
  /// Terminals are the 2^d rows, born at level 1 and leaving at d+1.
  [[nodiscard]] TrafficLayout traffic_layout() const override {
    return {bfly_.rows(), verticals_, static_cast<std::uint32_t>(d_)};
  }
  /// Level-1 injection to a uniform exit row crosses each level once and
  /// picks straight or vertical with probability 1/2 each (Lemma 3.1's
  /// uniformity), so every arc carries lambda/2.
  [[nodiscard]] double uniform_load_per_lambda() const override { return 0.5; }

 private:
  [[nodiscard]] int level_of(NodeId x) const { return static_cast<int>(x >> d_) + 1; }
  [[nodiscard]] NodeId row_of(NodeId x) const { return x & (bfly_.rows() - 1u); }

  Butterfly bfly_;
  int d_;
  ArcId verticals_;  ///< d*2^d: the first vertical arc, and the exit level's first node
};

/// Calls `fn` with the concrete HypercubeTopology or ButterflyTopology
/// when `topo` is one, and with the Topology interface otherwise: one
/// routing loop, written once as a template on its topology argument, runs
/// devirtualised on the paper's two networks and through virtual calls on
/// every other family.
template <typename Fn>
decltype(auto) with_concrete_topology(const Topology& topo, Fn&& fn) {
  if (const auto* cube = dynamic_cast<const HypercubeTopology*>(&topo)) {
    return fn(*cube);
  }
  if (const auto* bfly = dynamic_cast<const ButterflyTopology*>(&topo)) {
    return fn(*bfly);
  }
  return fn(topo);
}

/// The dimensions make_topology builds the cube and the butterfly for;
/// Scenario rejects a d outside them on every scheme.
inline constexpr int kMinDimension = 1;
inline constexpr int kMaxDimension = 20;

/// Everything make_topology needs: the family name plus the per-family
/// size knobs, mirroring the Scenario keys topology= / d= / ring_chords= /
/// torus_dims= (core/scenario.hpp).
struct TopologySpec {
  std::string name = "hypercube";
  int d = 4;                      ///< hypercube/butterfly dimension; ring has 2^d nodes
  std::string ring_chords;        ///< "", "papillon", or a CSV of strides >= 2
  std::string torus_dims = "4x4"; ///< "AxB" or "AxBxC", each extent >= 2
};

/// Every family name make_topology accepts, in catalog order:
/// hypercube, butterfly, ring, torus, mesh.
[[nodiscard]] const std::vector<std::string>& topology_names();

/// One-line description of a family (for --list and the generated scenario
/// reference); throws std::invalid_argument for unknown names.
[[nodiscard]] const std::string& topology_summary(const std::string& name);

/// Builds the topology a spec describes.  Throws std::invalid_argument on
/// an unknown family name (with a did-you-mean suggestion), a malformed
/// ring_chords / torus_dims string, or an out-of-range size.
[[nodiscard]] std::unique_ptr<const Topology> make_topology(
    const TopologySpec& spec);

/// Parses "AxB" / "AxBxC" into per-dimension extents.  Throws
/// std::invalid_argument unless there are 2 or 3 extents, each in
/// [2, 256], with at most 2^20 nodes in total.
[[nodiscard]] std::vector<std::uint32_t> parse_torus_dims(
    const std::string& text);

}  // namespace routesim
