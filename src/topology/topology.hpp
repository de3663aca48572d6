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
/// Families: "hypercube" and "butterfly" (the paper's two networks,
/// HypercubeTopology and ButterflyTopology below), "ring" (with
/// chord strides / the papillon ladder, topology/ring.hpp) and "torus" /
/// "mesh" (topology/torus.hpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"  // NodeId

namespace routesim {

/// Dense identifier of a directed arc, in [0, Topology::num_arcs()).
using ArcId = std::uint32_t;

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

/// The paper's d-cube (§1.1).  Nodes are 0 .. 2^d - 1, the binary identity
/// of node z being its binary representation (z_d, ..., z_1); the directed
/// arc (x, x XOR e_m) is "of the m-th type", and the arcs of type m form
/// the m-th *dimension*.  Arcs are grouped by dimension (arc_index), so
/// the index doubles as the level index of the equivalent network Q
/// (§3.1).  out_arc(x, k) is the dimension-(k+1) arc, so greedy descent
/// crosses the lowest required dimension first (the canonical path of
/// §3) — the paper's greedy scheme step for step.  It is final and
/// defined inline so the routing loops, instantiated on it through
/// with_concrete_topology(), compile to shift arithmetic with no virtual
/// call.
class HypercubeTopology final : public Topology {
 public:
  /// Precondition: 1 <= d <= 26 (arc ids must fit in 32 bits).
  explicit HypercubeTopology(int d) : d_(d) {
    RS_EXPECTS_MSG(d >= 1 && d <= 26, "hypercube dimension must be in [1, 26]");
    num_nodes_ = NodeId{1} << d;
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "hypercube";
    return kName;
  }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept override {
    return num_nodes_;
  }
  [[nodiscard]] std::uint32_t num_arcs() const noexcept override {
    return static_cast<std::uint32_t>(d_) << d_;
  }

  /// Index of arc (x, x XOR e_dim): (dim-1) * 2^d + x, a bijection onto
  /// [0, d*2^d).
  [[nodiscard]] ArcId arc_index(NodeId x, int dim) const {
    RS_DASSERT(x < num_nodes_ && dim >= 1 && dim <= d_);
    return static_cast<ArcId>(dim - 1) * num_nodes_ + x;
  }
  [[nodiscard]] NodeId arc_source(ArcId a) const override {
    RS_DASSERT(a < num_arcs());
    return a & (num_nodes_ - 1u);
  }
  /// The source with the identity bit of the arc's dimension flipped.
  [[nodiscard]] NodeId arc_target(ArcId a) const override {
    return arc_source(a) ^ (NodeId{1} << (a >> d_));
  }
  [[nodiscard]] int out_degree(NodeId /*x*/) const override { return d_; }
  [[nodiscard]] ArcId out_arc(NodeId x, int k) const override {
    RS_DASSERT(k >= 0 && k < d_);
    return arc_index(x, k + 1);
  }
  /// The out-arc and the in-arc of each dimension, in dimension order.
  void append_incident_arcs(NodeId x, std::vector<ArcId>& out) const override {
    RS_DASSERT(x < num_nodes_);
    for (int dim = 1; dim <= d_; ++dim) {
      out.push_back(arc_index(x, dim));
      out.push_back(arc_index(flip_dimension(x, dim), dim));
    }
  }
  /// The Hamming distance (§1.1).
  [[nodiscard]] int metric(NodeId from, NodeId to) const override {
    RS_DASSERT(from < num_nodes_ && to < num_nodes_);
    return hamming_distance(from, to);
  }
  [[nodiscard]] int diameter() const override { return d_; }
  [[nodiscard]] ArcId greedy_next_arc(NodeId cur, NodeId dest) const override {
    RS_DASSERT(cur != dest);
    return arc_index(cur, lowest_dimension(cur ^ dest));
  }
  /// Port k descends exactly when x and dest differ in dimension k+1.
  [[nodiscard]] bool out_arc_descends(NodeId x, int k,
                                      NodeId dest) const override {
    return has_dimension(x ^ dest, k + 1);
  }
  [[nodiscard]] int hop_distance(NodeId from, NodeId to) const override {
    return metric(from, to);
  }
  /// Each of the d*2^d arcs is crossed by a uniform-destination packet with
  /// probability 1/2 per dimension, so the per-arc load is lambda/2.
  [[nodiscard]] double uniform_load_per_lambda() const override { return 0.5; }

 private:
  int d_;
  std::uint32_t num_nodes_ = 0;
};

/// The paper's d-dimensional butterfly (§4.1), the d-cube unfolded: d+1
/// levels of 2^d rows.  Node [x; j] of level j <= d connects to [x; j+1]
/// by the *straight* arc (x; j; s) and to [x XOR e_j; j+1] by the
/// *vertical* arc (x; j; v).  Node [x; j] has index (j-1)*2^d + x, and
/// arcs come straight first (arc_index): a straight arc's index is its
/// source node, a vertical arc's is its source plus d*2^d, so every
/// adjacency below is shift arithmetic.  The graph is a DAG (packets only
/// descend levels), so metric() is partial: (r1, l1) reaches (r2, l2) iff
/// l2 >= l1 and the rows agree outside the crossed levels l1..l2-1, in
/// which case the distance is exactly l2 - l1.  A packet enters at a
/// level-1 node and leaves at its row's level-(d+1) node after exactly d
/// arcs, vertical exactly at the levels where origin and destination rows
/// differ; only the vertical ones count as hops.  Final and inline, like
/// the cube.
class ButterflyTopology final : public Topology {
 public:
  enum class ArcKind : std::uint8_t { kStraight, kVertical };

  /// Precondition: 1 <= d <= 25.
  explicit ButterflyTopology(int d) : d_(d) {
    RS_EXPECTS_MSG(d >= 1 && d <= 25, "butterfly dimension must be in [1, 25]");
    rows_ = std::uint32_t{1} << d;
    verticals_ = static_cast<ArcId>(d) << d;
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "butterfly";
    return kName;
  }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept override {
    return verticals_ + rows_;
  }
  /// d levels of 2^d straight plus 2^d vertical arcs.
  [[nodiscard]] std::uint32_t num_arcs() const noexcept override {
    return 2u * verticals_;
  }

  /// Index of the arc (row; level; kind), level in [1, d]:
  ///   (x; j; s) -> (j-1) * 2^d + x
  ///   (x; j; v) -> d * 2^d + (j-1) * 2^d + x
  [[nodiscard]] ArcId arc_index(NodeId row, int level, ArcKind kind) const {
    RS_DASSERT(row < rows_ && level >= 1 && level <= d_);
    const ArcId base = kind == ArcKind::kStraight ? 0u : verticals_;
    return base + (static_cast<ArcId>(level - 1) << d_) + row;
  }
  [[nodiscard]] NodeId arc_source(ArcId a) const override {
    RS_DASSERT(a < num_arcs());
    return a >= verticals_ ? a - verticals_ : a;
  }
  [[nodiscard]] NodeId arc_target(ArcId a) const override {
    const ArcId vertical = a >= verticals_ ? 1u : 0u;
    const NodeId source = a - vertical * verticals_;
    return (source + rows_) ^ (vertical << (source >> d_));
  }
  [[nodiscard]] int out_degree(NodeId x) const override {
    return x < verticals_ ? 2 : 0;
  }
  /// Port 0 is the straight arc, port 1 the vertical one.
  [[nodiscard]] ArcId out_arc(NodeId x, int k) const override {
    RS_DASSERT(k >= 0 && k < out_degree(x));
    return x + static_cast<ArcId>(k) * verticals_;
  }
  /// The out-arcs (levels 1..d: straight, then vertical), then the in-arcs
  /// (levels 2..d+1: the straight arc from the same row, then the vertical
  /// arc from the row differing in bit level-1).
  void append_incident_arcs(NodeId x, std::vector<ArcId>& out) const override {
    RS_DASSERT(x < num_nodes());
    const int level = level_of(x);
    const NodeId row = row_of(x);
    if (level <= d_) {
      out.push_back(arc_index(row, level, ArcKind::kStraight));
      out.push_back(arc_index(row, level, ArcKind::kVertical));
    }
    if (level >= 2) {
      out.push_back(arc_index(row, level - 1, ArcKind::kStraight));
      out.push_back(arc_index(flip_dimension(row, level - 1), level - 1,
                              ArcKind::kVertical));
    }
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
    return {rows_, verticals_, static_cast<std::uint32_t>(d_)};
  }
  /// Level-1 injection to a uniform exit row crosses each level once and
  /// picks straight or vertical with probability 1/2 each (Lemma 3.1's
  /// uniformity), so every arc carries lambda/2.
  [[nodiscard]] double uniform_load_per_lambda() const override { return 0.5; }

 private:
  [[nodiscard]] int level_of(NodeId x) const { return static_cast<int>(x >> d_) + 1; }
  [[nodiscard]] NodeId row_of(NodeId x) const { return x & (rows_ - 1u); }

  int d_;
  std::uint32_t rows_ = 0;  ///< 2^d
  ArcId verticals_ = 0;  ///< d*2^d: the first vertical arc, and the exit level's first node
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
