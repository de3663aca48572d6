#pragma once
/// \file topology.hpp
/// \brief The topology concept: the abstract network interface the
///        topology-parametric routing schemes (routing/topology_greedy.hpp)
///        and the conformance kit (tests/test_topology_conformance.cpp)
///        program against.
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
///     delivery takes exactly metric(u, v) <= diameter() hops;
///   - diameter() is the maximum metric over reachable pairs;
///   - uniform_load_per_lambda() is the heaviest per-arc utilisation per
///     unit per-node rate under uniform destinations and greedy routing
///     (the load-factor rule for topology-parametric scenarios; the
///     closed forms per family are pinned in the conformance tests and
///     documented in docs/TOPOLOGIES.md).
///
/// Families: "hypercube" and "butterfly" (adapters over the paper's
/// classes; the hypercube adapter is HypercubeTopology below), "ring"
/// (with chord strides / the papillon ladder, topology/ring.hpp) and
/// "torus" / "mesh" (topology/torus.hpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
  /// Each of the d*2^d arcs is crossed by a uniform-destination packet with
  /// probability 1/2 per dimension, so the per-arc load is lambda/2.
  [[nodiscard]] double uniform_load_per_lambda() const override { return 0.5; }

 private:
  Hypercube cube_;
};

/// Calls `fn` with the concrete HypercubeTopology when `topo` is one, and
/// with the Topology interface otherwise: one routing loop, written once
/// as a template on its topology argument, runs devirtualised on the
/// paper's cube and through virtual calls on every other family.
template <typename Fn>
decltype(auto) with_concrete_topology(const Topology& topo, Fn&& fn) {
  if (const auto* cube = dynamic_cast<const HypercubeTopology*>(&topo)) {
    return fn(*cube);
  }
  return fn(topo);
}

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
