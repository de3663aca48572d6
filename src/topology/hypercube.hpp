#pragma once
/// \file hypercube.hpp
/// \brief The d-dimensional binary hypercube (§1.1 of the paper).
///
/// Nodes are numbered 0 .. 2^d - 1; the binary identity of node z is its
/// binary representation (z_d, ..., z_1).  Every arc is directed and connects
/// two nodes differing in exactly one identity bit; the arc (x, x XOR e_m)
/// is "of the m-th type", and the set of all arcs of type m is the m-th
/// *dimension*.  The class provides a dense arc indexing used by all
/// simulators: arcs of dimension 1 come first, then dimension 2, etc., so
/// the index doubles as the level index of the equivalent network Q (§3.1).

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace routesim {

/// Dense identifier of a directed hypercube arc; see Hypercube::arc_index.
using ArcId = std::uint32_t;

class Hypercube {
 public:
  /// Constructs the d-cube.  Precondition: 1 <= d <= 26 (arc ids must fit
  /// in 32 bits; simulations use d <= 12).
  explicit Hypercube(int d);

  [[nodiscard]] int dimension() const noexcept { return d_; }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::uint32_t num_arcs() const noexcept { return num_arcs_; }

  /// Index of arc (x, x XOR e_dim): arcs are grouped by dimension, so
  /// arc_index = (dim-1) * 2^d + x.  This is a bijection onto [0, d*2^d).
  [[nodiscard]] ArcId arc_index(NodeId x, int dim) const {
    RS_DASSERT(valid_node(x) && dim >= 1 && dim <= d_);
    return static_cast<ArcId>(dim - 1) * num_nodes_ + x;
  }

  /// Source node of an arc.
  [[nodiscard]] NodeId arc_source(ArcId a) const {
    RS_DASSERT(a < num_arcs_);
    return a & (num_nodes_ - 1u);
  }

  /// Dimension (1-based) of an arc.
  [[nodiscard]] int arc_dimension(ArcId a) const {
    RS_DASSERT(a < num_arcs_);
    return static_cast<int>(a >> d_) + 1;
  }

  /// Head node of an arc: source XOR e_dimension.
  [[nodiscard]] NodeId arc_target(ArcId a) const {
    return flip_dimension(arc_source(a), arc_dimension(a));
  }

  [[nodiscard]] bool valid_node(NodeId x) const noexcept { return x < num_nodes_; }

  // The port view of the Topology concept (topology/topology.hpp), which
  // the fault reroute policies (fault/fault_routing.hpp) route over: port
  // k of x is its dimension-(k+1) arc, and it descends toward `dest`
  // exactly when x and dest differ in that dimension.
  [[nodiscard]] int out_degree(NodeId) const noexcept { return d_; }
  [[nodiscard]] ArcId out_arc(NodeId x, int k) const {
    RS_DASSERT(k >= 0 && k < d_);
    return arc_index(x, k + 1);
  }
  [[nodiscard]] bool out_arc_descends(NodeId x, int k, NodeId dest) const noexcept {
    return has_dimension(x ^ dest, k + 1);
  }

  /// Hamming distance between two nodes (shortest-path length).
  [[nodiscard]] int distance(NodeId x, NodeId z) const {
    RS_DASSERT(valid_node(x) && valid_node(z));
    return hamming_distance(x, z);
  }

  /// The canonical (greedy) path from x to z: the unique shortest path that
  /// crosses the required dimensions in increasing index order (§3).
  /// Returns the sequence of arcs traversed; empty when x == z.
  [[nodiscard]] std::vector<ArcId> canonical_path(NodeId x, NodeId z) const;

  /// The dimensions a packet from x to z must cross, in increasing order.
  [[nodiscard]] std::vector<int> required_dimensions(NodeId x, NodeId z) const;

  /// All d out-neighbours of x, ordered by dimension.
  [[nodiscard]] std::vector<NodeId> neighbours(NodeId x) const;

  /// Appends every arc incident to x — the d out-arcs (x, dim) and the d
  /// in-arcs (x XOR e_dim, dim) — to `out`, in dimension order.  This is
  /// the enumeration a node fault uses to take its arcs down
  /// (fault/fault_model.hpp).
  void append_incident_arcs(NodeId x, std::vector<ArcId>& out) const {
    RS_DASSERT(valid_node(x));
    for (int dim = 1; dim <= d_; ++dim) {
      out.push_back(arc_index(x, dim));
      out.push_back(arc_index(flip_dimension(x, dim), dim));
    }
  }

 private:
  int d_;
  std::uint32_t num_nodes_;
  std::uint32_t num_arcs_;
};

}  // namespace routesim
