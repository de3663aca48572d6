#pragma once
/// \file butterfly.hpp
/// \brief The d-dimensional butterfly network (§4.1 of the paper).
///
/// The butterfly is the "unfolded" d-cube: (d+1) levels of 2^d nodes each.
/// Node [x; j] of level j (j = 1 .. d+1) connects to [x; j+1] via a
/// *straight* arc (x; j; s) and to [x XOR e_j; j+1] via a *vertical* arc
/// (x; j; v).  Packets enter at level 1 and exit at level d+1; for each
/// origin-destination pair there is a unique path of exactly d arcs, whose
/// vertical arcs correspond to the dimensions crossed by the hypercube
/// greedy scheme in increasing index order.

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace routesim {

/// Dense identifier of a butterfly arc; see Butterfly::arc_index.
using BflyArcId = std::uint32_t;

class Butterfly {
 public:
  enum class ArcKind : std::uint8_t { kStraight, kVertical };

  /// Constructs the d-dimensional butterfly.  Precondition: 1 <= d <= 25.
  explicit Butterfly(int d);

  [[nodiscard]] int dimension() const noexcept { return d_; }
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] int num_levels() const noexcept { return d_ + 1; }
  [[nodiscard]] std::uint64_t num_nodes() const noexcept {
    return static_cast<std::uint64_t>(d_ + 1) * rows_;
  }
  /// d * 2^(d+1) arcs: d levels of 2^d straight plus 2^d vertical arcs.
  [[nodiscard]] std::uint32_t num_arcs() const noexcept { return num_arcs_; }

  /// Arc indexing: all straight arcs first (grouped by level), then all
  /// vertical arcs (grouped by level):
  ///   (x; j; s) -> (j-1) * 2^d + x
  ///   (x; j; v) -> d * 2^d + (j-1) * 2^d + x
  [[nodiscard]] BflyArcId arc_index(NodeId row, int level, ArcKind kind) const {
    RS_DASSERT(row < rows_ && level >= 1 && level <= d_);
    const auto base = kind == ArcKind::kStraight ? 0u : straight_count_;
    return base + static_cast<BflyArcId>(level - 1) * rows_ + row;
  }

  [[nodiscard]] ArcKind arc_kind(BflyArcId a) const {
    RS_DASSERT(a < num_arcs_);
    return a < straight_count_ ? ArcKind::kStraight : ArcKind::kVertical;
  }

  /// Level (1-based) of the arc's tail node.
  [[nodiscard]] int arc_level(BflyArcId a) const {
    RS_DASSERT(a < num_arcs_);
    const BflyArcId within = a < straight_count_ ? a : a - straight_count_;
    return static_cast<int>(within / rows_) + 1;
  }

  /// Row of the arc's tail node.
  [[nodiscard]] NodeId arc_row(BflyArcId a) const {
    RS_DASSERT(a < num_arcs_);
    const BflyArcId within = a < straight_count_ ? a : a - straight_count_;
    return within & (rows_ - 1u);
  }

  /// Row of the arc's head node (level arc_level(a) + 1).
  [[nodiscard]] NodeId arc_target_row(BflyArcId a) const {
    const NodeId row = arc_row(a);
    return arc_kind(a) == ArcKind::kStraight ? row
                                             : flip_dimension(row, arc_level(a));
  }

  /// The unique path from [origin_row; 1] to [dest_row; d+1]: d arcs, one
  /// per level, vertical exactly at the levels where origin and destination
  /// rows differ.
  [[nodiscard]] std::vector<BflyArcId> path(NodeId origin_row, NodeId dest_row) const;

  /// Appends every arc incident to the node with dense index `node` — its
  /// out-arcs (levels 1..d have a straight and a vertical one) and its
  /// in-arcs (levels 2..d+1: the straight arc from the same row and the
  /// vertical arc from the row differing in bit level-1) — to `out`.
  /// Nodes are grouped by level: [row; level] has index
  /// (level-1) * 2^d + row, a bijection onto [0, (d+1)*2^d).
  void append_incident_arcs(std::uint32_t node, std::vector<BflyArcId>& out) const {
    const int level = static_cast<int>(node / rows_) + 1;
    const NodeId row = node & (rows_ - 1u);
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

 private:
  int d_;
  std::uint32_t rows_;
  std::uint32_t straight_count_;
  std::uint32_t num_arcs_;
};

}  // namespace routesim
