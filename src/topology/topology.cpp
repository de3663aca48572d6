#include "topology/topology.hpp"

#include <algorithm>
#include <stdexcept>

#include "topology/butterfly.hpp"
#include "topology/ring.hpp"
#include "topology/torus.hpp"
#include "util/assert.hpp"

namespace routesim {

namespace {

/// Adapter over the paper's Butterfly.  Nodes are the dense
/// (level-1)*2^d + row indexing of Butterfly::node_index; the graph is a
/// DAG (packets only descend levels), so metric() is partial: (r1, l1)
/// reaches (r2, l2) iff l2 >= l1 and the rows agree outside the crossed
/// levels l1..l2-1, in which case the distance is exactly l2 - l1.
class ButterflyTopology final : public Topology {
 public:
  explicit ButterflyTopology(int d) : bfly_(d) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "butterfly";
    return kName;
  }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept override {
    return static_cast<std::uint32_t>(bfly_.num_levels()) * bfly_.rows();
  }
  [[nodiscard]] std::uint32_t num_arcs() const noexcept override {
    return bfly_.num_arcs();
  }
  [[nodiscard]] NodeId arc_source(ArcId a) const override {
    return bfly_.node_index(bfly_.arc_row(a), bfly_.arc_level(a));
  }
  [[nodiscard]] NodeId arc_target(ArcId a) const override {
    return bfly_.node_index(bfly_.arc_target_row(a), bfly_.arc_level(a) + 1);
  }
  [[nodiscard]] int out_degree(NodeId x) const override {
    return level_of(x) <= bfly_.dimension() ? 2 : 0;
  }
  [[nodiscard]] ArcId out_arc(NodeId x, int k) const override {
    RS_DASSERT(k >= 0 && k < out_degree(x));
    return bfly_.arc_index(row_of(x), level_of(x),
                           k == 0 ? Butterfly::ArcKind::kStraight
                                  : Butterfly::ArcKind::kVertical);
  }
  void append_incident_arcs(NodeId x, std::vector<ArcId>& out) const override {
    bfly_.append_incident_arcs(x, out);
  }
  [[nodiscard]] int metric(NodeId from, NodeId to) const override {
    const int l1 = level_of(from);
    const int l2 = level_of(to);
    if (l2 < l1) {
      return -1;
    }
    // Crossing levels l1..l2-1 can flip exactly the identity bits l1..l2-1
    // of the row; every other bit must already agree.
    const NodeId diff = row_of(from) ^ row_of(to);
    const NodeId crossable =
        ((NodeId{1} << (l2 - 1)) - 1u) ^ ((NodeId{1} << (l1 - 1)) - 1u);
    return (diff & ~crossable) == 0 ? l2 - l1 : -1;
  }
  [[nodiscard]] int diameter() const override { return bfly_.dimension(); }
  [[nodiscard]] ArcId greedy_next_arc(NodeId cur, NodeId dest) const override {
    RS_DASSERT(metric(cur, dest) > 0);
    const int level = level_of(cur);
    const bool vertical = has_dimension(row_of(cur) ^ row_of(dest), level);
    return bfly_.arc_index(row_of(cur), level,
                           vertical ? Butterfly::ArcKind::kVertical
                                    : Butterfly::ArcKind::kStraight);
  }
  /// Level-1 injection to a uniform exit row crosses each level once and
  /// picks straight or vertical with probability 1/2 each (Lemma 3.1's
  /// uniformity), so every arc carries lambda/2.
  [[nodiscard]] double uniform_load_per_lambda() const override { return 0.5; }

 private:
  [[nodiscard]] int level_of(NodeId x) const { return static_cast<int>(x / bfly_.rows()) + 1; }
  [[nodiscard]] NodeId row_of(NodeId x) const { return x & (bfly_.rows() - 1u); }

  Butterfly bfly_;
};

constexpr int kMinCubeD = 1;
constexpr int kMaxCubeD = 20;

[[noreturn]] void unknown_topology(const std::string& name) {
  std::string known;
  for (const std::string& candidate : topology_names()) {
    known += known.empty() ? candidate : ", " + candidate;
  }
  throw std::invalid_argument("unknown topology '" + name +
                              "' (known: " + known + ")");
}

}  // namespace

const std::vector<std::string>& topology_names() {
  static const std::vector<std::string> kNames = {"hypercube", "butterfly",
                                                  "ring", "torus", "mesh"};
  return kNames;
}

const std::string& topology_summary(const std::string& name) {
  static const std::vector<std::string> kSummaries = {
      "the paper's d-cube: 2^d nodes, d*2^d arcs, greedy crosses required "
      "dimensions lowest-first",
      "the unfolded d-cube: (d+1) levels of 2^d rows; packets descend "
      "levels (a DAG, so metric() is partial)",
      "2^d nodes on a bidirectional cycle; ring_chords= adds symmetric "
      "chord strides or the papillon doubling ladder",
      "k-ary torus from torus_dims= (2 or 3 wrapped dimensions); "
      "dimension-ordered greedy takes the shorter way around",
      "torus_dims= grid without wraparound; dimension-ordered greedy "
      "moves straight toward the destination"};
  const std::vector<std::string>& names = topology_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return kSummaries[i];
    }
  }
  unknown_topology(name);
}

std::unique_ptr<const Topology> make_topology(const TopologySpec& spec) {
  if (spec.name == "hypercube" || spec.name == "butterfly") {
    if (spec.d < kMinCubeD || spec.d > kMaxCubeD) {
      throw std::invalid_argument(
          "topology=" + spec.name + " needs d in [" +
          std::to_string(kMinCubeD) + ", " + std::to_string(kMaxCubeD) +
          "], got d=" + std::to_string(spec.d));
    }
    if (spec.name == "hypercube") {
      return std::make_unique<HypercubeTopology>(spec.d);
    }
    return std::make_unique<ButterflyTopology>(spec.d);
  }
  if (spec.name == "ring") {
    return std::make_unique<RingTopology>(
        spec.d, parse_ring_chords(spec.ring_chords, spec.d));
  }
  if (spec.name == "torus" || spec.name == "mesh") {
    return std::make_unique<TorusTopology>(parse_torus_dims(spec.torus_dims),
                                           /*wrap=*/spec.name == "torus");
  }
  unknown_topology(spec.name);
}

}  // namespace routesim
