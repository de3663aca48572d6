#pragma once
/// \file permutation.hpp
/// \brief Adversarial permutation workloads and static congestion analysis
///        of the greedy path system.
///
/// The paper's efficiency results hold for *random* destinations (law (1));
/// the classic failure mode of greedy routing is a *structured permutation*
/// — every source x sends all of its traffic to one fixed destination
/// pi(x).  For bad permutations (bit reversal, transpose) the greedy path
/// system concentrates Theta(sqrt(N)) paths on single arcs of the
/// butterfly, so greedy congestion blows up while Valiant's randomized
/// first phase (valiant_mixing) restores near-random behaviour.  This file
/// provides the permutation generator family, plus *static* congestion
/// analysis: route one packet per source along its greedy path and count
/// per-arc loads, which multiplied by lambda gives the exact per-arc
/// utilisation of the corresponding dynamic experiment.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bits.hpp"

namespace routesim {

/// A deterministic per-source destination map pi on the 2^d node (or
/// butterfly row) identities.  All named families except `hotspot` are
/// bijections; `hotspot` deliberately concentrates traffic and is the one
/// non-bijective member (see hotspot()).
class Permutation {
 public:
  /// pi(x) reverses the d identity bits: bit m of pi(x) is bit d+1-m of x.
  /// Self-inverse; the canonical worst case for the butterfly (its greedy
  /// path system has max arc congestion 2^(ceil(d/2)-1) = Theta(sqrt(N)),
  /// see butterfly_bit_reversal_max_congestion()).
  static Permutation bit_reversal(int d);

  /// Matrix-transpose traffic: the low floor(d/2) bits swap with the high
  /// floor(d/2) bits (the middle bit of an odd d stays).  Self-inverse;
  /// Theta(sqrt(N)) greedy congestion like bit reversal.
  static Permutation transpose(int d);

  /// pi(x) = complement of x (the antipodal node): every packet crosses
  /// all d dimensions, the maximum-distance permutation.  Self-inverse.
  static Permutation bit_complement(int d);

  /// Perfect shuffle: rotate the identity left by one bit.
  static Permutation shuffle(int d);

  /// Tornado traffic: pi(x) = x + 2^(d-1) - 1 (mod 2^d) — just under half
  /// way around the node ring, the classic adversary of ring schemes.
  static Permutation tornado(int d);

  /// A uniformly random permutation (Fisher-Yates from a dedicated RNG
  /// stream of `seed`); the control case — with high probability its
  /// greedy congestion is O(d), like random destinations.
  static Permutation random(int d, std::uint64_t seed);

  /// Hotspot map with a concentration knob: the round(hot_fraction * 2^d)
  /// lowest-numbered sources all send to node 0 (the hot spot); every
  /// other source sends to its bit complement (background traffic).
  /// Deterministic but NOT bijective for hot_fraction > 0 — the inherent
  /// in-arc congestion of the hot node, ~hot_fraction*2^d/d, binds every
  /// routing scheme.  Precondition: hot_fraction in [0, 1].
  static Permutation hotspot(int d, double hot_fraction);

  /// Looks a family up by its catalog name (see names()); `hotspot_frac`
  /// and `seed` are consumed only by the families that need them.  Throws
  /// std::invalid_argument for an unknown name or hot_fraction outside
  /// [0, 1].
  static Permutation by_name(const std::string& name, int d,
                             double hotspot_frac = 0.1, std::uint64_t seed = 1);

  /// Every name by_name() accepts, in catalog order.
  static const std::vector<std::string>& names();

  /// One-line description of a family (for --list and the generated
  /// scenario reference); throws std::invalid_argument for unknown names.
  static const std::string& summary(const std::string& name);

  [[nodiscard]] int dimension() const noexcept { return d_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// pi(x).  Precondition: x < 2^d.
  [[nodiscard]] NodeId map(NodeId x) const {
    RS_DASSERT(x < table_.size());
    return table_[x];
  }

  /// The full destination table, indexed by source.
  [[nodiscard]] const std::vector<NodeId>& table() const noexcept { return table_; }

  /// True when pi is a bijection (every family except hotspot).
  [[nodiscard]] bool is_bijective() const;

  /// Mean Hamming distance H(x, pi(x)) over all sources — the mean hops of
  /// the corresponding greedy hypercube experiment.
  [[nodiscard]] double mean_distance() const;

  /// max_v |pi^-1(v)|: 1 for a bijection; the hot-spot fan-in otherwise.
  [[nodiscard]] std::uint64_t max_fan_in() const;

 private:
  Permutation(int d, std::string name, std::vector<NodeId> table);

  int d_;
  std::string name_;
  std::vector<NodeId> table_;
};

/// Per-arc load of a greedy path system: route one packet per source along
/// its canonical greedy path to `destination[source]` and count how many
/// paths use each arc.  Multiplying a load by the per-source rate lambda
/// gives the exact utilisation of that arc in the dynamic experiment, so
/// `lambda * max_load < 1` is the stability condition.
struct CongestionReport {
  std::uint64_t max_load = 0;   ///< heaviest arc (the congestion)
  double mean_load = 0.0;       ///< mean over all arcs of the topology
  std::uint64_t arcs_used = 0;  ///< arcs carrying at least one path
  std::uint64_t num_arcs = 0;   ///< arcs in the topology
};

class Topology;

/// The greedy path system of a Topology (topology/topology.hpp): walk
/// greedy_next_arc from every source terminal t (traffic_layout()) to node
/// sink_base + destination[t], each reachable, and count per-arc path
/// loads; a packet for its own node uses no arc.  On the butterfly these
/// are the unique level-by-level paths.  The ring's tornado permutation
/// makes the maximum Theta(n) while uniform traffic stays Theta(1) per unit
/// rate — the generic-topology analogue of the hypercube's transpose
/// collapse.
[[nodiscard]] CongestionReport topology_greedy_congestion(
    const Topology& topo, std::span<const NodeId> destination);

/// Closed form for the butterfly + bit reversal: the greedy path system has
/// max arc congestion exactly 2^(ceil(d/2) - 1) = Theta(sqrt(N)).  At
/// level j <= (d+1)/2, the arc crossed by source row r is determined by
/// bits j..d of r alone, so the 2^(j-1) sources agreeing on them collide;
/// the count peaks at the middle level.  Pinned against the brute-force
/// analysis in tests/test_permutation.cpp.
[[nodiscard]] std::uint64_t butterfly_bit_reversal_max_congestion(int d);

/// max_v |pi^-1(v)| of a destination table: 1 for a bijection, the hot-spot
/// fan-in otherwise.  The one definition behind Permutation::max_fan_in()
/// and the valiant_mixing load-factor rule.  Precondition: every entry
/// indexes the table.
[[nodiscard]] std::uint64_t max_fan_in(std::span<const NodeId> destination);

}  // namespace routesim
