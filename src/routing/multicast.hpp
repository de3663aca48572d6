#pragma once
/// \file multicast.hpp
/// \brief Greedy dimension-order multicast — the first generalisation
///        suggested in the paper's concluding remarks (§5): "it may be
///        assumed that each packet is destined for a different subset of
///        nodes".  Built on the shared packet kernel.
///
/// A packet carries a destination *set*.  At a node y holding destination
/// set S, the scheme delivers the copy addressed to y (if y in S), splits
/// the remainder by each destination's greedy next arc
/// (HypercubeTopology::greedy_next_arc: the lowest differing dimension, as
/// in the unicast scheme), and forwards one copy per required outgoing arc
/// carrying the matching subset.  The union
/// of the copies' trajectories is exactly the union of the canonical
/// unicast paths — a dimension-ordered multicast tree — so a k-destination
/// packet uses |tree| <= k * E[H] arcs, strictly fewer than k unicasts
/// whenever paths share prefixes.
///
/// The kernel's pooled unit here is the *copy* (the object that occupies
/// arc queues); the logical packets live in a second Pool owned by this
/// class.  This simulator measures (a) per-destination delay and (b) the
/// traffic saving of tree forwarding versus k independent unicast packets.

#include <cstdint>
#include <vector>

#include "des/packet_kernel.hpp"
#include "stats/summary.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace routesim {

struct MulticastConfig {
  int d = 4;
  double lambda = 0.02;  ///< packet-generation rate per node (each packet has k dests)
  int fanout = 4;        ///< destinations per packet (k), sampled distinct uniform
  std::uint64_t seed = 1;
  /// When true, disable tree sharing: send k independent unicast copies
  /// (the baseline the tree is compared against).
  bool unicast_baseline = false;
  /// Per-source fixed-destination mode (workload = permutation): the
  /// destination set of a packet generated at x is the first `fanout`
  /// distinct nodes of the forward orbit pi(x), pi(pi(x)), ... (fewer when
  /// the orbit closes first), so the multicast tree itself is
  /// deterministic per source.  Non-owning; 2^d entries; null = sample
  /// distinct uniform destinations.
  const std::vector<NodeId>* fixed_destinations = nullptr;
};

class GreedyMulticastSim {
 public:
  explicit GreedyMulticastSim(MulticastConfig config);

  /// Reconfigures for another replication, reusing kernel storage.
  void reset(MulticastConfig config);

  void run(double warmup, double horizon);

  /// Delay from packet generation to the delivery at each destination
  /// (k observations per generated packet).
  [[nodiscard]] const Summary& delivery_delay() const noexcept {
    return kernel_.stats().delay();
  }

  /// Delay until the *last* destination of a packet is reached
  /// (the multicast completion time).
  [[nodiscard]] const Summary& completion_delay() const noexcept { return completion_; }

  /// Arc transmissions consumed per generated packet (tree size).
  [[nodiscard]] const Summary& transmissions_per_packet() const noexcept {
    return transmissions_;
  }

  [[nodiscard]] double time_avg_copies_in_network() const noexcept {
    return kernel_.stats().time_avg_population();
  }

  [[nodiscard]] std::uint64_t packets_in_window() const noexcept {
    return packets_window_;
  }

  // --- kernel hooks (called by PacketKernel::drive) ---

  void on_spawn(double now);
  void on_arc_done(double now, ArcId arc);

 private:
  struct Copy {
    NodeId cur = 0;
    std::vector<NodeId> dests;   ///< destinations this copy still serves
    std::uint32_t packet = 0;    ///< owning logical packet
  };

  struct PacketState {
    double gen_time = 0.0;
    int undelivered = 0;
    int transmissions = 0;
    double last_delivery = 0.0;
    bool counted = false;  ///< generated inside the measurement window
  };

  void configure_kernel();
  void inject(double now);
  void process_at_node(double now, std::uint32_t copy_index);
  void finish_packet_if_done(double now, std::uint32_t packet);

  MulticastConfig config_;
  HypercubeTopology cube_;
  PacketKernel<Copy> kernel_;
  Pool<PacketState> packet_pool_;

  Summary completion_;
  Summary transmissions_;
  std::uint64_t packets_window_ = 0;
};

class SchemeRegistry;

/// core/registry.hpp hookup: registers "multicast" (§5 destination-set
/// generalisation; `fanout` destinations per packet, unicast_baseline
/// disables tree sharing) with extra metrics completion_delay and
/// transmissions_per_packet.
void register_multicast_scheme(SchemeRegistry& registry);

}  // namespace routesim
