#pragma once
/// \file deflection.hpp
/// \brief Deflection ("hot-potato") routing over any `Topology` — the
///        bufferless alternative analysed approximately by Greenberg &
///        Hajek [GrH89], included here as the related-work comparator.
///
/// Time is slotted (slot = one packet transmission).  Each node owns one
/// port per out-arc and holds at most one packet per live port.  In every
/// slot each node assigns each resident packet a port: packets are
/// considered oldest first; a packet prefers its lowest-index *productive*
/// port (one whose arc decreases the metric to the destination) that is
/// still free, and otherwise is *deflected* onto the lowest free port.
/// Freshly generated packets wait in a per-node injection queue and are
/// admitted whenever the node has a free port.  On the hypercube port k is
/// dimension k+1, which is the paper-cube rule of [GrH89].
///
/// The slot loop is a template on the topology, instantiated on the
/// concrete HypercubeTopology (no virtual call per port probe) and on the
/// Topology interface.  The slot-stepped dynamics need no event set, but
/// the measurement-window accounting (delay / hops / deliveries /
/// throughput) is the shared KernelStats of des/packet_kernel.hpp — the
/// same harvest every other scheme uses, which is what makes the
/// cross-scheme comparisons coupled.
///
/// Faults: deflection is natively fault-aware.  A dead arc is a port that
/// is never free, so resident packets route around it with the
/// productive-then-deflect rule.  Packets are fault-dropped when their
/// node has no free live port in a slot, when they are generated at a dead
/// node, or when their hop count reaches the TTL.  A `deflection` cell's
/// config comes from routing_config (routing/topology_greedy.hpp), the
/// builder the greedy schemes share; its `faults` go to the FaultModel as
/// they are, and no fault_policy is read.

#include <cstdint>
#include <deque>
#include <vector>

#include "des/packet_kernel.hpp"
#include "routing/topology_greedy.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace routesim {

class DeflectionSim {
 public:
  /// Reads spec, lambda (packets per node per slot), seed, destinations,
  /// fixed_destinations, faults and ttl; the greedy-only fields
  /// (trace, slot, valiant, buffer_capacity, service_order,
  /// dimension_order) must stay at their defaults.
  explicit DeflectionSim(TopologyRoutingConfig config);

  /// Reconfigures for another replication, reusing storage.
  void reset(TopologyRoutingConfig config);

  /// Simulates `num_slots` unit slots; statistics cover slots >= warmup_slots.
  void run(std::uint64_t warmup_slots, std::uint64_t num_slots);

  /// Delay: generation slot to delivery slot (includes injection waiting).
  [[nodiscard]] const Summary& delay() const noexcept { return stats_.delay(); }

  /// Hops actually taken per delivered packet (>= the metric; the excess
  /// counts deflections).
  [[nodiscard]] const Summary& hops() const noexcept { return stats_.hops(); }

  /// Fraction of transmissions that were deflections (non-productive).
  [[nodiscard]] double deflection_fraction() const noexcept {
    const double total = static_cast<double>(productive_ + deflected_);
    return total == 0.0 ? 0.0 : static_cast<double>(deflected_) / total;
  }

  /// Packets waiting in injection queues (or in flight) at the end.
  [[nodiscard]] std::uint64_t injection_backlog() const noexcept { return backlog_; }

  [[nodiscard]] std::uint64_t deliveries_in_window() const noexcept {
    return stats_.deliveries_in_window();
  }

  /// Deliveries per slot over the measurement window.
  [[nodiscard]] double throughput() const noexcept { return stats_.throughput(); }

  /// The attached fault model (inactive without fault rates).
  [[nodiscard]] const FaultModel& fault_model() const noexcept {
    return fault_model_;
  }
  /// The full measurement harvest (delivery ratio, stretch, quantiles, ...).
  [[nodiscard]] const KernelStats& kernel_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const Topology& topology() const noexcept {
    return net_.topology();
  }

 private:
  struct Pkt {
    NodeId dest;
    double gen_time;
    std::uint16_t hops;
    std::uint16_t min_hops;  ///< metric at generation (stretch baseline)
  };

  template <typename Topo>
  void run_slots(const Topo& topo, std::uint64_t warmup_slots,
                 std::uint64_t num_slots);

  TopologyRoutingConfig config_;
  RoutedNetwork net_;
  Rng rng_;
  FaultModel fault_model_;
  bool fault_active_ = false;

  std::vector<std::vector<Pkt>> resident_;  // packets at each node
  std::vector<std::deque<Pkt>> injection_;  // waiting to be admitted

  KernelStats stats_;
  std::uint64_t productive_ = 0;
  std::uint64_t deflected_ = 0;
  std::uint64_t backlog_ = 0;
};

class SchemeRegistry;

/// core/registry.hpp hookup: registers "deflection" ([GrH89] hot-potato
/// comparator; window interpreted in slots) with extra metrics
/// deflection_fraction plus the resilience extras (delivery_ratio,
/// mean_stretch, delay_p50/p99, fault_drops).
void register_deflection_scheme(SchemeRegistry& registry);

}  // namespace routesim
