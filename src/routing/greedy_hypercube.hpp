#pragma once
/// \file greedy_hypercube.hpp
/// \brief Packet-level simulator of the paper's greedy routing scheme on the
///        d-cube (§3), built on the shared packet kernel.
///
/// Every packet crosses the hypercube dimensions it needs in increasing
/// index order, advancing as fast as possible (no idling) with FIFO
/// priority at every arc; arcs transmit one unit-length packet at a time.
/// This class is the *direct* simulation of the model in §1.1; the
/// Markovian equivalent network Q of §3.1 is implemented independently in
/// queueing/levelled_network.hpp + core/equivalence.hpp, and the test suite
/// checks that the two agree.
///
/// The event set, arc queues, arrival process and measurement accounting
/// live in des/packet_kernel.hpp; this class contributes the greedy routing
/// decision (next_dimension) and the dimension-order ablations.
///
/// Three arrival modes:
///   - continuous (default): per-node Poisson(lambda), simulated exactly via
///     the superposition property;
///   - slotted (§3.4): batches of Poisson(lambda*tau) packets per node at
///     slot boundaries k*tau (1/tau integer);
///   - trace replay: a fixed PacketTrace, for coupled scheme comparisons.

#include <cstdint>
#include <optional>
#include <vector>

#include "des/kernel_backend.hpp"
#include "des/packet_kernel.hpp"
#include "des/slotted_batch.hpp"
#include "stats/histogram.hpp"
#include "stats/little.hpp"
#include "stats/summary.hpp"
#include "topology/hypercube.hpp"
#include "workload/destination.hpp"
#include "workload/trace.hpp"

namespace routesim {

/// The order in which a packet crosses its required dimensions.  The paper
/// fixes increasing index order (the canonical path), which makes the
/// equivalent network levelled and the analysis tractable; decreasing and
/// random-per-hop orders are ablations showing the *choice of order* is an
/// analytical convenience, not a performance trick — by symmetry every
/// order gives the same per-arc load rho.
enum class DimensionOrder : std::uint8_t { kIncreasing, kDecreasing, kRandomPerHop };

struct GreedyHypercubeConfig {
  int d = 4;
  double lambda = 0.1;  ///< packet generation rate per node
  DestinationDistribution destinations = DestinationDistribution::uniform(4);
  std::uint64_t seed = 1;
  /// 0 => continuous time; > 0 => slotted arrivals with this slot length
  /// (must satisfy: 1/slot is an integer, slot <= 1; see §3.4).
  double slot = 0.0;
  /// Replay this trace instead of generating traffic (lambda/slot ignored).
  const PacketTrace* trace = nullptr;
  /// Per-source fixed destinations (workload = permutation): entry x is
  /// the destination of every packet generated at node x; `destinations`
  /// is then only a placeholder.  Non-owning; 2^d entries; null = sample
  /// from `destinations`.
  const std::vector<NodeId>* fixed_destinations = nullptr;
  /// Track a time-weighted occupancy per node (2^d trackers).
  bool track_node_occupancy = false;
  /// Collect a delay histogram (bin width 1, range [0, 64*d]).
  bool track_delay_histogram = false;
  /// Arc scheduling ablation (paper: FIFO).
  ArcServiceOrder arc_service_order = ArcServiceOrder::kFifo;
  /// Dimension-order ablation (paper: increasing).
  DimensionOrder dimension_order = DimensionOrder::kIncreasing;
  /// Finite-buffer ablation: maximum packets per arc queue including the
  /// one in service; arriving packets finding a full queue are dropped.
  /// 0 means infinite buffers (the paper's model).
  std::uint32_t buffer_capacity = 0;

  // --- fault injection (src/fault/fault_model.hpp) ----------------------
  /// kNone = the pristine code path (bit-identical to the paper's model).
  /// kDrop / kSkipDim / kDeflect / kAdaptive attach a FaultModel and route
  /// around (or drop at) dead arcs; with all fault rates zero the routing
  /// decisions and RNG consumption are identical to kNone.
  FaultPolicy fault_policy = FaultPolicy::kNone;
  double arc_fault_rate = 0.0;   ///< P[arc statically down]
  double node_fault_rate = 0.0;  ///< P[node down] (kills incident arcs)
  double fault_mtbf = 0.0;       ///< mean link up-time (> 0 with mttr => dynamic)
  double fault_mttr = 0.0;       ///< mean link repair time
  /// Correlated fault storms (src/fault/storm.hpp): Poisson arrivals of
  /// rate storm_rate, each downing the radius-storm_radius incidence ball
  /// around a random seed node for storm_duration time units.
  double storm_rate = 0.0;
  int storm_radius = 1;
  double storm_duration = 0.0;
  /// Max hops before a detouring packet is dropped; 0 = 64 * d.
  int ttl = 0;

  /// Execution engine.  kSoaBatch requires slotted time (slot > 0), no
  /// trace, FIFO arc service, increasing dimension order and a static
  /// fault set; its results are bit-identical to kScalar (pinned by
  /// tests/test_kernel_parity.cpp).
  KernelBackend backend = KernelBackend::kScalar;
};

class GreedyHypercubeSim {
 public:
  explicit GreedyHypercubeSim(GreedyHypercubeConfig config);

  /// Reconfigures for another replication, reusing kernel storage instead
  /// of reallocating (results are identical to a fresh construction).
  void reset(GreedyHypercubeConfig config);

  /// Simulates [0, horizon]; statistics cover [warmup, horizon].
  void run(double warmup, double horizon);

  // --- results (valid after run()) ---

  /// Per-packet delay (generation to delivery) for packets generated in the
  /// window and delivered by the horizon.  Packets whose destination equals
  /// their origin are delivered instantly with delay 0, as in the paper.
  [[nodiscard]] const Summary& delay() const noexcept { return kernel_.stats().delay(); }

  /// Number of arcs traversed per delivered packet (Hamming distance).
  [[nodiscard]] const Summary& hops() const noexcept { return kernel_.stats().hops(); }

  [[nodiscard]] double time_avg_population() const noexcept {
    return kernel_.stats().time_avg_population();
  }
  [[nodiscard]] double peak_population() const noexcept {
    return kernel_.stats().peak_population();
  }
  [[nodiscard]] double final_population() const noexcept {
    return kernel_.stats().final_population();
  }
  [[nodiscard]] std::uint64_t deliveries_in_window() const noexcept {
    return kernel_.stats().deliveries_in_window();
  }
  [[nodiscard]] std::uint64_t arrivals_in_window() const noexcept {
    return kernel_.stats().arrivals_in_window();
  }
  [[nodiscard]] double throughput() const noexcept {
    return kernel_.stats().throughput();
  }

  /// Little's-law self check over the window.
  [[nodiscard]] LittleCheck little_check() const noexcept {
    return kernel_.stats().little_check();
  }

  [[nodiscard]] const std::vector<ArcCounters>& arc_counters() const noexcept {
    return kernel_.arc_counters();
  }

  /// Mean occupancy (packets queued on out-arcs) of each node, if tracked.
  [[nodiscard]] const std::vector<double>& node_mean_occupancy() const noexcept {
    return kernel_.stats().occupancy_means();
  }

  /// Largest instantaneous per-node occupancy seen in the window, if tracked.
  [[nodiscard]] double max_node_occupancy() const noexcept {
    return kernel_.stats().max_occupancy();
  }

  [[nodiscard]] const std::optional<Histogram>& delay_histogram() const noexcept {
    return kernel_.stats().delay_histogram();
  }

  /// Packets dropped at full buffers within the window (finite-buffer mode).
  [[nodiscard]] std::uint64_t drops_in_window() const noexcept {
    return kernel_.stats().drops_in_window();
  }

  /// Packets lost to faults (dead arc / dead node / TTL) within the window.
  [[nodiscard]] std::uint64_t fault_drops_in_window() const noexcept {
    return kernel_.stats().fault_drops_in_window();
  }

  /// Windowed delivery ratio (see KernelStats::delivery_ratio).
  [[nodiscard]] double delivery_ratio() const noexcept {
    return kernel_.stats().delivery_ratio();
  }

  /// Mean path stretch, hops / Hamming distance, over delivered packets
  /// with distinct origin and destination; exactly 1 on a fault-free cube.
  [[nodiscard]] double mean_stretch() const noexcept {
    return kernel_.stats().mean_stretch();
  }

  /// The attached fault model (inactive when fault_policy is kNone).
  [[nodiscard]] const FaultModel& fault_model() const noexcept {
    return fault_model_;
  }

  /// The full measurement harvest (delivery ratio, stretch, quantiles, ...).
  [[nodiscard]] const KernelStats& kernel_stats() const noexcept {
    return kernel_.stats();
  }

  [[nodiscard]] const Hypercube& topology() const noexcept { return cube_; }
  [[nodiscard]] double measurement_window() const noexcept {
    return kernel_.stats().measurement_window();
  }

  // --- kernel hooks (called by PacketKernel::drive) ---

  void on_spawn(double now);
  void on_traced(double now, NodeId origin, NodeId dest);
  void on_arc_done(double now, ArcId arc);

 private:
  struct Pkt {
    NodeId cur = 0;
    NodeId dest = 0;
    double gen_time = 0.0;
    std::uint16_t hop_count = 0;
    std::uint16_t min_hops = 0;  ///< Hamming(origin, dest) — stretch baseline
  };

  /// The soa_batch policy (routing/greedy_hypercube.cpp): the greedy
  /// decision over the SoA store, driven by SlottedBatchDriver against the
  /// kernel's own RNG/stats, so results match the scalar path bit for bit.
  struct BatchPolicy;

  void configure_kernel();
  void inject(double now, NodeId origin, NodeId dest);
  [[nodiscard]] int next_dimension(const Pkt& packet);
  /// Fault-aware arc choice: the scheme's normal pick when its arc is
  /// alive, the policy's reroute (fault/fault_routing.hpp) otherwise;
  /// kDropArc means drop the packet.
  [[nodiscard]] ArcId next_arc_faulty(const Pkt& packet);

  GreedyHypercubeConfig config_;
  Hypercube cube_;
  FaultModel fault_model_;
  bool fault_active_ = false;
  int ttl_ = 0;
  PacketKernel<Pkt> kernel_;
  SlottedBatchDriver batch_;  ///< engaged when backend == kSoaBatch
};

class SchemeRegistry;

/// core/registry.hpp hookup: registers "hypercube_greedy" (continuous or,
/// with tau > 0, the slotted variant of §3.4; workloads bit_flip, uniform,
/// general, trace and permutation — the latter adds a max_queue extra;
/// trace replay of an external file via trace_file; finite buffers via
/// buffer_capacity; fault injection via fault_rate / node_fault_rate /
/// fault_mtbf / fault_mttr / storm_rate / storm_radius / storm_duration
/// with fault_policy drop | skip_dim | deflect | adaptive, reported
/// through the delivery_ratio / mean_stretch / delay_p50 / delay_p99 /
/// fault_drops / buffer_drops extras).
void register_hypercube_greedy_scheme(SchemeRegistry& registry);

}  // namespace routesim
