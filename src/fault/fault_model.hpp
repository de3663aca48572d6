#pragma once
/// \file fault_model.hpp
/// \brief Fault injection for the routing simulators: static Bernoulli
///        arc/node fault sets plus a dynamic link up/down process.
///
/// The paper analyses greedy routing on pristine networks; this subsystem
/// asks how the same schemes degrade when arcs and nodes fail (cf. Angel,
/// Benjamini, Ofek & Wieder, "Routing Complexity of Faulty Networks",
/// PAPERS.md).  A `FaultModel` answers one question on the hot path —
/// `is_faulty(arc)` — in O(1) via a bitset over the topology's dense arc
/// indexing.  It reads the seven fault knobs from one `FaultModelConfig`
/// (fault/fault_config.hpp): the value the scenario's key rows write and
/// TopologyRoutingConfig carries unchanged, with the replication seed
/// passed beside it.  Three sources feed the bitset:
///
///   - **Static faults.**  At configure() every arc fails independently
///     with probability `arc_fault_rate` and every node with probability
///     `node_fault_rate`; a faulty node takes all of its incident arcs
///     down (Topology::append_incident_arcs).  The fault set is sampled
///     from the model's own RNG stream (derived from the replication
///     seed), so the traffic process is untouched and every replication
///     sees an independent fault set.
///
///   - **Dynamic faults.**  When `mtbf > 0 && mttr > 0`, every arc
///     alternates between up and down states with independent exponential
///     sojourns (mean `mtbf` up, mean `mttr` down), starting from the
///     static sample.  Arcs killed by a *node* fault are excluded — a
///     dead node stays dead.  Pending transitions wait in an
///     EventQueue (des/event_queue.hpp); the packet
///     kernel drives them through its control-event slot by asking for
///     next_transition_time() and calling advance_to(t) when that event
///     fires, so fault flips interleave with traffic in global time order.
///
///   - **Storms.**  When `storm_rate > 0`, a `StormProcess` (storm.hpp)
///     layers spatially correlated, temporally bursty outages on top of
///     the base state: the queried bitset becomes base OR storm-covered,
///     driven through the same control-event slot.  Storm-free
///     replications never touch the composition state and stay
///     bit-identical.
///
/// Semantics at the queues: faults gate *admission* — a packet is never
/// routed onto an arc that is down at enqueue time, but a transmission in
/// progress completes even if the arc fails under it (the packet is
/// already in flight).  What happens to a packet whose desired arc is
/// down is the routing scheme's decision, named by `FaultPolicy`.

#include <cstdint>
#include <string>
#include <vector>

#include "des/event_queue.hpp"
#include "fault/fault_config.hpp"
#include "fault/storm.hpp"
#include "util/rng.hpp"

namespace routesim {

class Topology;

/// What a scheme does with a packet whose desired next arc is down.
/// Schemes support the subset that makes sense for their topology:
///   - kNone:       fault-unaware (the pristine code path; no model attached)
///   - kDrop:       drop the packet, counted as a fault drop (baseline);
///   - kSkipDim:    hypercube family — greedy over the surviving unresolved
///                  dimensions, falling back to a random *resolved*
///                  dimension as a detour when every unresolved arc is
///                  dead, bounded by a TTL;
///   - kDeflect:    hypercube family — when the greedy arc is dead, take a
///                  uniformly random surviving out-arc (TTL-bounded);
///   - kTwinDetour: butterfly — take the first live out-arc, i.e. the
///                  level's twin arc (straight for vertical and vice
///                  versa).  The butterfly has a unique path per
///                  origin/destination pair, so a detoured packet exits at
///                  the wrong row and is counted as misrouted — the policy
///                  measures the capacity cost of deflection in a network
///                  with no path diversity.
///   - kAdaptive:   hypercube family — bounded local exploration: probe the
///                  live unresolved out-arcs in increasing dimension order
///                  and take the first metric-descending survivor whose
///                  head node has a live continuation (one-hop lookahead);
///                  a survivor with only dead continuations is kept as a
///                  fallback, and when every unresolved arc is dead the
///                  policy degrades to deflection over the resolved
///                  dimensions.  TTL-bounded like skip_dim/deflect.
enum class FaultPolicy : std::uint8_t {
  kNone,
  kDrop,
  kSkipDim,
  kDeflect,
  kTwinDetour,
  kAdaptive,
};

/// Parses "drop" | "skip_dim" | "deflect" | "twin_detour" | "adaptive"
/// (the CLI names).
/// Throws std::invalid_argument listing the valid names otherwise.
[[nodiscard]] FaultPolicy parse_fault_policy(const std::string& name);

/// The CLI name of a policy (inverse of parse_fault_policy).
[[nodiscard]] const char* fault_policy_name(FaultPolicy policy) noexcept;

class FaultModel {
 public:
  FaultModel() = default;

  /// (Re)samples the fault set over `topology`'s arcs and nodes from the
  /// model's streams of the replication `seed`.  Storage is reused across
  /// replications; with no fault source set (config.any() false) no RNG
  /// is consumed and every query returns false.  With storms on,
  /// `topology` must outlive the model's use (the storm process walks it).
  void configure(const FaultModelConfig& config, const Topology& topology,
                 std::uint64_t seed);

  /// O(1): is the arc down right now?  With a dynamic process the caller
  /// (the kernel's fault control event) is responsible for having advanced
  /// the model to the current time.
  [[nodiscard]] bool is_faulty(std::uint32_t arc) const noexcept {
    return (arc_down_[arc >> 6] >> (arc & 63u)) & 1u;
  }

  [[nodiscard]] bool is_node_faulty(std::uint32_t node) const noexcept {
    return (node_down_[node >> 6] >> (node & 63u)) & 1u;
  }

  /// FaultModelConfig::any() of the configured knobs; false means every
  /// query is trivially "up".
  [[nodiscard]] bool active() const noexcept { return config_.any(); }

  /// True when any time-driven process is running (the exponential
  /// up/down process, a storm process, or both): the kernel schedules a
  /// fault control event exactly when this holds.
  [[nodiscard]] bool dynamic() const noexcept { return dynamic_ || storms_on_; }

  /// Time of the next up/down or storm transition (+infinity when static).
  [[nodiscard]] double next_transition_time() const noexcept {
    return next_transition_;
  }

  /// Processes every transition with time <= now (dynamic mode only).
  void advance_to(double now);

  /// Number of arcs currently down.
  [[nodiscard]] std::uint32_t faulty_arc_count() const noexcept {
    return faulty_arcs_;
  }
  [[nodiscard]] std::uint32_t faulty_node_count() const noexcept {
    return faulty_nodes_;
  }

  /// The storm process (inert unless storm_rate > 0); exposed for tests
  /// and the percolation bench.
  [[nodiscard]] const StormProcess& storms() const noexcept { return storms_; }

 private:
  void set_arc(std::uint32_t arc, bool down) noexcept;
  void set_composite(std::uint32_t arc, bool down) noexcept;
  void storm_delta(std::uint32_t arc, int delta) noexcept;
  void refresh_next_transition() noexcept;

  FaultModelConfig config_{};
  Rng rng_;
  bool dynamic_ = false;
  bool storms_on_ = false;
  std::uint32_t num_arcs_ = 0;
  std::uint32_t faulty_arcs_ = 0;
  std::uint32_t faulty_nodes_ = 0;
  std::vector<std::uint64_t> arc_down_;   ///< one bit per arc (composite)
  std::vector<std::uint64_t> node_down_;  ///< one bit per node
  /// Arcs downed by a node fault: excluded from the dynamic process so a
  /// dead node never resumes forwarding.
  std::vector<std::uint64_t> node_killed_;
  /// Storm composition (allocated only when storms_on_): the base
  /// static/dynamic state, and per-arc active-storm coverage counts.
  /// The queried bitset is arc_down_ = base OR (coverage > 0).
  std::vector<std::uint64_t> base_down_;
  std::vector<std::uint16_t> storm_count_;
  StormProcess storms_;
  EventQueue<std::uint32_t> transitions_;  ///< arc flips (dynamic mode)
  double next_transition_ = 0.0;  ///< earliest flip or storm event (+inf when static)
  std::vector<std::uint32_t> scratch_;    ///< incident-arc buffer
};

}  // namespace routesim
