#pragma once
/// \file storm.hpp
/// \brief Correlated fault storms layered on the FaultModel: regional,
///        temporally bursty outages at percolation scale.
///
/// The static Bernoulli and per-arc exponential processes of
/// fault_model.hpp fail arcs *independently*; real outages are correlated
/// in space (a rack, a switch, a cable bundle) and time (a storm arrives,
/// lingers, passes).  A `StormProcess` models both:
///
///   - **Regional.**  Each storm picks a uniformly random seed node and
///     takes down every arc incident to the seed's *incidence ball* of
///     radius `storm_radius` — the set of nodes within `radius` hops of the
///     seed, a hop being an out-arc of the scenario's Topology (walked in
///     port order).  Radius 0 downs the seed's own in/out arcs; radius 1
///     additionally downs its out-neighbours' arcs, and so on.
///
///   - **Temporally bursty.**  Storm arrivals form a Poisson process of
///     rate `storm_rate`; each storm lives for exactly `storm_duration` and then
///     passes, restoring the arcs it (alone) covered.  Overlapping storms
///     stack: an arc is storm-covered while *any* active storm covers it,
///     tracked by a per-arc coverage count.
///
/// The process reads its three knobs from the shared FaultModelConfig
/// (fault/fault_config.hpp), the same value the scenario's key rows write.
/// It owns its RNG stream (salted off the replication seed), so
/// scenarios with `storm_rate=0` consume zero storm randomness and remain
/// bit-identical to their storm-free pins.  `FaultModel` composes storm
/// coverage with its own static/dynamic state by OR — see
/// FaultModel::configure — and drives the process through the kernel's
/// fault control-event slot, preserving the global (time, seq) order.
///
/// Because storm lifetimes are constant and arrivals are monotone in
/// time, expiries are monotone too: active storms form a FIFO queue and
/// no heap is needed.

#include <cstdint>
#include <deque>
#include <functional>  // ArcDelta
#include <vector>

#include "fault/fault_config.hpp"
#include "util/rng.hpp"

namespace routesim {

class Topology;

class StormProcess {
 public:
  /// Coverage callback: +1 when a storm starts covering `arc`, -1 when
  /// it stops.  The consumer (FaultModel) keeps the per-arc counts.
  using ArcDelta = std::function<void(std::uint32_t arc, int delta)>;

  StormProcess() = default;

  /// (Re)starts the process at time 0 with no active storms on
  /// `topology`, which must outlive the process's use; its stream derives
  /// from the replication `seed`.  Reads storm_rate, storm_radius and
  /// storm_duration.  Storage is reused across replications.  With
  /// storm_rate == 0 the process is inert: no RNG is consumed and
  /// next_event_time() is +infinity.
  void configure(const FaultModelConfig& config, const Topology& topology,
                 std::uint64_t seed);

  [[nodiscard]] bool active() const noexcept { return config_.storm_rate > 0.0; }

  /// Time of the next arrival or expiry (+infinity when inert).
  [[nodiscard]] double next_event_time() const noexcept { return next_event_; }

  /// Processes every arrival and expiry with time <= now, in time order,
  /// reporting per-arc coverage changes through `delta`.
  void advance_to(double now, const ArcDelta& delta);

  /// The arcs a storm seeded at `seed_node` covers: the union of arcs
  /// incident to the ball of nodes within `storm_radius` hops (sorted, unique).
  /// Exposed for tests and for the percolation bench.
  [[nodiscard]] std::vector<std::uint32_t> ball_arcs(std::uint32_t seed_node);

  /// Storms started since configure() (counts arrivals processed).
  [[nodiscard]] std::uint64_t storms_started() const noexcept {
    return storms_started_;
  }
  /// Storms currently in progress.
  [[nodiscard]] std::size_t active_storms() const noexcept {
    return active_.size();
  }

 private:
  struct ActiveStorm {
    double expiry = 0.0;
    std::vector<std::uint32_t> arcs;
  };

  void compute_ball(std::uint32_t seed_node, std::vector<std::uint32_t>& out);
  void refresh_next_event() noexcept;

  FaultModelConfig config_{};
  Rng rng_;
  const Topology* topology_ = nullptr;
  double next_arrival_ = 0.0;
  double next_event_ = 0.0;
  std::uint64_t storms_started_ = 0;
  std::deque<ActiveStorm> active_;  ///< expiries are monotone (FIFO)
  std::vector<std::uint32_t> ball_nodes_;   ///< BFS scratch
  std::vector<std::uint64_t> visited_;      ///< one bit per node
};

}  // namespace routesim
