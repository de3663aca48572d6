#pragma once
/// \file levelled_network.hpp
/// \brief Event-driven simulator of a *levelled* queueing network with
///        Markovian routing — the paper's networks Q (§3.1), R (§4.3) and
///        the three-server network G of Lemma 9.
///
/// A levelled network is a DAG of "servers" (one per hypercube/butterfly
/// arc) in which every customer moves to strictly higher-indexed servers,
/// each server is fed externally by a Poisson stream, and routing after a
/// service completion is by independent coin flips (Property C).  Servers
/// run either a deterministic FIFO discipline or deterministic Processor
/// Sharing; the networks Q and Q~ of Proposition 11 are the same config
/// run under the two disciplines.
///
/// Measurement accounting (delay, population, occupancy trackers, harvest)
/// is the shared KernelStats of des/packet_kernel.hpp — the same path the
/// packet-level simulators use — so Q's metrics are directly comparable
/// with the direct simulation's.  The customer pool and the FIFO queues
/// reuse the kernel's Pool/Ring storage as well; the PS servers each run a
/// PsVirtualClock, and the coupled routing uniforms are specific to this
/// class.
///
/// **Sample-path coupling.**  The dominance results (Lemmas 9-10, Prop. 11)
/// compare FIFO and PS *on the same sample path ω*: identical external
/// arrival times per server and identical routing decisions identified by
/// the order they are taken at each server.  The simulator realises exactly
/// this coupling: server s's external arrivals come from the dedicated
/// stream derive_stream(seed, s), and the k-th service completion at server
/// s consumes the *stateless* uniform U(seed, s, k) — so two runs with the
/// same seed but different disciplines see the same ω.

#include <cstdint>
#include <map>
#include <vector>

#include "des/event_queue.hpp"
#include "des/packet_kernel.hpp"
#include "stats/little.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace routesim {

/// Service discipline of every server in the network.
enum class Discipline : std::uint8_t { kFifo, kPs };

/// One routing alternative: with probability `probability`, go to server
/// `target` after completing service.  Unassigned probability mass exits
/// the network.
struct RoutingChoice {
  double probability = 0.0;
  std::uint32_t target = 0;
};

/// Fair-share virtual time of one deterministic Processor-Sharing server
/// (§3.3), whose customers each bring unit work.  Every customer present
/// receives an equal share of the service rate: the virtual clock V(t)
/// advances at rate r / n(t), and a customer admitted at virtual time V
/// completes when the clock reaches V + 1, so in exact arithmetic customers
/// complete in admission order.  The paper's worked example (unit rate,
/// arrivals at 0 and 1/2, departures at 3/2 and 2) is a unit test of this
/// type.
///
/// Completion tags are kept in a multimap, not a FIFO of admissions:
/// complete() sets V to the head's tag to absorb rounding drift, so V can
/// step back by an ulp and a later tag can tie or precede an earlier one.
/// The multimap completes by tag, ties in admission order.
class PsVirtualClock {
 public:
  explicit PsVirtualClock(double rate = 1.0) : rate_(rate) {}

  /// Advances the clock to real time `now` (>= the last advance).
  void advance(double now) noexcept {
    if (!active_.empty()) {
      virtual_time_ += (now - last_update_) * rate_ / static_cast<double>(active_.size());
    }
    last_update_ = now;
  }

  /// Admits a unit-work customer at the time of the last advance.
  void admit(std::uint32_t customer) { active_.emplace(virtual_time_ + 1.0, customer); }

  /// Real time from the last advance until the head customer completes
  /// (never negative).  Precondition: !empty().
  [[nodiscard]] double gap_to_completion() const noexcept {
    const double gap = (active_.begin()->first - virtual_time_) *
                       static_cast<double>(active_.size()) / rate_;
    return gap > 0.0 ? gap : 0.0;
  }

  /// Removes the head customer and returns it; call advance() to the
  /// completion time first.  Precondition: !empty().
  std::uint32_t complete() {
    const auto head = active_.begin();
    const std::uint32_t customer = head->second;
    virtual_time_ = head->first;  // absorb rounding drift
    active_.erase(head);
    return customer;
  }

  [[nodiscard]] bool empty() const noexcept { return active_.empty(); }

 private:
  std::multimap<double, std::uint32_t> active_;  ///< completion tag -> customer
  double virtual_time_ = 0.0;
  double last_update_ = 0.0;
  double rate_;
};

/// Static description of one server.
struct LevelledServerSpec {
  double service_rate = 1.0;   ///< FIFO service time and PS rate are 1/this and this
  double external_rate = 0.0;  ///< Poisson external arrival rate
  std::vector<RoutingChoice> routing;  ///< targets must have larger indices
};

struct LevelledNetworkConfig {
  std::vector<LevelledServerSpec> servers;
  Discipline discipline = Discipline::kFifo;
  std::uint64_t seed = 1;
  /// When true, keeps a time-weighted occupancy tracker per server
  /// (needed by the queue-occupancy experiments; costs memory).
  bool track_per_server = false;
};

/// Per-server counters over the measurement window.
struct ServerStats {
  std::uint64_t external_arrivals = 0;
  std::uint64_t total_arrivals = 0;  ///< external + internal
  std::uint64_t departures = 0;      ///< service completions
  double mean_occupancy = 0.0;       ///< time-avg number present (if tracked)
};

class LevelledNetwork {
 public:
  explicit LevelledNetwork(LevelledNetworkConfig config);

  /// Record the cumulative number of network departures at each of the given
  /// (sorted, ascending) times.  Must be called before run().  Departure
  /// counts start at time 0 regardless of warm-up, because the dominance
  /// statement B(t) >= B~(t) of Lemma 10 is about counts from the origin.
  void set_checkpoints(std::vector<double> times);

  /// Runs the simulation on [0, horizon]; statistics other than the
  /// checkpoint counts cover the window [warmup, horizon].
  /// Precondition: 0 <= warmup <= horizon.
  void run(double warmup, double horizon);

  // --- results (valid after run()) ---

  /// Delay (network sojourn time) of customers that arrived inside the
  /// measurement window and departed before the horizon.
  [[nodiscard]] const Summary& delay() const noexcept { return stats_.delay(); }

  /// Time-average number of customers in the network over the window.
  [[nodiscard]] double time_avg_population() const noexcept {
    return stats_.time_avg_population();
  }

  /// Peak population since warm-up.
  [[nodiscard]] double peak_population() const noexcept {
    return stats_.peak_population();
  }

  /// Population remaining at the horizon (backlog; grows linearly iff unstable).
  [[nodiscard]] double final_population() const noexcept {
    return stats_.final_population();
  }

  /// Customers that left the network inside the measurement window.
  [[nodiscard]] std::uint64_t departures_in_window() const noexcept {
    return stats_.deliveries_in_window();
  }

  /// External arrivals inside the measurement window.
  [[nodiscard]] std::uint64_t arrivals_in_window() const noexcept {
    return stats_.arrivals_in_window();
  }

  /// Observed departure throughput over the window.
  [[nodiscard]] double throughput() const noexcept { return stats_.throughput(); }

  /// Little's-law self check over the window (KernelStats::little_check).
  [[nodiscard]] LittleCheck little_check() const noexcept {
    return stats_.little_check();
  }

  /// Cumulative departure counts at the requested checkpoints.
  [[nodiscard]] const std::vector<std::uint64_t>& checkpoint_departures() const noexcept {
    return checkpoint_counts_;
  }

  [[nodiscard]] const std::vector<ServerStats>& server_stats() const noexcept {
    return server_stats_;
  }

  [[nodiscard]] std::size_t num_servers() const noexcept { return servers_.size(); }

  /// The stateless routing uniform consumed by the k-th completion at server
  /// s under master seed `seed`.  Exposed for tests of the coupling.
  [[nodiscard]] static double coupled_uniform(std::uint64_t seed, std::uint32_t server,
                                              std::uint64_t k) noexcept {
    std::uint64_t state = derive_stream(seed ^ 0x5bf03635ul, (static_cast<std::uint64_t>(server) << 32) ^ k);
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  }

 private:
  enum class EventKind : std::uint8_t { kExternalArrival, kFifoDone, kPsDone };

  struct Ev {
    EventKind kind{};
    std::uint32_t server = 0;
    std::uint64_t stamp = 0;  ///< PS reschedule generation (stale-event filter)
  };

  struct Customer {
    double arrival_time = 0.0;
  };

  struct ServerState {
    // FIFO: customers in arrival order; front is in service.
    Ring<std::uint32_t> fifo;
    PsVirtualClock ps;
    std::uint64_t ps_stamp = 0;  ///< generation of the pending kPsDone event
    std::uint64_t completions = 0;  ///< routing-decision counter (the "k")
    Rng arrival_rng{0};
  };

  void enter_server(double now, std::uint32_t server, std::uint32_t customer);
  void complete_service(double now, std::uint32_t server, std::uint32_t customer);
  void ps_reschedule(double now, std::uint32_t server);
  void schedule_next_external(double now, std::uint32_t server);
  void on_network_departure(double now, std::uint32_t customer);

  LevelledNetworkConfig config_;
  std::vector<ServerState> servers_;
  Pool<Customer> customers_;
  EventQueue<Ev> events_;

  double warmup_ = 0.0;
  double now_ = 0.0;
  KernelStats stats_;
  std::uint64_t departures_total_ = 0;   // from time 0 (checkpoints)

  std::vector<double> checkpoints_;
  std::vector<std::uint64_t> checkpoint_counts_;
  std::size_t next_checkpoint_ = 0;

  std::vector<ServerStats> server_stats_;
};

}  // namespace routesim
