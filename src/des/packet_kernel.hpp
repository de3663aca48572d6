#pragma once
/// \file packet_kernel.hpp
/// \brief The shared packet-simulation kernel under every packet-level
///        routing simulator.
///
/// Every packet-level routing simulator runs on this one machinery: a
/// packet store with a free list, per-arc FIFO queues with windowed
/// counters, the Poisson / slotted / trace arrival process, warmup-window
/// accounting, population / delay / hops accumulators, optional occupancy
/// and delay-histogram tracking, and the Little's-law harvest.  The
/// paper's coupled comparisons (Props. 12-17) only mean something when
/// every scheme runs on *identical* arrival and measurement machinery, so
/// that machinery lives here once:
///
///   - `Pool<T>`         — index-based object pool with a free list;
///   - `Ring<T>`         — ring-buffer FIFO (the kernel's service-event
///                         ring; the levelled network's server queues);
///   - `KernelStats`     — measurement-window accounting and harvest;
///   - `PacketKernel<P>` — the core: event set, flat arc queues, arrival
///                         process and the drive loop over them, under
///                         TopologyGreedySim, GreedyMulticastSim and the
///                         static rounds' GreedyRound.
///
/// A scheme plugs in through hooks called by drive():
///   `on_spawn(t)`              sample origin/destination and inject
///                              (optional for a trace-only scheme);
///   `on_traced(t, org, dst)`   inject one replayed packet (optional);
///   `on_arc_done(t, arc)`      finish the arc's service and advance its
///                              packet one hop.
///
/// Everything here preserves the exact event order, RNG consumption order
/// and floating-point arithmetic of the pre-kernel simulators, so results
/// are bit-identical (pinned by tests/test_kernel_parity.cpp): drive()
/// pops events in the strict (time, seq) total order a priority queue
/// would.

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault_model.hpp"
#include "obs/trace.hpp"
#if defined(ROUTESIM_KERNEL_TRACE)
#include <string>

#include "obs/metrics.hpp"
#endif
#include "stats/histogram.hpp"
#include "stats/little.hpp"
#include "stats/summary.hpp"
#include "stats/timeavg.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace routesim {

/// Which waiting packet an arc serves next.  The paper's scheme is FIFO
/// ("priority is given to the one that arrived first", §3); LIFO and random
/// are ablations.  All three are work-conserving and blind to service
/// times, so the *mean* delay is unchanged — only the delay distribution's
/// shape (variance, tails) differs.  The ablation bench verifies exactly
/// this insensitivity.
enum class ArcServiceOrder : std::uint8_t { kFifo, kLifo, kRandom };

/// Per-arc counters over the measurement window.
struct ArcCounters {
  std::uint64_t external_arrivals = 0;  ///< packets starting their route here
  std::uint64_t total_arrivals = 0;     ///< all packets entering the queue
};

/// Index-based object pool with a free list.  allocate() returns an id whose
/// slot the caller assigns; release() recycles the id (most recently freed
/// first, preserving the allocation order of the pre-kernel free lists).
/// clear() forgets all objects but keeps the storage, so a kernel reused
/// across replications does not reallocate.
template <typename T>
class Pool {
 public:
  [[nodiscard]] std::uint32_t allocate() {
    std::uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<std::uint32_t>(items_.size());
      items_.emplace_back();
    }
    return id;
  }

  void release(std::uint32_t id) { free_.push_back(id); }

  [[nodiscard]] T& operator[](std::uint32_t id) {
    RS_DASSERT(id < items_.size());
    return items_[id];
  }
  [[nodiscard]] const T& operator[](std::uint32_t id) const {
    RS_DASSERT(id < items_.size());
    return items_[id];
  }

  void reserve(std::size_t n) {
    items_.reserve(n);
    free_.reserve(n);
  }

  void clear() noexcept {
    items_.clear();
    free_.clear();
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

/// Ring-buffer FIFO with power-of-two capacity: push_back/pop_front in one
/// contiguous allocation instead of std::deque's chunk map.  An empty ring
/// owns no memory, which matters when a network instantiates one queue per
/// server and most are idle.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  [[nodiscard]] const T& front() const {
    RS_DASSERT(count_ > 0);
    return buf_[head_];
  }
  /// i-th element counted from the front (deque-compatible indexing).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    RS_DASSERT(i < count_);
    return buf_[wrap(head_ + i)];
  }

  void push_back(T value) {
    if (count_ == buf_.size()) grow();
    buf_[wrap(head_ + count_)] = value;
    ++count_;
  }

  T pop_front() {
    RS_DASSERT(count_ > 0);
    const T value = buf_[head_];
    head_ = wrap(head_ + 1);
    --count_;
    return value;
  }

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

  void reserve(std::size_t n) {
    if (n <= buf_.size()) return;
    std::size_t cap = buf_.empty() ? 8 : buf_.size();
    while (cap < n) cap *= 2;
    rebuild(cap);
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i & (buf_.size() - 1);
  }

  void grow() { rebuild(buf_.empty() ? 8 : 2 * buf_.size()); }

  void rebuild(std::size_t cap) {
    std::vector<T> bigger(cap);
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = buf_[wrap(head_ + i)];
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< power-of-two capacity (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Measurement-window accounting shared by every simulator: the delay /
/// hops / population accumulators, the windowed arrival / delivery / drop
/// counters, optional occupancy trackers and delay histogram, and the
/// end-of-run harvest (time averages, throughput, Little's-law check).
/// configure() fixes the static shape; begin() resets all values, so one
/// instance serves many replications without reallocating.
class KernelStats {
 public:
  struct Config {
    /// Number of time-weighted occupancy trackers (0 = tracking off).  The
    /// greedy simulator indexes them by its topology's occupancy group (a
    /// node; a level on the butterfly), the levelled network by server.
    std::size_t occupancy_trackers = 0;
    bool delay_histogram = false;
    double histogram_lo = 0.0;
    double histogram_bin_width = 1.0;
    std::size_t histogram_bins = 1;
  };

  void configure(const Config& config) { config_ = config; }

  /// Opens the measurement window [warmup, horizon] and resets every
  /// accumulator (keeping storage).
  void begin(double warmup, double horizon);

  [[nodiscard]] double warmup() const noexcept { return warmup_; }

  // --- accounting (hot path) --------------------------------------------

  /// One packet entered the network: windowed arrival count + population.
  void count_arrival(double now) {
    if (now >= warmup_) ++arrivals_window_;
    population_.add(now, +1.0);
  }

  /// One packet reached its destination: delay / hops / histogram, counted
  /// iff it was generated inside the window (the paper's convention).
  /// `stretch` > 0 additionally feeds the path-stretch accumulator (hops
  /// divided by the packet's fault-free path length).
  void record_delivery(double now, double gen_time, double hops,
                       double stretch = 0.0) {
    if (gen_time >= warmup_) {
      ++deliveries_window_;
      const double delay = now - gen_time;
      delay_.add(delay);
      hops_.add(hops);
      if (stretch > 0.0) stretch_.add(stretch);
      if (delay_histogram_) delay_histogram_->add(delay);
    }
  }

  /// Windowed delivery count alone — for schemes (the levelled network)
  /// that count departures by departure time rather than generation time.
  void count_delivery() noexcept { ++deliveries_window_; }

  void count_drop(double now) {
    if (now >= warmup_) ++drops_window_;
  }

  /// A packet lost to a fault (dead arc / dead node / TTL exhaustion) —
  /// kept separate from finite-buffer drops so the two loss sources stay
  /// distinguishable in the harvested metrics.  Counted iff the packet was
  /// *generated* inside the window, the same convention record_delivery
  /// uses, so the delivery ratio compares like with like.
  void count_fault_drop(double gen_time) {
    if (gen_time >= warmup_) ++fault_drops_window_;
  }

  void occupancy_add(std::size_t tracker, double now, double delta) {
    if (!occupancy_.empty()) occupancy_[tracker].add(now, delta);
  }

  /// Direct accumulator access for scheme-specific bookkeeping.
  [[nodiscard]] Summary& delay() noexcept { return delay_; }
  [[nodiscard]] const Summary& delay() const noexcept { return delay_; }
  [[nodiscard]] Summary& hops() noexcept { return hops_; }
  [[nodiscard]] const Summary& hops() const noexcept { return hops_; }
  [[nodiscard]] Summary& stretch() noexcept { return stretch_; }
  [[nodiscard]] const Summary& stretch() const noexcept { return stretch_; }
  [[nodiscard]] TimeWeighted& population() noexcept { return population_; }

  /// Restarts the time-weighted trackers when the window opens mid-run.
  void reset_at_warmup(double warmup) {
    population_.reset(warmup);
    for (auto& occ : occupancy_) occ.reset(warmup);
  }

  /// Harvests the derived results.  `pending_reset` is true when no event
  /// fired at or after the warmup time (the population tracker still needs
  /// its reset, exactly as the pre-kernel simulators did it).
  void finalize(double warmup, double horizon, bool pending_reset);

  // --- results (valid after finalize()) ---------------------------------

  [[nodiscard]] double time_avg_population() const noexcept { return time_avg_population_; }
  [[nodiscard]] double peak_population() const noexcept { return peak_population_; }
  [[nodiscard]] double final_population() const noexcept { return final_population_; }
  [[nodiscard]] double throughput() const noexcept { return throughput_; }
  [[nodiscard]] std::uint64_t deliveries_in_window() const noexcept { return deliveries_window_; }
  [[nodiscard]] std::uint64_t arrivals_in_window() const noexcept { return arrivals_window_; }
  [[nodiscard]] std::uint64_t drops_in_window() const noexcept { return drops_window_; }
  [[nodiscard]] std::uint64_t fault_drops_in_window() const noexcept {
    return fault_drops_window_;
  }

  /// Windowed delivery ratio: deliveries over every packet whose fate was
  /// decided (delivered, buffer-dropped or fault-dropped).  Deliveries and
  /// fault drops are windowed by generation time; buffer drops keep their
  /// pre-existing (pinned) drop-time windowing.  1 when nothing was
  /// decided; exactly 1 with no faults and infinite buffers.
  [[nodiscard]] double delivery_ratio() const noexcept {
    const double decided = static_cast<double>(deliveries_window_ +
                                               drops_window_ + fault_drops_window_);
    return decided == 0.0 ? 1.0
                          : static_cast<double>(deliveries_window_) / decided;
  }

  /// Mean path stretch (hops / fault-free path length) over delivered
  /// packets; 1 when no stretch observations were recorded (also the exact
  /// value on a fault-free network).
  [[nodiscard]] double mean_stretch() const noexcept {
    return stretch_.empty() ? 1.0 : stretch_.mean();
  }

  /// Delay quantile from the delay histogram; 0 when the histogram is off
  /// or empty.
  [[nodiscard]] double delay_quantile(double q) const {
    return delay_histogram_ && delay_histogram_->count() > 0
               ? delay_histogram_->quantile(q)
               : 0.0;
  }

  /// Mean occupancy per tracker (empty when tracking is off).
  [[nodiscard]] const std::vector<double>& occupancy_means() const noexcept {
    return occupancy_means_;
  }
  [[nodiscard]] double occupancy_mean(std::size_t tracker) const {
    return occupancy_means_.at(tracker);
  }
  /// Largest instantaneous tracker value seen in the window.
  [[nodiscard]] double max_occupancy() const noexcept { return max_occupancy_; }

  [[nodiscard]] const std::optional<Histogram>& delay_histogram() const noexcept {
    return delay_histogram_;
  }

  /// Little's-law self check over the window (L = lambda * W).
  [[nodiscard]] LittleCheck little_check() const noexcept {
    LittleCheck check;
    check.time_avg_population = time_avg_population_;
    check.arrival_rate =
        window_ > 0.0 ? static_cast<double>(arrivals_window_) / window_ : 0.0;
    check.mean_sojourn = delay_.mean();
    return check;
  }

 private:
  Config config_{};
  double warmup_ = 0.0;
  double window_ = 0.0;
  Summary delay_;
  Summary hops_;
  Summary stretch_;
  TimeWeighted population_;
  std::vector<TimeWeighted> occupancy_;
  std::vector<double> occupancy_means_;
  std::optional<Histogram> delay_histogram_;
  std::uint64_t deliveries_window_ = 0;
  std::uint64_t arrivals_window_ = 0;
  std::uint64_t drops_window_ = 0;
  std::uint64_t fault_drops_window_ = 0;
  double time_avg_population_ = 0.0;
  double peak_population_ = 0.0;
  double final_population_ = 0.0;
  double max_occupancy_ = 0.0;
  double throughput_ = 0.0;
};

/// Sentinel for "no occupancy tracker" in PacketKernel::enqueue/finish_arc.
inline constexpr std::size_t kNoTracker = static_cast<std::size_t>(-1);

/// The delay-tail tracking convention shared by the packet schemes:
/// unit-width bins over [0, 64*d] — the same 64*d that bounds the default
/// fault TTL, so a TTL-length walk still lands inside the histogram.
inline void enable_delay_tail_tracking(KernelStats::Config& config, int d) {
  config.delay_histogram = true;
  config.histogram_lo = 0.0;
  config.histogram_bin_width = 1.0;
  config.histogram_bins = static_cast<std::size_t>(64) * static_cast<std::size_t>(d);
}

/// Static description of one kernel instance; configure() may be called
/// repeatedly (replication reuse) — storage is kept, state is reset.
struct PacketKernelConfig {
  std::size_t num_arcs = 0;
  std::uint64_t seed = 1;
  std::uint64_t stream_salt = 0;  ///< scheme-specific RNG stream id
  /// Aggregate external arrival rate (sum over sources).  Continuous mode
  /// draws exponential gaps at this rate; slotted mode draws
  /// Poisson(birth_rate * slot) batch sizes.
  double birth_rate = 0.0;
  double slot = 0.0;  ///< > 0: slotted arrivals at k*slot (§3.4)
  const PacketTrace* trace = nullptr;  ///< replay instead of generating
  ArcServiceOrder service_order = ArcServiceOrder::kFifo;
  std::uint32_t buffer_capacity = 0;  ///< max per arc incl. in service; 0 = infinite
  /// Pre-reserve hint: expected peak number of packets in flight.
  std::size_t expected_packets = 0;
  /// Non-owning fault model (src/fault/fault_model.hpp); null = pristine
  /// network.  The owning scheme must configure it before drive(); when
  /// its dynamic process is on, the kernel drives up/down transitions
  /// through its control-event slot in global (time, seq) order.
  FaultModel* fault_model = nullptr;
  KernelStats::Config stats{};
};

/// The event-driven core: pending-event set, per-arc queues, arrival
/// process and statistics, generic over the scheme's packet type `Pkt`.
/// The scheme owns the routing decision; the kernel owns everything else.
///
/// **The fast event set.**  A general pending-event set needs a priority
/// queue, but the kernel's events have special structure: every service
/// completion is scheduled at now + 1.0 (unit-length packets), and the
/// simulation clock is nondecreasing, so service completions are *pushed
/// in nondecreasing (time, seq) order* — a plain FIFO ring already holds
/// them sorted.  The only competing events are the arrival-process control
/// events (next birth / next slot / next trace record), of which at most
/// one is outstanding at any moment.  The event set is therefore a
/// monotone ring plus a single control slot; each pop is one (time, seq)
/// comparison — O(1) instead of O(log n) heap sifts — and extraction
/// order is *identical* to the heap's strict (time, seq) total order.
///
/// **The arc queues.**  A packet waits at one arc at a time, so every arc's
/// FIFO is threaded through one per-packet array (`link_[p]` is the packet
/// behind p) and an arc keeps only a 12-byte head/tail/size header — no
/// separately allocated buffer per arc.
template <typename Pkt>
class PacketKernel {
 public:
  enum class EventKind : std::uint8_t { kBirth, kSlot };

  void configure(const PacketKernelConfig& config) {
    config_ = config;
    rng_.reseed(derive_stream(config.seed, config.stream_salt));
    arc_queue_.assign(config.num_arcs, ArcQueue{});
    arc_counters_.assign(config.num_arcs, ArcCounters{});
    service_events_.clear();
    // Pre-reserve from the expected load: the event set holds at most one
    // service completion per busy arc.
    service_events_.reserve(config.num_arcs / 2 + 16);
    has_control_ = false;
    has_fault_control_ = false;
    next_seq_ = 0;
    pool_.clear();
    link_.clear();
    // Default reserve hint for trace replay: a quarter of the trace is a
    // comfortable bound on simultaneously in-flight packets.
    std::size_t expected = config.expected_packets;
    if (expected == 0 && config.trace != nullptr) {
      expected = config.trace->packets.size() / 4 + 64;
    }
    pool_.reserve(expected);
    link_.reserve(expected);
    stats_.configure(config.stats);
  }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] KernelStats& stats() noexcept { return stats_; }
  [[nodiscard]] const KernelStats& stats() const noexcept { return stats_; }

  [[nodiscard]] Pkt& packet(std::uint32_t id) { return pool_[id]; }
  [[nodiscard]] const Pkt& packet(std::uint32_t id) const { return pool_[id]; }
  [[nodiscard]] std::uint32_t allocate_packet() {
    const std::uint32_t id = pool_.allocate();
    if (id == link_.size()) link_.push_back(0);  // a new slot, not a reuse
    return id;
  }

  [[nodiscard]] const std::vector<ArcCounters>& arc_counters() const noexcept {
    return arc_counters_;
  }

  [[nodiscard]] const FaultModel* fault_model() const noexcept {
    return config_.fault_model;
  }

  /// O(1): is the arc down right now?  Always false without a fault model.
  [[nodiscard]] bool arc_faulty(std::uint32_t arc) const noexcept {
    return config_.fault_model != nullptr && config_.fault_model->is_faulty(arc);
  }

  /// Windowed arrival accounting for a freshly injected packet.
  void count_arrival(double now) { stats_.count_arrival(now); }

  /// Appends the packet to the arc's queue, schedules the arc's service
  /// completion if it was idle, and maintains counters / occupancy
  /// (`tracker` indexes the stats occupancy tracker; kNoTracker skips it).
  /// Returns false when a finite buffer was full and the packet dropped.
  bool enqueue(double now, std::uint32_t arc, std::uint32_t pkt, bool external,
               std::size_t tracker = kNoTracker) {
    ArcQueue& queue = arc_queue_[arc];
    if (config_.buffer_capacity > 0 && queue.size >= config_.buffer_capacity) {
      drop(now, pkt);
      return false;
    }
    if (now >= stats_.warmup()) {
      auto& counters = arc_counters_[arc];
      ++counters.total_arrivals;
      if (external) ++counters.external_arrivals;
    }
    if (tracker != kNoTracker) stats_.occupancy_add(tracker, now, +1.0);
    (queue.size == 0 ? queue.head : link_[queue.tail]) = pkt;
    queue.tail = pkt;
    if (++queue.size == 1) schedule_service(now + 1.0, arc, pkt);
    return true;
  }

  /// Completes one unit service at the arc: dequeues the packet in service,
  /// applies the service-order ablation to pick the next one, reschedules
  /// the arc if packets wait, and returns the completed packet's id.
  std::uint32_t finish_arc(double now, std::uint32_t arc,
                           std::size_t tracker = kNoTracker) {
    ArcQueue& queue = arc_queue_[arc];
    RS_DASSERT(queue.size > 0);
    const std::uint32_t pkt = queue.head;
    if (--queue.size > 0) {
      queue.head = link_[pkt];
      // The head is always the packet in service and the rest stay in
      // arrival order, so LIFO serves the most recent arrival and random
      // picks uniformly among the waiting packets.
      if (config_.service_order == ArcServiceOrder::kLifo) {
        move_to_head(queue, queue.size - 1);
      } else if (config_.service_order == ArcServiceOrder::kRandom) {
        move_to_head(queue, rng_.uniform_below(queue.size));
      }
      schedule_service(now + 1.0, arc, queue.head);
    }
    if (tracker != kNoTracker) stats_.occupancy_add(tracker, now, -1.0);
    return pkt;
  }

  /// Full delivery: statistics + population + packet recycling.  `stretch`
  /// > 0 feeds the path-stretch accumulator (see KernelStats).
  void deliver(double now, std::uint32_t pkt, double gen_time, double hops,
               double stretch = 0.0) {
    stats_.record_delivery(now, gen_time, hops, stretch);
    stats_.population().add(now, -1.0);
    pool_.release(pkt);
  }

  /// Finite-buffer loss: drop statistics + population + recycling.
  void drop(double now, std::uint32_t pkt) {
    stats_.count_drop(now);
    stats_.population().add(now, -1.0);
    pool_.release(pkt);
  }

  /// Fault loss (dead arc / dead node / TTL): counted separately from
  /// finite-buffer drops, windowed by the packet's generation time (the
  /// delivery convention).  Requires Pkt to expose `gen_time`.
  void drop_faulty(double now, std::uint32_t pkt) {
    stats_.count_fault_drop(pool_[pkt].gen_time);
    stats_.population().add(now, -1.0);
    pool_.release(pkt);
  }

  /// Removes a packet from the network without delivery accounting
  /// (multicast copies that merged into another branch's statistics).
  void retire(double now, std::uint32_t pkt) {
    stats_.population().add(now, -1.0);
    pool_.release(pkt);
  }

  /// The main loop: seeds the arrival process, dispatches events on
  /// [0, horizon] to the scheme's hooks, and harvests the statistics over
  /// [warmup, horizon].
  template <typename Scheme>
  void drive(Scheme& scheme, double warmup, double horizon) {
    RS_EXPECTS(warmup >= 0.0 && warmup <= horizon);
    stats_.begin(warmup, horizon);
    // Observability (docs/OBSERVABILITY.md): one span per drive() call on
    // the ambient session — a single thread-local load plus branch when
    // tracing is off (BM_TraceOverhead pins the cost) — and per-event
    // counters only when the build opts into ROUTESIM_KERNEL_TRACE, so
    // the default dispatch loop is untouched.  Nothing here draws RNG or
    // reorders events; results stay bit-identical with tracing on
    // (tests/test_kernel_parity.cpp runs every pin under a live session).
    obs::TraceSpan drive_span(obs::thread_trace(), "kernel.drive", "kernel");
    RS_KERNEL_TRACE_ONLY(
        std::uint64_t ktrace_events = 0; std::uint64_t ktrace_service = 0;
        std::uint64_t ktrace_slot_ticks = 0;
        std::uint64_t ktrace_slot_packets = 0;
        std::uint64_t ktrace_slot_batch_max = 0;)

    if (config_.trace != nullptr) {
      trace_pos_ = 0;
      if (!config_.trace->packets.empty()) {
        schedule_control(config_.trace->packets.front().time, EventKind::kBirth);
      }
    } else if (config_.slot > 0.0) {
      schedule_control(0.0, EventKind::kSlot);
    } else if (config_.birth_rate > 0.0) {
      schedule_control(sample_exponential(rng_, config_.birth_rate),
                       EventKind::kBirth);
    }
    if (config_.fault_model != nullptr && config_.fault_model->dynamic()) {
      schedule_fault(config_.fault_model->next_transition_time());
    }

    bool stats_reset = warmup == 0.0;
    for (;;) {
      // Earliest of (single arrival control event, single fault control
      // event, front of the monotone service ring) under the strict
      // (time, seq) order — identical to a heap's extraction order,
      // without the heap.  The fault slot is empty for pristine networks,
      // so the fault-free pop reduces to the two-way comparison.
      enum class Source : std::uint8_t { kControl, kFault, kService };
      Source source = Source::kControl;
      bool found = has_control_;
      double t = control_time_;
      std::uint64_t seq = control_seq_;
      if (has_fault_control_ &&
          (!found || fault_time_ < t || (fault_time_ == t && fault_seq_ < seq))) {
        source = Source::kFault;
        found = true;
        t = fault_time_;
        seq = fault_seq_;
      }
      if (!service_events_.empty()) {
        const ServiceEvent& head = service_events_.front();
        if (!found || head.time < t || (head.time == t && head.seq < seq)) {
          source = Source::kService;
          found = true;
          t = head.time;
        }
      }
      if (!found || t > horizon) break;
      RS_KERNEL_TRACE_ONLY(++ktrace_events;)
      if (!stats_reset && t >= warmup) {
        stats_.reset_at_warmup(warmup);
        stats_reset = true;
      }

      if (source == Source::kService) {
        RS_KERNEL_TRACE_ONLY(++ktrace_service;)
        // The service ring lists the next completions in order, each with
        // its arc and packet: request the arc header kFar events ahead and
        // the packet record kNear ahead.  Prefetching is purely a hint: a
        // stale target is a wasted fetch, never a wrong result.
        const std::size_t pending = service_events_.size();
        if (pending > kFar) prefetch(&arc_queue_[service_events_[kFar].arc]);
        if (pending > kNear) prefetch(&pool_[service_events_[kNear].pkt]);
        const std::uint32_t arc = service_events_.pop_front().arc;
        scheme.on_arc_done(t, arc);
        continue;
      }
      if (source == Source::kFault) {
        has_fault_control_ = false;
        config_.fault_model->advance_to(t);
        schedule_fault(config_.fault_model->next_transition_time());
        continue;
      }
      const EventKind kind = control_kind_;
      has_control_ = false;
      if (kind == EventKind::kBirth) {
        if (config_.trace != nullptr) {
          const auto& traced = config_.trace->packets[trace_pos_++];
          if constexpr (requires {
                          scheme.on_traced(t, traced.origin, traced.destination);
                        }) {
            scheme.on_traced(t, traced.origin, traced.destination);
          } else {
            RS_EXPECTS_MSG(false, "scheme has no trace-replay hook");
          }
          if (trace_pos_ < config_.trace->packets.size()) {
            schedule_control(config_.trace->packets[trace_pos_].time,
                             EventKind::kBirth);
          }
        } else {
          spawn(scheme, t);
          schedule_control(t + sample_exponential(rng_, config_.birth_rate),
                           EventKind::kBirth);
        }
      } else {  // kSlot
        const std::uint64_t batch =
            sample_poisson(rng_, config_.birth_rate * config_.slot);
        RS_KERNEL_TRACE_ONLY(
            ++ktrace_slot_ticks; ktrace_slot_packets += batch;
            if (batch > ktrace_slot_batch_max) ktrace_slot_batch_max = batch;)
        for (std::uint64_t i = 0; i < batch; ++i) spawn(scheme, t);
        schedule_control(t + config_.slot, EventKind::kSlot);
      }
    }

    stats_.finalize(warmup, horizon, !stats_reset);
    RS_KERNEL_TRACE_ONLY({
      if (obs::TraceSession* session = obs::thread_trace();
          session != nullptr) {
        session->instant(
            "kernel.summary", "kernel",
            "{\"events\":" + std::to_string(ktrace_events) +
                ",\"service\":" + std::to_string(ktrace_service) +
                ",\"slot_ticks\":" + std::to_string(ktrace_slot_ticks) +
                ",\"slot_packets\":" + std::to_string(ktrace_slot_packets) +
                ",\"slot_batch_max\":" +
                std::to_string(ktrace_slot_batch_max) + "}");
      }
      auto& registry = obs::global_metrics();
      registry.counter("routesim_kernel_events_total")
          .add(static_cast<double>(ktrace_events));
      registry.counter("routesim_kernel_slot_ticks_total")
          .add(static_cast<double>(ktrace_slot_ticks));
    });
  }

 private:
  struct ServiceEvent {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< global insertion sequence (tie-break)
    std::uint32_t arc = 0;
    std::uint32_t pkt = 0;  ///< the packet in service (a prefetch target)
  };

  /// One arc's FIFO (class comment): `head` is the packet in service and
  /// `link_` leads from it to `tail`; both are meaningless when size is 0.
  struct ArcQueue { std::uint32_t head = 0, tail = 0, size = 0; };

  /// Software-pipelining distances of drive()'s prefetches, in events.
  static constexpr std::size_t kFar = 16;
  static constexpr std::size_t kNear = 8;

  /// The scheme's on_spawn hook; a trace-only scheme has none.
  template <typename Scheme>
  static void spawn(Scheme& scheme, double t) {
    if constexpr (requires { scheme.on_spawn(t); }) {
      scheme.on_spawn(t);
    } else {
      RS_EXPECTS_MSG(false, "scheme has no spawn hook");
    }
  }

  /// Moves the packet i places behind the head to the head, keeping the
  /// others in order — the LIFO and random ablations' pick.  O(i).
  void move_to_head(ArcQueue& queue, std::uint64_t i) {
    if (i == 0) return;
    std::uint32_t prev = queue.head;
    for (std::uint64_t j = 1; j < i; ++j) prev = link_[prev];
    const std::uint32_t chosen = link_[prev];
    link_[prev] = link_[chosen];
    if (chosen == queue.tail) queue.tail = prev;
    link_[chosen] = queue.head;
    queue.head = chosen;
  }

  /// Schedules the completion of `pkt`'s service at `arc` on the monotone
  /// service ring.  Completions are pushed with nondecreasing times (now +
  /// 1.0 under a nondecreasing clock), so the ring stays sorted by (time,
  /// seq).
  void schedule_service(double time, std::uint32_t arc, std::uint32_t pkt) {
    RS_DASSERT(service_events_.empty() ||
               service_events_[service_events_.size() - 1].time <= time);
    service_events_.push_back(ServiceEvent{time, next_seq_++, arc, pkt});
  }

  /// Cache-prefetch hint (no-op where unsupported); purely a performance
  /// hint, never observable in results.
  static void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  /// At most one arrival-process control event is outstanding at a time.
  void schedule_control(double time, EventKind kind) {
    RS_DASSERT(!has_control_);
    control_time_ = time;
    control_seq_ = next_seq_++;
    control_kind_ = kind;
    has_control_ = true;
  }

  /// At most one fault-transition control event is outstanding at a time;
  /// an infinite time (exhausted dynamic process) leaves the slot empty.
  void schedule_fault(double time) {
    RS_DASSERT(!has_fault_control_);
    if (!std::isfinite(time)) return;
    fault_time_ = time;
    fault_seq_ = next_seq_++;
    has_fault_control_ = true;
  }

  PacketKernelConfig config_{};
  Rng rng_;
  Pool<Pkt> pool_;
  std::vector<ArcQueue> arc_queue_;
  /// Per packet id, the next packet in its arc's queue; one slot per pool slot.
  std::vector<std::uint32_t> link_;
  std::vector<ArcCounters> arc_counters_;
  Ring<ServiceEvent> service_events_;
  bool has_control_ = false;
  double control_time_ = 0.0;
  std::uint64_t control_seq_ = 0;
  EventKind control_kind_ = EventKind::kBirth;
  bool has_fault_control_ = false;
  double fault_time_ = 0.0;
  std::uint64_t fault_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  KernelStats stats_;
  std::size_t trace_pos_ = 0;
};

}  // namespace routesim
