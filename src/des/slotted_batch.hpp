#pragma once
/// \file slotted_batch.hpp
/// \brief The soa_batch kernel backend: per-arc batch processing of the
///        unit-time service ring, stepped slot by slot over a
///        structure-of-arrays packet store.
///
/// **Why batches are legal.**  In slotted mode every event time is a
/// multiple of the slot length: packets spawn at slot boundaries k*slot and
/// every service completes exactly 1.0 after it starts, so the whole event
/// population at one instant t is "every arc whose head-of-line service
/// completes at t", plus possibly the slot-control event.  The scalar
/// kernel pops these one by one through its (time, seq) total order; the
/// batch backend pops them as one *batch* — a vector of distinct arcs in
/// scheduling order — and replays the scalar per-event order inside the
/// batch:
///
///   - services precede the slot control at equal times: a completion at t
///     was scheduled at t - 1.0, the slot control at t - slot >= t - 1.0,
///     and at slot == 1.0 the scalar drive loop injects the slot's spawns
///     (scheduling their services) *before* re-arming the control — so the
///     control's seq always exceeds every service seq at a tie;
///   - appends during processing at time t always target t + 1.0, which is
///     >= every outstanding batch time (the clock is nondecreasing and
///     x -> x + 1.0 is monotone in floating point), so the batch wheel
///     stays sorted by construction — no priority queue, no per-event
///     (time, seq) records at all;
///   - two distinct times can round to the same t + 1.0; appending to the
///     back batch whenever the time matches preserves the scalar's seq
///     order within the shared batch.
///
/// **The two-phase step.**  Each batch is processed as
///   Phase A (route): gather the head-of-line packet of every arc in the
///     batch and compute its next arc (or a deliver / fault-drop sentinel)
///     from the SoA arrays.  Queue fronts are stable under Phase B's
///     pushes — a push lands at the *back* of a queue, and the batch's arcs
///     are distinct — so the gather is exact.  Scheme RNG draws (fault
///     reroutes) happen here in batch order, which is the scalar's event
///     order; the RNG stream is disjoint from the statistics state, so the
///     coarser interleaving is unobservable.  Without faults this loop is
///     branch-light, structure-of-arrays arithmetic — the auto-vectorizable
///     shape (no intrinsics).
///   Phase B (commit): replay the scalar bookkeeping exactly, packet by
///     packet in batch order — pop, reschedule the arc if busy, occupancy,
///     then deliver / drop / enqueue with the identical statistics calls.
///
/// The driver borrows the owning PacketKernel's Rng, KernelStats and arc
/// counters, so every draw and every accumulator update goes through the
/// same objects in the same order as the scalar path: results are
/// bit-identical, pinned by tests/test_kernel_parity.cpp.
///
/// Not every scalar feature batches: the backend requires slotted time
/// (slot > 0), FIFO arc service, and a static fault set (a dynamic up/down
/// process and continuous/trace arrivals put control events at arbitrary
/// times, where the services-first tie rule above does not hold).  Adopting
/// schemes validate those restrictions at scenario-compile time.

#include <algorithm>
#include <vector>

#include "des/packet_kernel.hpp"
#include "des/soa_store.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace routesim {

/// Everything the batch driver borrows or needs to know; the owning scheme
/// fills this from its PacketKernelConfig after kernel.configure() (so the
/// Rng is already reseeded and the stats shape fixed).
struct SlottedBatchContext {
  std::size_t num_arcs = 0;
  double birth_rate = 0.0;  ///< aggregate external arrival rate
  double slot = 0.0;        ///< slot length; must be > 0
  std::uint32_t buffer_capacity = 0;  ///< max per arc incl. in service; 0 = inf
  std::size_t expected_packets = 0;   ///< pre-reserve hint for the store
  Rng* rng = nullptr;                        ///< the kernel's RNG (borrowed)
  KernelStats* stats = nullptr;              ///< the kernel's stats (borrowed)
  std::vector<ArcCounters>* arc_counters = nullptr;  ///< kernel's (borrowed)
};

/// The batch stepping engine.  A scheme plugs in with a Policy providing:
///   spawn(now)                          inject one packet (slot births);
///   route_batch(now, arcs, pkts, next, n)
///                                       Phase A: next[i] = next arc of the
///                                       packet completing arcs[i], or
///                                       kDeliver / kDropFault;
///   complete(now, pkt, next)            Phase B tail: deliver / fault-drop
///                                       / enqueue the routed packet;
///   finish_tracker(arc)                 occupancy tracker decremented when
///                                       a service at `arc` completes
///                                       (kNoTracker = none).
class SlottedBatchDriver {
 public:
  /// Phase A sentinel: the packet reached its destination.
  static constexpr std::uint32_t kDeliver = 0xFFFFFFFFu;
  /// Phase A sentinel: the packet is lost to a fault (dead arc / TTL).
  static constexpr std::uint32_t kDropFault = 0xFFFFFFFEu;

  void configure(const SlottedBatchContext& ctx) {
    RS_EXPECTS(ctx.rng != nullptr && ctx.stats != nullptr &&
               ctx.arc_counters != nullptr);
    RS_EXPECTS_MSG(ctx.slot > 0.0, "the soa_batch backend is slotted-only");
    ctx_ = ctx;
    if (queues_.size() != ctx.num_arcs) queues_.resize(ctx.num_arcs);
    for (auto& queue : queues_) queue.clear();
    wheel_head_ = 0;
    wheel_size_ = 0;
    wheel_back_time_ = -1.0;
    wheel_back_items_ = nullptr;
    store_.clear();
    if (ctx.expected_packets > 0) store_.reserve(ctx.expected_packets);
  }

  [[nodiscard]] SoaPacketStore& store() noexcept { return store_; }
  [[nodiscard]] Rng& rng() noexcept { return *ctx_.rng; }
  [[nodiscard]] KernelStats& stats() noexcept { return *ctx_.stats; }

  /// Item capacity held by the wheel's batch slots.  Slots are reused in
  /// place, so this is bounded by (live batches) x (arcs) — about
  /// (1/slot + 2) x num_arcs — whatever the horizon.
  [[nodiscard]] std::size_t retained_batch_capacity() const noexcept {
    std::size_t total = 0;
    for (const Batch& batch : wheel_) total += batch.items.capacity();
    return total;
  }

  void count_arrival(double now) { ctx_.stats->count_arrival(now); }

  /// Mirror of PacketKernel::enqueue (FIFO service only): same buffer
  /// check, counters, occupancy and scheduling decision, with the service
  /// ring replaced by a batch-wheel append.  Always inlined: it is the
  /// per-hop step of every policy's Phase B.
  [[gnu::always_inline]] bool enqueue(double now, std::uint32_t arc,
                                      std::uint32_t pkt, bool external,
                                      std::size_t tracker = kNoTracker) {
    auto& queue = queues_[arc];
    if (ctx_.buffer_capacity > 0 && queue.size() >= ctx_.buffer_capacity) {
      drop(now, pkt);
      return false;
    }
    if (now >= ctx_.stats->warmup()) {
      auto& counters = (*ctx_.arc_counters)[arc];
      ++counters.total_arrivals;
      if (external) ++counters.external_arrivals;
    }
    if (occupancy_on_ && tracker != kNoTracker) {
      ctx_.stats->occupancy_add(tracker, now, +1.0);
    }
    queue.push_back(pkt);
    if (queue.size() == 1) wheel_push(now + 1.0, arc, pkt);
    return true;
  }

  /// Mirrors of PacketKernel::deliver / drop / drop_faulty, against the SoA
  /// store's free list.
  void deliver(double now, std::uint32_t pkt, double gen_time, double hops,
               double stretch = 0.0) {
    ctx_.stats->record_delivery(now, gen_time, hops, stretch);
    ctx_.stats->population().add(now, -1.0);
    store_.release(pkt);
  }

  void drop(double now, std::uint32_t pkt) {
    ctx_.stats->count_drop(now);
    ctx_.stats->population().add(now, -1.0);
    store_.release(pkt);
  }

  void drop_faulty(double now, std::uint32_t pkt) {
    ctx_.stats->count_fault_drop(store_.gen_time[pkt]);
    ctx_.stats->population().add(now, -1.0);
    store_.release(pkt);
  }

  /// The batch main loop; event-for-event equivalent to the scalar
  /// PacketKernel::drive over the same slotted scenario.
  template <typename Policy>
  void drive(Policy& policy, double warmup, double horizon) {
    RS_EXPECTS(warmup >= 0.0 && warmup <= horizon);
    ctx_.stats->begin(warmup, horizon);
    // Same observability contract as PacketKernel::drive: one ambient
    // span per drive() call, per-tick counters only under
    // ROUTESIM_KERNEL_TRACE, nothing that draws RNG or reorders events.
    obs::TraceSpan drive_span(obs::thread_trace(), "kernel.batch_drive",
                              "kernel");
    RS_KERNEL_TRACE_ONLY(
        std::uint64_t ktrace_wheel_ticks = 0;
        std::uint64_t ktrace_batch_events = 0;
        std::uint64_t ktrace_batch_max = 0;)
    // Hoisted occupancy_add() no-op check (the tracker vector is sized by
    // begin(), so the flag is only valid from here on).
    occupancy_on_ = ctx_.stats->occupancy_enabled();
    double slot_time = 0.0;  // accumulated exactly like the scalar control
    bool stats_reset = warmup == 0.0;
    for (;;) {
      // Services precede the slot control at equal times (header proof).
      if (wheel_size_ > 0 && wheel_[wheel_head_].time <= slot_time) {
        const double t = wheel_[wheel_head_].time;
        if (t > horizon) break;
        if (!stats_reset && t >= warmup) {
          ctx_.stats->reset_at_warmup(warmup);
          stats_reset = true;
        }
        RS_KERNEL_TRACE_ONLY(
            ++ktrace_wheel_ticks;
            const std::uint64_t ktrace_batch = wheel_[wheel_head_].items.size();
            ktrace_batch_events += ktrace_batch;
            if (ktrace_batch > ktrace_batch_max) ktrace_batch_max =
                ktrace_batch;)
        process_batch(policy, t);
        continue;
      }
      if (slot_time > horizon) break;
      if (!stats_reset && slot_time >= warmup) {
        ctx_.stats->reset_at_warmup(warmup);
        stats_reset = true;
      }
      const std::uint64_t births =
          sample_poisson(*ctx_.rng, ctx_.birth_rate * ctx_.slot);
      for (std::uint64_t i = 0; i < births; ++i) policy.spawn(slot_time);
      slot_time += ctx_.slot;
    }
    ctx_.stats->finalize(warmup, horizon, !stats_reset);
    RS_KERNEL_TRACE_ONLY({
      if (obs::TraceSession* session = obs::thread_trace();
          session != nullptr) {
        session->instant(
            "kernel.batch_summary", "kernel",
            "{\"wheel_ticks\":" + std::to_string(ktrace_wheel_ticks) +
                ",\"batch_events\":" + std::to_string(ktrace_batch_events) +
                ",\"batch_max\":" + std::to_string(ktrace_batch_max) + "}");
      }
      auto& registry = obs::global_metrics();
      registry.counter("routesim_kernel_events_total")
          .add(static_cast<double>(ktrace_batch_events));
      registry.counter("routesim_kernel_wheel_ticks_total")
          .add(static_cast<double>(ktrace_wheel_ticks));
    });
  }

 private:
  /// Cache-prefetch hint (no-op where unsupported); purely a performance
  /// hint, never observable in results.
  static void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  /// One service completion: the arc and the packet it is serving.  The
  /// packet is recorded at scheduling time — legal because an arc's
  /// in-service head is immutable while its completion is outstanding
  /// (pops happen only at completions, and an arc has at most one
  /// outstanding completion; pushes only append) — so processing a batch
  /// needs no queue access at all to know what completed.
  struct Item {
    std::uint32_t arc = 0;
    std::uint32_t pkt = 0;
  };

  /// One future instant's service completions, in scheduling (= scalar
  /// seq) order.  Arcs within a batch are distinct (one outstanding
  /// completion per arc).
  struct Batch {
    double time = 0.0;
    std::vector<Item> items;
  };

  void wheel_push(double time, std::uint32_t arc, std::uint32_t pkt) {
    // Hot path: almost every push within one instant targets the same
    // (already open) back batch — one compare against the cached back time
    // and a vector append.  The cache is refreshed whenever a batch opens
    // and uses -1.0 as the "no open batch" sentinel (every push time is
    // >= 1.0).
    if (time == wheel_back_time_) {
      wheel_back_items_->push_back(Item{arc, pkt});
      return;
    }
    RS_DASSERT(wheel_back_time_ <= time);
    if (wheel_size_ == wheel_.size()) {
      // Every slot is live: unroll the ring so the head is slot 0, then
      // add one.  The ring only grows to the most batches ever live at
      // once, ~1/slot + 2.
      std::rotate(wheel_.begin(),
                  wheel_.begin() + static_cast<std::ptrdiff_t>(wheel_head_),
                  wheel_.end());
      wheel_head_ = 0;
      wheel_.emplace_back();
    }
    std::size_t back = wheel_head_ + wheel_size_;
    if (back >= wheel_.size()) back -= wheel_.size();
    ++wheel_size_;
    Batch& batch = wheel_[back];
    batch.time = time;
    batch.items.clear();  // keeps the capacity of the batch it held before
    batch.items.push_back(Item{arc, pkt});
    wheel_back_time_ = time;
    wheel_back_items_ = &batch.items;
  }

  template <typename Policy>
  void process_batch(Policy& policy, double now) {
    // Phase A needs no queue access at all: each item already carries its
    // in-service packet (recorded at scheduling time, immutable since).
    // Copying the items out first frees the head slot before Phase B,
    // whose pushes may open new batches or grow the ring.
    const std::size_t n = wheel_[wheel_head_].items.size();
    const Item* items = wheel_[wheel_head_].items.data();
    arcs_.resize(n);
    pkts_.resize(n);
    next_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      arcs_[i] = items[i].arc;
      pkts_[i] = items[i].pkt;
    }
    if (++wheel_head_ == wheel_.size()) wheel_head_ = 0;
    if (--wheel_size_ == 0) {
      wheel_back_time_ = -1.0;
      wheel_back_items_ = nullptr;
    }
    policy.route_batch(now, arcs_.data(), pkts_.data(), next_.data(), n);
    // Phase B: the scalar per-event bookkeeping, in the scalar order.  The
    // loop software-pipelines its random accesses — the batch knows every
    // future pop and push target, the one thing the scalar event loop
    // cannot know — with ring headers requested kFar events ahead and
    // their storage lines (reachable only once the header is in cache)
    // kNear events ahead.  Prefetching is purely a hint: a stale target is
    // a wasted fetch, never a wrong result.
    constexpr std::size_t kFar = 16;
    constexpr std::size_t kNear = 8;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kFar < n) {
        prefetch(&queues_[arcs_[i + kFar]]);
        const std::uint32_t nx = next_[i + kFar];
        if (nx < kDropFault) {
          prefetch(&queues_[nx]);
          prefetch(&(*ctx_.arc_counters)[nx]);
        }
      }
      if (i + kNear < n) {
        // The in-service head of a not-yet-processed batch arc is still in
        // its queue, so front() is safe without an emptiness check.
        prefetch(&queues_[arcs_[i + kNear]].front());
        const std::uint32_t nx = next_[i + kNear];
        if (nx < kDropFault) {
          const FifoRing& push_queue = queues_[nx];
          if (!push_queue.empty()) prefetch(&push_queue.back());
        }
      }
      const std::uint32_t arc = arcs_[i];
      auto& queue = queues_[arc];
      queue.pop_front();
      // The new head (if any) starts service now; it is the packet this
      // arc's next completion will carry.
      if (!queue.empty()) wheel_push(now + 1.0, arc, queue.front());
      if (occupancy_on_) {
        const std::size_t tracker = policy.finish_tracker(arc);
        if (tracker != kNoTracker) {
          ctx_.stats->occupancy_add(tracker, now, -1.0);
        }
      }
      policy.complete(now, pkts_[i], next_[i]);
    }
  }

  SlottedBatchContext ctx_{};
  SoaPacketStore store_;
  std::vector<FifoRing> queues_;
  /// A ring of batch slots: wheel_size_ live batches from wheel_head_,
  /// sorted by time.  A popped slot keeps its item capacity for the next
  /// batch it opens, so the wheel allocates only while it grows.
  std::vector<Batch> wheel_;
  std::size_t wheel_head_ = 0;
  std::size_t wheel_size_ = 0;
  double wheel_back_time_ = -1.0;  ///< the newest live batch's time (-1 = none)
  std::vector<Item>* wheel_back_items_ = nullptr;  ///< its item list
  bool occupancy_on_ = false;  ///< stats have live occupancy trackers
  std::vector<std::uint32_t> arcs_;  ///< scratch: the batch's arcs
  std::vector<std::uint32_t> pkts_;  ///< scratch: their in-service packets
  std::vector<std::uint32_t> next_;  ///< scratch: Phase A routing decisions
};

}  // namespace routesim
