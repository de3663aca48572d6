#include "routing/greedy_butterfly.hpp"

#include "core/registry.hpp"

#include <cmath>
#include <utility>

#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "workload/permutation.hpp"

namespace routesim {

GreedyButterflySim::GreedyButterflySim(GreedyButterflyConfig config)
    : config_(std::move(config)), bfly_(config_.d) {
  configure_kernel();
}

void GreedyButterflySim::reset(GreedyButterflyConfig config) {
  config_ = std::move(config);
  bfly_ = Butterfly(config_.d);
  configure_kernel();
}

void GreedyButterflySim::configure_kernel() {
  RS_EXPECTS_MSG(config_.destinations.dimension() == config_.d,
                 "destination distribution dimension must match d");
  if (config_.trace == nullptr) {
    RS_EXPECTS(config_.lambda > 0.0);
  } else {
    RS_EXPECTS(config_.trace->dimension == config_.d);
  }
  if (config_.slot > 0.0) {
    const double inv = 1.0 / config_.slot;
    RS_EXPECTS_MSG(config_.slot <= 1.0 && std::abs(inv - std::round(inv)) < 1e-9,
                   "slot length must satisfy: 1/slot integer, slot <= 1");
  }

  fault_active_ = config_.fault_policy != FaultPolicy::kNone;
  RS_EXPECTS_MSG(fault_active_ || (config_.arc_fault_rate == 0.0 &&
                                   config_.node_fault_rate == 0.0 &&
                                   config_.fault_mtbf == 0.0 &&
                                   config_.fault_mttr == 0.0),
                 "fault rates need a fault_policy");
  RS_EXPECTS_MSG(config_.fault_policy == FaultPolicy::kNone ||
                     config_.fault_policy == FaultPolicy::kDrop ||
                     config_.fault_policy == FaultPolicy::kTwinDetour,
                 "the butterfly supports fault policies drop and twin_detour");

  PacketKernelConfig kernel;
  kernel.num_arcs = bfly_.num_arcs();
  kernel.seed = config_.seed;
  kernel.stream_salt = 0xBF17;
  if (config_.fixed_destinations != nullptr) {
    RS_EXPECTS_MSG(config_.fixed_destinations->size() == bfly_.rows(),
                   "fixed-destination table must have 2^d entries");
  }
  kernel.birth_rate = config_.lambda * static_cast<double>(bfly_.rows());
  kernel.slot = config_.slot;
  kernel.trace = config_.trace;
  kernel.fixed_destinations = config_.fixed_destinations;
  if (config_.trace == nullptr) {
    kernel.expected_packets =
        static_cast<std::size_t>(kernel.birth_rate * config_.d) + 64;
  }
  if (config_.track_level_occupancy) {
    kernel.stats.occupancy_trackers = static_cast<std::size_t>(config_.d);
  }
  if (config_.track_delay_histogram) {
    enable_delay_tail_tracking(kernel.stats, config_.d);
  }
  if (fault_active_) {
    fault_model_.configure(
        make_fault_model_config(config_, bfly_.num_arcs(),
                                static_cast<std::uint32_t>(bfly_.num_nodes())),
        [this](std::uint32_t node, std::vector<BflyArcId>& out) {
          bfly_.append_incident_arcs(node, out);
        });
    kernel.fault_model = &fault_model_;
  }
  kernel_.configure(kernel);

  if (config_.backend == KernelBackend::kSoaBatch) {
    RS_EXPECTS_MSG(config_.slot > 0.0,
                   "the soa_batch backend needs slotted time (tau > 0)");
    RS_EXPECTS_MSG(config_.trace == nullptr,
                   "the soa_batch backend cannot replay traces");
    RS_EXPECTS_MSG(config_.fault_mtbf == 0.0 && config_.fault_mttr == 0.0,
                   "the soa_batch backend needs a static fault set");
    SlottedBatchContext ctx;
    ctx.num_arcs = bfly_.num_arcs();
    ctx.birth_rate = kernel.birth_rate;
    ctx.slot = config_.slot;
    ctx.expected_packets = kernel.expected_packets;
    ctx.fixed_destinations = config_.fixed_destinations;
    // Borrow the kernel's RNG, stats and counters so every draw and every
    // accumulator update matches the scalar path bit for bit.
    ctx.rng = &kernel_.rng();
    ctx.stats = &kernel_.stats();
    ctx.arc_counters = &kernel_.arc_counters_mutable();
    batch_.configure(ctx);
  }
}

void GreedyButterflySim::inject(double now, NodeId origin_row, NodeId dest_row) {
  kernel_.count_arrival(now);
  const std::uint32_t pkt = kernel_.allocate_packet();
  kernel_.packet(pkt) = Pkt{origin_row, dest_row, now, 0, 1};
  if (fault_active_ &&
      fault_model_.is_node_faulty(bfly_.node_index(origin_row, 1))) {
    // A dead entry node offers no deliverable traffic; count its load as
    // fault-dropped so the delivery ratio reflects the offered load.
    kernel_.drop_faulty(now, pkt);
    return;
  }
  // Every packet crosses exactly d arcs (one per level), even when the rows
  // agree everywhere (all-straight path): the butterfly is a crossbar, and
  // "delivery" means reaching level d+1.
  enqueue(now, pkt);
}

void GreedyButterflySim::on_spawn(double now) {
  const auto [origin, dest] =
      kernel_.sample_spawn(bfly_.rows(), config_.destinations);
  inject(now, origin, dest);
}

void GreedyButterflySim::on_traced(double now, NodeId origin_row, NodeId dest_row) {
  inject(now, origin_row, dest_row);
}

void GreedyButterflySim::enqueue(double now, std::uint32_t pkt) {
  Pkt& packet = kernel_.packet(pkt);
  const int level = packet.level;
  const auto kind = has_dimension(packet.row ^ packet.dest_row, level)
                        ? Butterfly::ArcKind::kVertical
                        : Butterfly::ArcKind::kStraight;
  BflyArcId arc = bfly_.arc_index(packet.row, level, kind);
  if (fault_active_ && kernel_.arc_faulty(arc)) {
    if (config_.fault_policy == FaultPolicy::kDrop) {
      kernel_.drop_faulty(now, pkt);
      return;
    }
    // kTwinDetour: cross the level on its other arc.  The row bit of this
    // level then stays wrong forever (each level is crossed exactly once),
    // so the packet exits misrouted — on_arc_done counts it as a fault
    // drop at level d+1.
    const auto twin = kind == Butterfly::ArcKind::kStraight
                          ? Butterfly::ArcKind::kVertical
                          : Butterfly::ArcKind::kStraight;
    arc = bfly_.arc_index(packet.row, level, twin);
    if (kernel_.arc_faulty(arc)) {
      kernel_.drop_faulty(now, pkt);
      return;
    }
  }
  kernel_.enqueue(now, arc, pkt, /*external=*/false,
                  static_cast<std::size_t>(level - 1));
}

void GreedyButterflySim::on_arc_done(double now, BflyArcId arc) {
  const int level = bfly_.arc_level(arc);
  const std::uint32_t pkt =
      kernel_.finish_arc(now, arc, static_cast<std::size_t>(level - 1));

  Pkt& packet = kernel_.packet(pkt);
  if (bfly_.arc_kind(arc) == Butterfly::ArcKind::kVertical) {
    packet.row = flip_dimension(packet.row, level);
    ++packet.vertical_count;
  }
  if (level == config_.d) {
    if (fault_active_ && packet.row != packet.dest_row) {
      // A twin detour misrouted the packet; it exits at the wrong row.
      kernel_.drop_faulty(now, pkt);
      return;
    }
    RS_DASSERT(packet.row == packet.dest_row);
    // Every delivered packet crossed exactly d arcs (the unique-path
    // property), so its stretch is identically 1.
    kernel_.deliver(now, pkt, packet.gen_time,
                    static_cast<double>(packet.vertical_count), 1.0);
    return;
  }
  packet.level = static_cast<std::uint16_t>(level + 1);
  enqueue(now, pkt);
}

/// The level-by-level butterfly path over the SoA store.  No per-packet
/// level field is needed: the completed arc's id encodes its level, and
/// packets enter at level 1 — so route_batch derives everything from the
/// arc id and the node/dest rows.
struct GreedyButterflySim::BatchPolicy {
  GreedyButterflySim& sim;

  /// Mirror of on_spawn + inject for the batch store.
  void spawn(double now) {
    SlottedBatchDriver& batch = sim.batch_;
    const auto [origin, dest] =
        batch.sample_spawn(sim.bfly_.rows(), sim.config_.destinations);
    batch.count_arrival(now);
    SoaPacketStore& store = batch.store();
    const std::uint32_t pkt = store.allocate();
    store.node[pkt] = origin;
    store.dest[pkt] = dest;
    store.gen_time[pkt] = now;
    store.hops[pkt] = 0;  // vertical arcs crossed
    store.aux[pkt] = 0;   // unused: butterfly stretch is identically 1
    if (sim.fault_active_ &&
        sim.fault_model_.is_node_faulty(sim.bfly_.node_index(origin, 1))) {
      batch.drop_faulty(now, pkt);
      return;
    }
    const std::uint32_t arc = next_arc(origin, dest, 1);
    if (arc == SlottedBatchDriver::kDropFault) {
      batch.drop_faulty(now, pkt);
      return;
    }
    batch.enqueue(now, arc, pkt, /*external=*/false, /*tracker=*/0);
  }

  /// Phase A: cross the completed arc (flip the row on a vertical) and
  /// pick the next level's arc.  The pristine loop is branch-light masked
  /// arithmetic over node/dest/hops — the auto-vectorizable hot path; the
  /// fault loop stays sequential and reuses the twin-detour logic.
  void route_batch(double /*now*/, const std::uint32_t* arcs,
                   const std::uint32_t* pkts, std::uint32_t* next,
                   std::size_t n) {
    SoaPacketStore& store = sim.batch_.store();
    const int d = sim.config_.d;
    const std::uint32_t straight = static_cast<std::uint32_t>(d) << d;
    if (!sim.fault_active_) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t arc = arcs[i];
        const std::uint32_t pkt = pkts[i];
        const std::uint32_t vertical = arc >= straight ? 1u : 0u;
        const std::uint32_t within = arc - vertical * straight;
        const std::uint32_t lvl0 = within >> d;  // completed level - 1
        const std::uint32_t row = store.node[pkt] ^ (vertical << lvl0);
        store.node[pkt] = row;
        store.hops[pkt] = static_cast<std::uint16_t>(store.hops[pkt] + vertical);
        const std::uint32_t vert2 =
            ((row ^ store.dest[pkt]) >> (lvl0 + 1)) & 1u;
        const std::uint32_t advance =
            vert2 * straight + ((lvl0 + 1) << d) + row;
        next[i] = lvl0 + 1 == static_cast<std::uint32_t>(d)
                      ? SlottedBatchDriver::kDeliver
                      : advance;
      }
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t arc = arcs[i];
      const std::uint32_t pkt = pkts[i];
      const int level = sim.bfly_.arc_level(arc);
      if (sim.bfly_.arc_kind(arc) == Butterfly::ArcKind::kVertical) {
        store.node[pkt] = flip_dimension(store.node[pkt], level);
        store.hops[pkt] = static_cast<std::uint16_t>(store.hops[pkt] + 1);
      }
      if (level == d) {
        // A twin detour leaves the packet at the wrong exit row: misrouted.
        next[i] = store.node[pkt] != store.dest[pkt]
                      ? SlottedBatchDriver::kDropFault
                      : SlottedBatchDriver::kDeliver;
        continue;
      }
      next[i] = next_arc(store.node[pkt], store.dest[pkt], level + 1);
    }
  }

  /// Mirror of the scalar enqueue()'s arc choice: the unique-path arc at
  /// `level`, the twin when it is dead under kTwinDetour, kDropFault when
  /// the packet is lost.
  [[nodiscard]] std::uint32_t next_arc(NodeId row, NodeId dest_row,
                                       int level) const {
    const auto kind = has_dimension(row ^ dest_row, level)
                          ? Butterfly::ArcKind::kVertical
                          : Butterfly::ArcKind::kStraight;
    BflyArcId arc = sim.bfly_.arc_index(row, level, kind);
    if (sim.fault_active_ && sim.fault_model_.is_faulty(arc)) {
      if (sim.config_.fault_policy == FaultPolicy::kDrop) {
        return SlottedBatchDriver::kDropFault;
      }
      const auto twin = kind == Butterfly::ArcKind::kStraight
                            ? Butterfly::ArcKind::kVertical
                            : Butterfly::ArcKind::kStraight;
      arc = sim.bfly_.arc_index(row, level, twin);
      if (sim.fault_model_.is_faulty(arc)) {
        return SlottedBatchDriver::kDropFault;
      }
    }
    return arc;
  }

  /// Phase B tail: deliver at the exit level, drop misrouted/faulted
  /// packets, or enqueue at the next level.
  void complete(double now, std::uint32_t pkt, std::uint32_t next) {
    SlottedBatchDriver& batch = sim.batch_;
    SoaPacketStore& store = batch.store();
    if (next == SlottedBatchDriver::kDeliver) {
      batch.deliver(now, pkt, store.gen_time[pkt],
                    static_cast<double>(store.hops[pkt]), 1.0);
      return;
    }
    if (next == SlottedBatchDriver::kDropFault) {
      batch.drop_faulty(now, pkt);
      return;
    }
    batch.enqueue(now, next, pkt, /*external=*/false, level_tracker(next));
  }

  /// Occupancy tracker of an arc: its level - 1 (levels are the butterfly's
  /// tracked unit, as in the scalar finish_arc/enqueue calls).
  [[nodiscard]] std::size_t level_tracker(std::uint32_t arc) const {
    const std::uint32_t straight =
        static_cast<std::uint32_t>(sim.config_.d) << sim.config_.d;
    const std::uint32_t within = arc < straight ? arc : arc - straight;
    return static_cast<std::size_t>(within >> sim.config_.d);
  }

  [[nodiscard]] std::size_t finish_tracker(std::uint32_t arc) const {
    return level_tracker(arc);
  }
};

void GreedyButterflySim::run(double warmup, double horizon) {
  if (config_.backend == KernelBackend::kSoaBatch) {
    BatchPolicy policy{*this};
    batch_.drive(policy, warmup, horizon);
    return;
  }
  kernel_.drive(*this, warmup, horizon);
}

void register_butterfly_greedy_scheme(SchemeRegistry& registry) {
  registry.add(
      {"butterfly_greedy",
       "greedy routing on the d-dimensional butterfly (§4; Props. 14/17)",
       [](const Scenario& s) {
         CompiledScenario compiled;
         // Validated here so a bad workload, permutation or fault
         // combination fails at compile time, not inside a replication
         // worker thread.
         (void)s.resolved_topology({"butterfly"});  // butterfly-native
         const auto perm = s.shared_permutation_table();
         const auto replay = s.shared_trace();
         const Window window = s.resolved_window();
         const FaultPolicy fault_policy = s.resolved_fault_policy(
             {FaultPolicy::kDrop, FaultPolicy::kTwinDetour});
         if (s.storm_rate > 0.0 || s.storm_duration > 0.0) {
           throw ScenarioError(
               "scheme 'butterfly_greedy' does not support fault storms "
               "(clear storm_rate/storm_duration; storms are available on "
               "hypercube_greedy and valiant_mixing)");
         }
         s.reject_unsupported_keys({"buffers"});
         const KernelBackend backend = s.resolved_backend(
             {KernelBackend::kScalar, KernelBackend::kSoaBatch});
         if (backend == KernelBackend::kSoaBatch) {
           if (s.tau <= 0.0) {
             throw ScenarioError(
                 "backend=soa_batch needs slotted time: set tau > 0");
           }
           if (s.workload == "trace") {
             throw ScenarioError(
                 "backend=soa_batch cannot replay traces (use backend=scalar)");
           }
           if (s.fault_mtbf > 0.0 || s.fault_mttr > 0.0) {
             throw ScenarioError(
                 "backend=soa_batch needs a static fault set (clear "
                 "fault_mtbf/fault_mttr or use backend=scalar)");
           }
         }
         compiled.replicate = [s, window, fault_policy, perm, replay, backend,
                               dist = s.make_destinations()](
                                  std::uint64_t seed, int) {
           GreedyButterflyConfig config;
           config.d = s.d;
           config.lambda = s.lambda;
           config.destinations = dist;
           config.seed = seed;
           config.slot = s.tau;
           config.backend = backend;
           config.fixed_destinations = perm ? perm.get() : nullptr;
           // Permutation runs track per-level occupancy for the max_queue
           // extra (the congestion collapse is visible in queue peaks).
           config.track_level_occupancy = perm != nullptr;
           // Tail metrics (delay_p50/p99) come from the delay histogram.
           config.track_delay_histogram = true;
           if (fault_policy != FaultPolicy::kNone) {
             config.fault_policy = fault_policy;
             config.arc_fault_rate = s.fault_rate;
             config.node_fault_rate = s.node_fault_rate;
             config.fault_mtbf = s.fault_mtbf;
             config.fault_mttr = s.fault_mttr;
           }
           // Thread-local so the cached sim's trace pointer stays valid for
           // the sim's whole lifetime (and the buffers are reused per rep).
           thread_local PacketTrace trace;
           if (replay != nullptr) {
             // External trace file: every replication replays the same
             // recorded row stream (the shared_ptr outlives the sims).
             config.trace = replay.get();
           } else if (s.workload == "trace") {
             trace = generate_butterfly_trace(s.d, s.lambda, config.destinations,
                                              window.horizon, seed);
             config.trace = &trace;
           }
           GreedyButterflySim& sim =
               reusable_sim<GreedyButterflySim>(std::move(config));
           sim.run(window.warmup, window.horizon);
           const KernelStats& stats = sim.kernel_stats();
           std::vector<double> metrics{
               sim.delay().mean(),          sim.time_avg_population(),
               sim.throughput(),            sim.vertical_hops().mean(),
               sim.little_check().relative_error(), sim.final_population(),
               stats.delivery_ratio(),      stats.mean_stretch(),
               stats.delay_quantile(0.5),   stats.delay_quantile(0.99),
               static_cast<double>(stats.fault_drops_in_window()),
               static_cast<double>(stats.drops_in_window())};
           if (perm) metrics.push_back(stats.max_occupancy());
           return metrics;
         };
         compiled.extra_metrics = {"delivery_ratio", "mean_stretch",
                                   "delay_p50",      "delay_p99",
                                   "fault_drops",    "buffer_drops"};
         if (perm) compiled.extra_metrics.emplace_back("max_queue");
         // Unstable points (rho >= 1) run fine — only the bracket is gone.
         // Faulty, general-law and permutation scenarios have no
         // closed-form bracket; neither does an external trace_file, whose
         // load the scenario's lambda/p do not describe.
         if (s.workload != "general" && s.workload != "permutation" &&
             !s.faults_active() && replay == nullptr) {
           const bounds::ButterflyParams params{s.d, s.lambda, s.effective_p()};
           if (bounds::bfly_load_factor(params) < 1.0) {
             compiled.has_bounds = true;
             compiled.lower_bound =
                 bounds::bfly_universal_delay_lower_bound(params);
             compiled.upper_bound = bounds::bfly_greedy_delay_upper_bound(params);
           }
         }
         return compiled;
       },
       [](const Scenario& s) {
         if (s.workload == "permutation") {
           // Exact: every source row emits rate lambda down one fixed
           // path, so the heaviest arc carries lambda * max_load.
           const auto table = s.permutation_table();
           return s.lambda *
                  static_cast<double>(
                      butterfly_greedy_congestion(s.d, table).max_load);
         }
         return bounds::bfly_load_factor({s.d, s.lambda, s.effective_p()});
       }});
}

}  // namespace routesim
