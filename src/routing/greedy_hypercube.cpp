#include "routing/greedy_hypercube.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "fault/fault_routing.hpp"
#include "routing/topology_greedy.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

GreedyHypercubeSim::GreedyHypercubeSim(GreedyHypercubeConfig config)
    : config_(std::move(config)), cube_(config_.d) {
  configure_kernel();
}

void GreedyHypercubeSim::reset(GreedyHypercubeConfig config) {
  config_ = std::move(config);
  cube_ = Hypercube(config_.d);
  configure_kernel();
}

void GreedyHypercubeSim::configure_kernel() {
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
                   "slot length must satisfy: 1/slot integer, slot <= 1 (§3.4)");
  }

  fault_active_ = config_.fault_policy != FaultPolicy::kNone;
  RS_EXPECTS_MSG(fault_active_ || (config_.arc_fault_rate == 0.0 &&
                                   config_.node_fault_rate == 0.0 &&
                                   config_.fault_mtbf == 0.0 &&
                                   config_.fault_mttr == 0.0 &&
                                   config_.storm_rate == 0.0 &&
                                   config_.storm_duration == 0.0),
                 "fault rates need a fault_policy");
  RS_EXPECTS_MSG(config_.fault_policy != FaultPolicy::kTwinDetour,
                 "twin_detour is a butterfly policy; the hypercube supports "
                 "drop, skip_dim, deflect and adaptive");
  ttl_ = config_.ttl > 0 ? config_.ttl : 64 * config_.d;
  // Hop counters are 16-bit; a larger TTL could never fire (wraparound).
  ttl_ = std::min(ttl_, 65535);

  PacketKernelConfig kernel;
  kernel.num_arcs = cube_.num_arcs();
  kernel.seed = config_.seed;
  kernel.stream_salt = 0xC0BE;
  if (fault_active_) {
    fault_model_.configure(
        make_fault_model_config(config_, cube_.num_arcs(), cube_.num_nodes()),
        [this](std::uint32_t node, std::vector<ArcId>& out) {
          cube_.append_incident_arcs(node, out);
        },
        [this](std::uint32_t node, std::vector<std::uint32_t>& out) {
          for (int dim = 1; dim <= config_.d; ++dim) {
            out.push_back(flip_dimension(node, dim));
          }
        });
    kernel.fault_model = &fault_model_;
  }
  if (config_.fixed_destinations != nullptr) {
    RS_EXPECTS_MSG(config_.fixed_destinations->size() == cube_.num_nodes(),
                   "fixed-destination table must have 2^d entries");
  }
  kernel.birth_rate = config_.lambda * static_cast<double>(cube_.num_nodes());
  kernel.slot = config_.slot;
  kernel.trace = config_.trace;
  kernel.fixed_destinations = config_.fixed_destinations;
  kernel.service_order = config_.arc_service_order;
  kernel.buffer_capacity = config_.buffer_capacity;
  // In-flight packets ~ (aggregate rate) x (delay ~ O(d)) at moderate load;
  // trace replay leaves the default (the kernel derives it from the trace).
  if (config_.trace == nullptr) {
    kernel.expected_packets =
        static_cast<std::size_t>(kernel.birth_rate * config_.d) + 64;
  }
  if (config_.track_node_occupancy) {
    kernel.stats.occupancy_trackers = cube_.num_nodes();
  }
  if (config_.track_delay_histogram) {
    enable_delay_tail_tracking(kernel.stats, config_.d);
  }
  kernel_.configure(kernel);

  if (config_.backend == KernelBackend::kSoaBatch) {
    // The batch backend advances whole service batches per tick; that needs
    // the slotted structure (every event time a multiple of the slot) and
    // the paper's canonical discipline — the ablation orders and dynamic
    // faults stay on the scalar oracle.
    RS_EXPECTS_MSG(config_.slot > 0.0,
                   "the soa_batch backend needs slotted time (tau > 0)");
    RS_EXPECTS_MSG(config_.trace == nullptr,
                   "the soa_batch backend cannot replay traces");
    RS_EXPECTS_MSG(config_.arc_service_order == ArcServiceOrder::kFifo,
                   "the soa_batch backend needs FIFO arc service");
    RS_EXPECTS_MSG(config_.dimension_order == DimensionOrder::kIncreasing,
                   "the soa_batch backend needs increasing dimension order");
    RS_EXPECTS_MSG(config_.fault_mtbf == 0.0 && config_.fault_mttr == 0.0 &&
                       config_.storm_rate == 0.0,
                   "the soa_batch backend needs a static fault set");
    SlottedBatchContext ctx;
    ctx.num_arcs = cube_.num_arcs();
    ctx.birth_rate = kernel.birth_rate;
    ctx.slot = config_.slot;
    ctx.buffer_capacity = config_.buffer_capacity;
    ctx.expected_packets = kernel.expected_packets;
    ctx.fixed_destinations = config_.fixed_destinations;
    // Borrow the kernel's RNG, stats and counters: every draw and every
    // accumulator update goes through the same objects in the same order,
    // which is what makes the backends bit-identical.
    ctx.rng = &kernel_.rng();
    ctx.stats = &kernel_.stats();
    ctx.arc_counters = &kernel_.arc_counters_mutable();
    batch_.configure(ctx);
  }
}

void GreedyHypercubeSim::inject(double now, NodeId origin, NodeId dest) {
  kernel_.count_arrival(now);
  const std::uint32_t pkt = kernel_.allocate_packet();
  kernel_.packet(pkt) =
      Pkt{origin, dest, now, 0,
          static_cast<std::uint16_t>(hamming_distance(origin, dest))};
  if (fault_active_ && fault_model_.is_node_faulty(origin)) {
    // A dead node offers no deliverable traffic; its load is counted as
    // fault-dropped so the delivery ratio reflects the offered load.
    kernel_.drop_faulty(now, pkt);
    return;
  }
  if (origin == dest) {
    // A packet that selects its own origin (probability (1-p)^d) needs no
    // transmission at all; it is delivered instantly with delay 0.
    kernel_.deliver(now, pkt, now, 0.0);
    return;
  }
  const ArcId arc =
      fault_active_ ? next_arc_faulty(kernel_.packet(pkt))
                    : cube_.arc_index(origin, next_dimension(kernel_.packet(pkt)));
  if (arc == kDropArc) {
    kernel_.drop_faulty(now, pkt);
    return;
  }
  kernel_.enqueue(now, arc, pkt, /*external=*/true, origin);
}

void GreedyHypercubeSim::on_spawn(double now) {
  const auto [origin, dest] =
      kernel_.sample_spawn(cube_.num_nodes(), config_.destinations);
  inject(now, origin, dest);
}

void GreedyHypercubeSim::on_traced(double now, NodeId origin, NodeId dest) {
  inject(now, origin, dest);
}

int GreedyHypercubeSim::next_dimension(const Pkt& packet) {
  const NodeId remaining = packet.cur ^ packet.dest;
  RS_DASSERT(remaining != 0);
  switch (config_.dimension_order) {
    case DimensionOrder::kIncreasing:
      return lowest_dimension(remaining);
    case DimensionOrder::kDecreasing:
      return highest_dimension(remaining);
    case DimensionOrder::kRandomPerHop: {
      const int count = std::popcount(remaining);
      return nth_dimension(remaining,
                           static_cast<int>(kernel_.rng().uniform_below(
                               static_cast<std::uint64_t>(count))));
    }
  }
  return lowest_dimension(remaining);  // unreachable
}

ArcId GreedyHypercubeSim::next_arc_faulty(const Pkt& packet) {
  // The scheme's normal pick first: when its arc is alive — always, at
  // zero fault rates — routing and RNG consumption are identical to the
  // pristine path.  Otherwise the shared reroute policies
  // (fault/fault_routing.hpp) apply.
  const ArcId preferred = cube_.arc_index(packet.cur, next_dimension(packet));
  if (!kernel_.arc_faulty(preferred)) return preferred;
  return fault_reroute_arc(
      config_.fault_policy, cube_, packet.cur, packet.dest,
      [&](ArcId arc) { return kernel_.arc_faulty(arc); }, kernel_.rng());
}

void GreedyHypercubeSim::on_arc_done(double now, ArcId arc) {
  const std::uint32_t pkt = kernel_.finish_arc(now, arc, cube_.arc_source(arc));

  Pkt& packet = kernel_.packet(pkt);
  const int dim = cube_.arc_dimension(arc);
  packet.cur = flip_dimension(packet.cur, dim);
  ++packet.hop_count;
  if (packet.cur == packet.dest) {
    const double stretch =
        packet.min_hops > 0
            ? static_cast<double>(packet.hop_count) / packet.min_hops
            : 0.0;
    kernel_.deliver(now, pkt, packet.gen_time,
                    static_cast<double>(packet.hop_count), stretch);
    return;
  }
  if (fault_active_) {
    if (packet.hop_count >= ttl_) {
      kernel_.drop_faulty(now, pkt);
      return;
    }
    const ArcId next = next_arc_faulty(packet);
    if (next == kDropArc) {
      kernel_.drop_faulty(now, pkt);
      return;
    }
    kernel_.enqueue(now, next, pkt, /*external=*/false, packet.cur);
    return;
  }
  // Under the paper's increasing-index order the next required dimension is
  // necessarily above `dim` (the levelled property B); the ablation orders
  // may revisit lower dimensions.
  const int next_dim = next_dimension(packet);
  RS_DASSERT(config_.dimension_order != DimensionOrder::kIncreasing ||
             next_dim > dim);
  kernel_.enqueue(now, cube_.arc_index(packet.cur, next_dim), pkt,
                  /*external=*/false, packet.cur);
}

/// The greedy routing decision over the SoA store.  route_batch is Phase A
/// of SlottedBatchDriver::process_batch; spawn/complete replay the scalar
/// inject/on_arc_done bookkeeping against the batch driver's mirrors.
struct GreedyHypercubeSim::BatchPolicy {
  GreedyHypercubeSim& sim;

  /// Mirror of on_spawn + inject for the batch store.
  void spawn(double now) {
    SlottedBatchDriver& batch = sim.batch_;
    const auto [origin, dest] = batch.sample_spawn(
        sim.cube_.num_nodes(), sim.config_.destinations);
    batch.count_arrival(now);
    SoaPacketStore& store = batch.store();
    const std::uint32_t pkt = store.allocate();
    store.node[pkt] = origin;
    store.dest[pkt] = dest;
    store.gen_time[pkt] = now;
    store.hops[pkt] = 0;
    store.aux[pkt] =
        static_cast<std::uint16_t>(hamming_distance(origin, dest));
    if (sim.fault_active_ && sim.fault_model_.is_node_faulty(origin)) {
      batch.drop_faulty(now, pkt);
      return;
    }
    if (origin == dest) {
      batch.deliver(now, pkt, now, 0.0);
      return;
    }
    const ArcId arc =
        sim.fault_active_
            ? faulty_arc(origin, dest)
            : sim.cube_.arc_index(origin, lowest_dimension(origin ^ dest));
    if (arc == kDropArc) {
      batch.drop_faulty(now, pkt);
      return;
    }
    batch.enqueue(now, arc, pkt, /*external=*/true, origin);
  }

  /// Phase A: advance every packet one hop and pick its next arc.  The
  /// pristine loop is pure same-shape array arithmetic over node/dest/hops
  /// — the auto-vectorizable hot path; the fault loop stays sequential so
  /// reroute RNG draws keep the scalar order.
  void route_batch(double /*now*/, const std::uint32_t* arcs,
                   const std::uint32_t* pkts, std::uint32_t* next,
                   std::size_t n) {
    SoaPacketStore& store = sim.batch_.store();
    const int d = sim.config_.d;
    if (!sim.fault_active_) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t arc = arcs[i];
        const std::uint32_t pkt = pkts[i];
        const std::uint32_t cur = store.node[pkt] ^ (1u << (arc >> d));
        store.node[pkt] = cur;
        store.hops[pkt] = static_cast<std::uint16_t>(store.hops[pkt] + 1);
        const std::uint32_t rem = cur ^ store.dest[pkt];
        const std::uint32_t advance =
            (static_cast<std::uint32_t>(std::countr_zero(rem)) << d) + cur;
        next[i] = rem == 0 ? SlottedBatchDriver::kDeliver : advance;
      }
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t arc = arcs[i];
      const std::uint32_t pkt = pkts[i];
      const std::uint32_t cur = store.node[pkt] ^ (1u << (arc >> d));
      store.node[pkt] = cur;
      store.hops[pkt] = static_cast<std::uint16_t>(store.hops[pkt] + 1);
      if (cur == store.dest[pkt]) {
        next[i] = SlottedBatchDriver::kDeliver;
        continue;
      }
      if (store.hops[pkt] >= sim.ttl_) {
        next[i] = SlottedBatchDriver::kDropFault;
        continue;
      }
      const ArcId reroute = faulty_arc(cur, store.dest[pkt]);
      next[i] = reroute == kDropArc ? SlottedBatchDriver::kDropFault : reroute;
    }
  }

  /// next_arc_faulty over the batch store (increasing order only): the
  /// normal pick when its arc is alive, the shared reroute policies
  /// otherwise, drawing from the batch driver's borrowed RNG.
  [[nodiscard]] ArcId faulty_arc(NodeId cur, NodeId dest) {
    const ArcId preferred = sim.cube_.arc_index(cur, lowest_dimension(cur ^ dest));
    if (!sim.fault_model_.is_faulty(preferred)) return preferred;
    return fault_reroute_arc(
        sim.config_.fault_policy, sim.cube_, cur, dest,
        [&](ArcId arc) { return sim.fault_model_.is_faulty(arc); },
        sim.batch_.rng());
  }

  /// Phase B tail: the scalar on_arc_done outcome for one routed packet.
  void complete(double now, std::uint32_t pkt, std::uint32_t next) {
    SlottedBatchDriver& batch = sim.batch_;
    SoaPacketStore& store = batch.store();
    if (next == SlottedBatchDriver::kDeliver) {
      const std::uint16_t hops = store.hops[pkt];
      const std::uint16_t min_hops = store.aux[pkt];
      const double stretch =
          min_hops > 0 ? static_cast<double>(hops) / min_hops : 0.0;
      batch.deliver(now, pkt, store.gen_time[pkt],
                    static_cast<double>(hops), stretch);
      return;
    }
    if (next == SlottedBatchDriver::kDropFault) {
      batch.drop_faulty(now, pkt);
      return;
    }
    batch.enqueue(now, next, pkt, /*external=*/false, store.node[pkt]);
  }

  /// Occupancy tracker decremented when a service at `arc` completes —
  /// the arc's source node, as in the scalar finish_arc call.
  [[nodiscard]] std::size_t finish_tracker(std::uint32_t arc) const {
    return sim.cube_.arc_source(arc);
  }
};

void GreedyHypercubeSim::run(double warmup, double horizon) {
  if (config_.backend == KernelBackend::kSoaBatch) {
    BatchPolicy policy{*this};
    batch_.drive(policy, warmup, horizon);
    return;
  }
  kernel_.drive(*this, warmup, horizon);
}

void register_hypercube_greedy_scheme(SchemeRegistry& registry) {
  registry.add(
      {"hypercube_greedy",
       "greedy dimension-order routing on the d-cube (§3; Props. 12/13, "
       "slotted §3.4 when tau > 0)",
       [](const Scenario& s) {
         // Non-native topologies (ring / torus / mesh) route through the
         // topology-parametric simulator; the hypercube keeps its
         // bit-exact specialised path.
         if (s.resolved_topology({"hypercube", "ring", "torus", "mesh"}) !=
             "hypercube") {
           return compile_topology_greedy(s);
         }
         CompiledScenario compiled;
         // Validated here so a bad workload, permutation or fault
         // combination fails at compile time, not inside a replication
         // worker thread.
         const auto perm = s.shared_permutation_table();
         const auto replay = s.shared_trace();
         const Window window = s.resolved_window();
         const FaultPolicy fault_policy = s.resolved_fault_policy(
             {FaultPolicy::kDrop, FaultPolicy::kSkipDim, FaultPolicy::kDeflect,
              FaultPolicy::kAdaptive});
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
           if (s.fault_mtbf > 0.0 || s.fault_mttr > 0.0 || s.storm_rate > 0.0) {
             throw ScenarioError(
                 "backend=soa_batch needs a static fault set (clear "
                 "fault_mtbf/fault_mttr/storm_rate or use backend=scalar)");
           }
         }
         compiled.replicate = [s, window, fault_policy, perm, replay, backend,
                               dist = s.make_destinations()](
                                  std::uint64_t seed, int) {
           GreedyHypercubeConfig config;
           config.d = s.d;
           config.lambda = s.lambda;
           config.destinations = dist;
           config.seed = seed;
           config.slot = s.tau;
           config.backend = backend;
           config.buffer_capacity = s.buffer_capacity;
           config.fixed_destinations = perm ? perm.get() : nullptr;
           // Permutation runs track per-node occupancy for the max_queue
           // extra (the congestion collapse is visible in queue peaks).
           config.track_node_occupancy = perm != nullptr;
           // Tail metrics (delay_p50/p99) come from the delay histogram.
           config.track_delay_histogram = true;
           if (fault_policy != FaultPolicy::kNone) {
             config.fault_policy = fault_policy;
             config.arc_fault_rate = s.fault_rate;
             config.node_fault_rate = s.node_fault_rate;
             config.fault_mtbf = s.fault_mtbf;
             config.fault_mttr = s.fault_mttr;
             config.storm_rate = s.storm_rate;
             config.storm_radius = s.storm_radius;
             config.storm_duration = s.storm_duration;
             config.ttl = s.ttl;
           }
           // Thread-local so the cached sim's trace pointer stays valid for
           // the sim's whole lifetime (and the buffers are reused per rep).
           thread_local PacketTrace trace;
           if (replay != nullptr) {
             // External recorded trace: every replication replays the same
             // stream (the shared_ptr keeps it alive past this lambda).
             config.trace = replay.get();
           } else if (s.workload == "trace") {
             trace = generate_hypercube_trace(s.d, s.lambda, config.destinations,
                                              window.horizon, seed);
             config.trace = &trace;
           }
           GreedyHypercubeSim& sim =
               reusable_sim<GreedyHypercubeSim>(std::move(config));
           sim.run(window.warmup, window.horizon);
           const KernelStats& stats = sim.kernel_stats();
           std::vector<double> metrics{
               sim.delay().mean(),          sim.time_avg_population(),
               sim.throughput(),            sim.hops().mean(),
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
           const bounds::HypercubeParams params{s.d, s.lambda, s.effective_p()};
           if (bounds::load_factor(params) < 1.0) {
             compiled.has_bounds = true;
             compiled.lower_bound = bounds::greedy_delay_lower_bound(params);
             compiled.upper_bound =
                 s.tau > 0.0 ? bounds::slotted_delay_upper_bound(params, s.tau)
                             : bounds::greedy_delay_upper_bound(params);
           }
         }
         return compiled;
       }});
}

}  // namespace routesim
