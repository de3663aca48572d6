#include "routing/topology_greedy.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "fault/fault_routing.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "workload/permutation.hpp"

namespace routesim {

void RoutedNetwork::configure(const TopologyRoutingConfig& config) {
  topo_ = make_topology(config.spec);
  num_nodes_ = topo_->num_nodes();
  layout_ = topo_->traffic_layout();
  diameter_ = std::max(1, topo_->diameter());
  if (takes_xor_mask_law(topo_->name())) {
    law_ = config.destinations.value_or(
        DestinationDistribution::uniform(config.spec.d));
    RS_EXPECTS_MSG(law_->dimension() == config.spec.d,
                   "destination distribution dimension must match d");
  } else {
    RS_EXPECTS_MSG(!config.destinations.has_value(),
                   "an XOR-mask destination law needs topology=hypercube "
                   "or butterfly");
    law_.reset();
  }
  fixed_ = config.fixed_destinations;
  RS_EXPECTS_MSG(fixed_ == nullptr || fixed_->size() == layout_.num_sources,
                 "fixed-destination table must have one entry per source");
  // Hop counters are 16-bit; a larger TTL could never fire (wraparound).
  ttl_ = std::min(config.ttl > 0 ? config.ttl : 64 * diameter_, 65535);
}

TopologyGreedySim::TopologyGreedySim(TopologyRoutingConfig config)
    : config_(std::move(config)) {
  configure_kernel();
}

void TopologyGreedySim::reset(TopologyRoutingConfig config) {
  config_ = std::move(config);
  configure_kernel();
}

void TopologyGreedySim::configure_kernel() {
  net_.configure(config_);
  if (config_.trace == nullptr) RS_EXPECTS(config_.lambda > 0.0);
  RS_EXPECTS_MSG(config_.trace == nullptr ||
                     (std::uint64_t{1} << config_.trace->dimension) ==
                         net_.num_sources(),
                 "a trace replays on the 2^d terminals it was recorded for");
  RS_EXPECTS_MSG(!config_.valiant || net_.num_sources() == net_.num_nodes(),
                 "Valiant mixing routes node to node");
  if (config_.slot > 0.0) {
    const double inv = 1.0 / config_.slot;
    RS_EXPECTS_MSG(config_.slot <= 1.0 && std::abs(inv - std::round(inv)) < 1e-9,
                   "slot length must satisfy: 1/slot integer, slot <= 1 (§3.4)");
  }
  fault_active_ = config_.fault_policy != FaultPolicy::kNone;
  RS_EXPECTS_MSG(fault_active_ || !config_.faults.any(),
                 "fault rates need a fault_policy");

  const Topology& topo = net_.topology();
  PacketKernelConfig kernel;
  kernel.num_arcs = topo.num_arcs();
  kernel.seed = config_.seed;
  kernel.stream_salt =
      (config_.valiant ? kValiantSalts : kGreedySalts).for_family(topo.name());
  kernel.birth_rate = config_.lambda * static_cast<double>(net_.num_sources());
  kernel.slot = config_.slot;
  kernel.trace = config_.trace;
  kernel.service_order = config_.service_order;
  kernel.buffer_capacity = config_.buffer_capacity;
  // In-flight packets ~ (aggregate rate) x (delay ~ O(diameter)) at
  // moderate load; mixing doubles the path length.  Trace replay leaves
  // the default (the kernel derives it from the trace).
  if (config_.trace == nullptr) {
    kernel.expected_packets = static_cast<std::size_t>(
        kernel.birth_rate * (config_.valiant ? 2.0 : 1.0) *
            static_cast<double>(net_.diameter())) + 64;
  }
  if (config_.track_occupancy) {
    kernel.stats.occupancy_trackers = net_.num_groups();
  }
  if (config_.track_delay_histogram) {
    enable_delay_tail_tracking(kernel.stats, net_.diameter());
  }
  if (fault_active_) {
    fault_model_.configure(config_.faults, topo, config_.seed);
    kernel.fault_model = &fault_model_;
  }
  kernel_.configure(kernel);
}

template <typename Topo>
struct TopologyGreedySim::Router {
  TopologyGreedySim& sim;
  const Topo& topo;
  /// Fault-free greedy in increasing order with no Valiant phase: a hop is
  /// arc_target, the hop weight, then greedy_next_arc.
  const bool plain = !sim.fault_active_ && !sim.config_.valiant &&
                     sim.config_.dimension_order == DimensionOrder::kIncreasing;

  void on_spawn(double now) {
    const auto origin = static_cast<NodeId>(
        sim.kernel_.rng().uniform_below(sim.net_.num_sources()));
    inject(now, origin, sim.net_.draw_destination(sim.kernel_.rng(), origin));
  }

  /// Traces, like the destination law, name terminals.
  void on_traced(double now, NodeId origin, NodeId dest) {
    inject(now, origin, sim.net_.sink(dest));
  }

  void inject(double now, NodeId origin, NodeId dest) {
    PacketKernel<Pkt>& kernel = sim.kernel_;
    kernel.count_arrival(now);
    const std::uint32_t id = kernel.allocate_packet();
    NodeId target = dest;
    int min_hops = 0;
    if (sim.config_.valiant) {
      const auto intermediate =
          static_cast<NodeId>(kernel.rng().uniform_below(sim.net_.num_nodes()));
      min_hops = stretch_baseline(origin, intermediate) +
                 stretch_baseline(intermediate, dest);
      if (intermediate != origin) target = intermediate;
    } else {
      min_hops = stretch_baseline(origin, dest);
    }
    kernel.packet(id) =
        Pkt{origin, target, dest, 0, static_cast<std::uint16_t>(min_hops), now};
    if (sim.fault_active_ && sim.fault_model_.is_node_faulty(origin)) {
      // A dead node offers no deliverable traffic; its load is counted as
      // fault-dropped so the delivery ratio reflects the offered load.
      kernel.drop_faulty(now, id);
      return;
    }
    if (origin == target) {
      // A packet for its own origin needs no transmission (delay 0).
      kernel.deliver(now, id, now, 0.0);
      return;
    }
    forward(now, id, next_arc(origin, target), /*external=*/true);
  }

  /// advance()'s verdict for a packet at its destination; kDropArc (a
  /// reroute's verdict, passed through) for one lost to a fault.
  static constexpr ArcId kDeliver = kDropArc - 1;

  /// One hop.  Flattened: the kernel's finish/deliver/enqueue steps are
  /// inlined into the per-hop path.
  [[gnu::flatten]] void on_arc_done(double now, ArcId arc) {
    const std::uint32_t pkt =
        sim.kernel_.finish_arc(now, arc, arc_tracker(arc));
    commit(now, pkt, advance(arc, pkt));
  }

  /// The occupancy tracker of the packets at an arc: its source node's
  /// group, or none with tracking off.  Computed from the arc alone, so
  /// forwarding needs no packet read.
  [[nodiscard]] std::size_t arc_tracker(ArcId arc) const {
    return sim.config_.track_occupancy
               ? topo.occupancy_group(topo.arc_source(arc))
               : kNoTracker;
  }

  /// Moves the packet across `arc`: its next arc toward the phase target,
  /// kDeliver or kDropArc.
  ArcId advance(ArcId arc, std::uint32_t pkt) {
    Pkt& packet = sim.kernel_.packet(pkt);
    packet.cur = topo.arc_target(arc);
    packet.hop_count =
        static_cast<std::uint16_t>(packet.hop_count + topo.hop_weight(arc));
    if (plain) {
      return packet.cur == packet.target
                 ? kDeliver
                 : topo.greedy_next_arc(packet.cur, packet.target);
    }
    if (packet.cur == packet.target) {
      if (packet.target == packet.final_dest) return kDeliver;
      // Reached the random intermediate node: head for the destination.
      packet.target = packet.final_dest;
    }
    if (sim.fault_active_ && stranded(packet.cur, packet.hop_count)) {
      return kDropArc;
    }
    return next_arc(packet.cur, packet.target);
  }

  void commit(double now, std::uint32_t pkt, ArcId next) {
    if (next == kDeliver) {
      const Pkt& packet = sim.kernel_.packet(pkt);
      const double stretch =
          packet.min_hops > 0
              ? static_cast<double>(packet.hop_count) / packet.min_hops
              : 0.0;
      sim.kernel_.deliver(now, pkt, packet.gen_time,
                          static_cast<double>(packet.hop_count), stretch);
      return;
    }
    forward(now, pkt, next, /*external=*/false);
  }

  /// Enqueues the packet on `arc`, or drops it on kDropArc.
  void forward(double now, std::uint32_t pkt, ArcId arc, bool external) {
    if (arc == kDropArc) {
      sim.kernel_.drop_faulty(now, pkt);
      return;
    }
    sim.kernel_.enqueue(now, arc, pkt, external, arc_tracker(arc));
  }

  /// The hops a greedy walk from `from` to `to` takes, against which a
  /// delivered packet's stretch is measured — under faults only.  A
  /// pristine walk takes exactly that many, so its stretch is 1, which is
  /// what KernelStats reports with no observations; 0 records none and
  /// saves the hop_distance call on the fault-free spawn path.
  [[nodiscard]] int stretch_baseline(NodeId from, NodeId to) const {
    return sim.fault_active_ ? topo.hop_distance(from, to) : 0;
  }

  /// Fault path only: the packet is lost when its TTL ran out or a detour
  /// left it, not at its target, on a node with no out-arcs (a misrouted
  /// packet at the butterfly's exit level).
  [[nodiscard]] bool stranded(NodeId cur, std::uint16_t hop_count) const {
    return hop_count >= sim.net_.ttl() || topo.out_degree(cur) == 0;
  }

  /// The routing decision: the greedy arc (or the dimension-order
  /// ablation's pick among the descending ports); with faults, that arc
  /// when alive (always, at zero rates, so the pristine path is
  /// reproduced), else the policy's reroute (kDropArc = drop).
  ArcId next_arc(NodeId cur, NodeId target) {
    const ArcId arc = sim.config_.dimension_order == DimensionOrder::kIncreasing
                          ? topo.greedy_next_arc(cur, target)
                          : ordered_arc(cur, target);
    if (!sim.fault_active_ || !sim.kernel_.arc_faulty(arc)) return arc;
    return reroute(cur, target);
  }

  /// The decreasing / random-per-hop ablations: the last descending port,
  /// or one uniform draw over them.  Out of line, like reroute.
  [[gnu::noinline]] ArcId ordered_arc(NodeId cur, NodeId target) {
    const int degree = topo.out_degree(cur);
    int count = 0;
    for (int k = 0; k < degree; ++k) {
      count += topo.out_arc_descends(cur, k, target) ? 1 : 0;
    }
    RS_DASSERT(count > 0);
    int pick = count - 1;
    if (sim.config_.dimension_order == DimensionOrder::kRandomPerHop) {
      pick = static_cast<int>(sim.kernel_.rng().uniform_below(
          static_cast<std::uint64_t>(count)));
    }
    for (int k = 0;; ++k) {
      if (topo.out_arc_descends(cur, k, target) && pick-- == 0) {
        return topo.out_arc(cur, k);
      }
    }
  }

  /// The policy's reroute around a dead arc (kDropArc = drop).  Out of
  /// line, so the flattened hop path stays small.
  [[gnu::noinline]] ArcId reroute(NodeId cur, NodeId target) {
    PacketKernel<Pkt>& kernel = sim.kernel_;
    return fault_reroute_arc(
        sim.config_.fault_policy, topo, cur, target,
        [&](ArcId arc) { return kernel.arc_faulty(arc); }, kernel.rng());
  }
};

void TopologyGreedySim::run(double warmup, double horizon) {
  with_concrete_topology(net_.topology(), [&](const auto& topo) {
    Router<std::decay_t<decltype(topo)>> router{*this, topo};
    kernel_.drive(router, warmup, horizon);
  });
}

namespace {

/// The schemes TopologyGreedySim compiles: greedy on the hypercube family,
/// Valiant mixing, and greedy on the butterfly.
enum class Routing : std::uint8_t { kGreedy, kValiant, kButterfly };

/// Greedy or Valiant mixing over TopologyGreedySim, with the schemes'
/// shared metric layout and resilience extras.
CompiledScenario compile_routing(const Scenario& s, Routing routing) {
  const bool valiant = routing == Routing::kValiant;
  const bool butterfly = routing == Routing::kButterfly;
  // SchemeInfo::check has admitted the topology, workload and fault
  // knobs; the permutation table and the trace are built here, so
  // their errors too surface before the worker fan-out.  "native" is the
  // butterfly here.
  const std::string family = butterfly ? "butterfly" : s.topology_spec().name;
  const auto perm = s.shared_permutation_table();
  const auto replay = s.shared_trace();
  const Window window = s.resolved_window();
  // §3.4's slots divide the unit service time; any other tau would fail
  // the simulator's precondition inside a worker.
  const double slots = s.tau > 0.0 ? 1.0 / s.tau : 0.0;
  if (s.tau > 1.0 || std::abs(slots - std::round(slots)) >= 1e-9) {
    throw ScenarioError("tau=" + fmt_shortest(s.tau) + " is not a slot length: "
                        "scheme '" + s.scheme + "' needs tau <= 1 with 1/tau "
                        "an integer (§3.4), or tau=0 for continuous time");
  }
  const bool max_queue = perm != nullptr && !valiant;

  TopologyRoutingConfig config = routing_config(s, family, perm.get());
  config.slot = s.tau;  // 0 under valiant (SchemeInfo::check)
  config.valiant = valiant;
  config.buffer_capacity = s.buffer_capacity;
  // Greedy permutation runs track occupancy for max_queue.
  config.track_occupancy = max_queue;
  // Tail metrics (delay_p50/p99) come from the delay histogram.
  config.track_delay_histogram = true;
  if (s.faults_active()) {
    config.fault_policy = parse_fault_policy(s.fault_policy);
  }
  // Every replication replays an external trace file's recorded stream;
  // workload=trace without one regenerates a trace per replication seed.
  config.trace = replay.get();
  const bool regenerate_trace = replay == nullptr && s.workload == "trace";

  CompiledScenario compiled;
  // perm and replay own the tables the config points at.
  compiled.replicate = [config, window, max_queue, regenerate_trace, perm,
                        replay](std::uint64_t seed, int) {
    TopologyRoutingConfig run = config;
    run.seed = seed;
    // Thread-local so the cached sim's trace pointer stays valid for the
    // sim's whole lifetime (and the buffers are reused per rep).
    thread_local PacketTrace trace;
    if (regenerate_trace) {
      trace = generate_hypercube_trace(config.spec.d, config.lambda,
                                       *config.destinations, window.horizon,
                                       seed);
      run.trace = &trace;
    }
    TopologyGreedySim& sim = reusable_sim<TopologyGreedySim>(std::move(run));
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
    if (max_queue) metrics.push_back(stats.max_occupancy());
    return metrics;
  };
  compiled.extra_metrics = {"delivery_ratio", "mean_stretch",
                            "delay_p50",      "delay_p99",
                            "fault_drops",    "buffer_drops"};
  if (max_queue) compiled.extra_metrics.emplace_back("max_queue");
  // The paper's delay brackets are theorems for direct greedy on the cube
  // (Props. 12/13) and the butterfly (Props. 14/17): the mixed network is
  // not levelled (the point of the comparison), the other families have no
  // closed form, and neither do faulty, general-law or permutation
  // scenarios or an external trace_file, whose load the scenario's
  // lambda/p do not describe.  Unstable points (rho >= 1) run fine — only
  // the bracket is gone.
  if (valiant || (family != "hypercube" && !butterfly) ||
      s.workload == "general" || s.workload == "permutation" ||
      s.faults_active() || replay != nullptr) {
    return compiled;
  }
  if (butterfly) {
    const bounds::ButterflyParams params{s.d, s.lambda, s.effective_p()};
    if (bounds::bfly_load_factor(params) < 1.0) {
      compiled.has_bounds = true;
      compiled.lower_bound = bounds::bfly_universal_delay_lower_bound(params);
      compiled.upper_bound = bounds::bfly_greedy_delay_upper_bound(params);
    }
    return compiled;
  }
  const bounds::HypercubeParams params{s.d, s.lambda, s.effective_p()};
  if (bounds::load_factor(params) < 1.0) {
    compiled.has_bounds = true;
    compiled.lower_bound = bounds::greedy_delay_lower_bound(params);
    compiled.upper_bound = s.tau > 0.0
                               ? bounds::slotted_delay_upper_bound(params, s.tau)
                               : bounds::greedy_delay_upper_bound(params);
  }
  return compiled;
}

}  // namespace

TopologyRoutingConfig routing_config(const Scenario& s,
                                     const std::string& family,
                                     const std::vector<NodeId>* fixed_destinations) {
  TopologyRoutingConfig config;
  config.spec = s.topology_spec();
  config.spec.name = family;
  config.lambda = s.lambda;
  if (takes_xor_mask_law(family)) config.destinations = s.make_destinations();
  config.fixed_destinations = fixed_destinations;
  config.faults = s.faults;
  config.ttl = s.ttl;
  return config;
}

CompiledScenario compile_topology_greedy(const Scenario& s) {
  return compile_routing(s, Routing::kGreedy);
}

void register_hypercube_greedy_scheme(SchemeRegistry& registry) {
  registry.add({.name = "hypercube_greedy",
                .summary = "greedy dimension-order routing on the d-cube (§3; "
                           "Props. 12/13, slotted §3.4 when tau > 0)",
                .compile = compile_topology_greedy,
                .topologies = {"hypercube", "ring", "torus", "mesh"},
                .workloads = {"bit_flip", "uniform", "general", "trace",
                              "permutation"},
                .fault_policies = {"drop", "skip_dim", "deflect", "adaptive"},
                .keys = {"tau", "buffers", "ttl", "storm_rate", "storm_radius",
                         "storm_duration", "fault_policy"}});
}

void register_butterfly_greedy_scheme(SchemeRegistry& registry) {
  registry.add(
      {.name = "butterfly_greedy",
       .summary =
           "greedy routing on the d-dimensional butterfly (§4; Props. 14/17)",
       .compile =
           [](const Scenario& s) {
             return compile_routing(s, Routing::kButterfly);
           },
       .load_factor =
           [](const Scenario& s) {
             if (s.workload == "permutation") {
               // Exact: every source row emits rate lambda down one fixed
               // path, so the heaviest arc carries lambda * max_load.
               const auto table = s.permutation_table();
               return s.lambda * static_cast<double>(
                                     topology_greedy_congestion(
                                         ButterflyTopology(s.d), table)
                                         .max_load);
             }
             return bounds::bfly_load_factor({s.d, s.lambda, s.effective_p()});
           },
       .topologies = {"butterfly"},
       .workloads = {"bit_flip", "uniform", "general", "trace", "permutation"},
       .fault_policies = {"drop", "twin_detour"},
       .keys = {"tau", "fault_policy"}});
}

void register_valiant_mixing_scheme(SchemeRegistry& registry) {
  registry.add(
      {.name = "valiant_mixing",
       .summary = "two-phase Valiant mixing: greedy to a random intermediate, "
                  "then greedy to the destination (§5)",
       .compile =
           [](const Scenario& s) {
             return compile_routing(s, Routing::kValiant);
           },
       .load_factor =
           [](const Scenario& s) {
             if (s.uses_generic_topology()) {
               // Mixing doubles the traffic over greedy arcs: each phase
               // loads the heaviest arc at ~lambda * uniform_load_per_lambda.
               return 2.0 * s.lambda *
                      s.compiled_topology()->uniform_load_per_lambda();
             }
             if (s.workload == "permutation") {
               // Mixing spreads any bijection uniformly: both phases load
               // every arc at ~lambda/2, so rho ~ lambda.  A non-bijective
               // map (hotspot) keeps its inherent fan-in bottleneck — the
               // hot node's d in-arcs must carry lambda * max_fan_in.  The
               // table comes from permutation_table() so bad knobs surface
               // as the same catchable ScenarioError every scheme throws.
               const double fan_in =
                   static_cast<double>(max_fan_in(s.permutation_table()));
               return s.lambda *
                      std::max(1.0, fan_in / static_cast<double>(s.d));
             }
             // Other workloads keep the engine's default rule.
             return s.default_rho();
           },
       .topologies = {"hypercube", "ring", "torus", "mesh"},
       .workloads = {"bit_flip", "uniform", "general", "trace", "permutation"},
       .fault_policies = {"drop", "skip_dim", "deflect", "adaptive"},
       .keys = {"ttl", "storm_rate", "storm_radius", "storm_duration",
                "fault_policy"}});
}

}  // namespace routesim
