#include "routing/topology_greedy.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "fault/fault_routing.hpp"
#include "util/assert.hpp"
#include "workload/permutation.hpp"

namespace routesim {

void RoutedNetwork::configure(const TopologyRoutingConfig& config) {
  topo_ = make_topology(config.spec);
  num_nodes_ = topo_->num_nodes();
  diameter_ = std::max(1, topo_->diameter());
  if (topo_->name() == "hypercube") {
    law_ = config.destinations.value_or(
        DestinationDistribution::uniform(config.spec.d));
    RS_EXPECTS_MSG(law_->dimension() == config.spec.d,
                   "destination distribution dimension must match d");
  } else {
    RS_EXPECTS_MSG(!config.destinations.has_value(),
                   "an XOR-mask destination law needs topology=hypercube");
    law_.reset();
  }
  fixed_ = config.fixed_destinations;
  RS_EXPECTS_MSG(fixed_ == nullptr || fixed_->size() == num_nodes_,
                 "fixed-destination table must have num_nodes entries");
  // Hop counters are 16-bit; a larger TTL could never fire (wraparound).
  ttl_ = std::min(config.ttl > 0 ? config.ttl : 64 * diameter_, 65535);
}

void RoutedNetwork::configure_faults(const TopologyRoutingConfig& config,
                                     FaultModel& faults) const {
  faults.configure(
      make_fault_model_config(config, topo_->num_arcs(), num_nodes_),
      [this](std::uint32_t node, std::vector<ArcId>& out) {
        topo_->append_incident_arcs(node, out);
      },
      [this](std::uint32_t node, std::vector<std::uint32_t>& out) {
        for (int k = 0; k < topo_->out_degree(node); ++k) {
          out.push_back(topo_->arc_target(topo_->out_arc(node, k)));
        }
      });
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
                 "twin_detour is a butterfly policy; greedy and valiant "
                 "support drop, skip_dim, deflect and adaptive");

  const Topology& topo = net_.topology();
  PacketKernelConfig kernel;
  kernel.num_arcs = topo.num_arcs();
  kernel.seed = config_.seed;
  kernel.stream_salt =
      (config_.valiant ? kValiantSalts : kGreedySalts).for_family(topo.name());
  kernel.birth_rate = config_.lambda * static_cast<double>(net_.num_nodes());
  kernel.slot = config_.slot;
  kernel.trace = config_.trace;
  kernel.buffer_capacity = config_.buffer_capacity;
  // In-flight packets ~ (aggregate rate) x (delay ~ O(diameter)) at
  // moderate load; mixing doubles the path length.  Trace replay leaves
  // the default (the kernel derives it from the trace).
  if (config_.trace == nullptr) {
    kernel.expected_packets = static_cast<std::size_t>(
        kernel.birth_rate * (config_.valiant ? 2.0 : 1.0) *
            static_cast<double>(net_.diameter())) + 64;
  }
  if (config_.track_node_occupancy) {
    kernel.stats.occupancy_trackers = net_.num_nodes();
  }
  if (config_.track_delay_histogram) {
    enable_delay_tail_tracking(kernel.stats, net_.diameter());
  }
  if (fault_active_) {
    net_.configure_faults(config_, fault_model_);
    kernel.fault_model = &fault_model_;
  }
  kernel_.configure(kernel);
}

template <typename Topo>
struct TopologyGreedySim::Router {
  TopologyGreedySim& sim;
  const Topo& topo;

  void on_spawn(double now) {
    const auto origin = static_cast<NodeId>(
        sim.kernel_.rng().uniform_below(sim.net_.num_nodes()));
    inject(now, origin, sim.net_.draw_destination(sim.kernel_.rng(), origin));
  }

  void on_traced(double now, NodeId origin, NodeId dest) {
    inject(now, origin, dest);
  }

  void inject(double now, NodeId origin, NodeId dest) {
    PacketKernel<Pkt>& kernel = sim.kernel_;
    kernel.count_arrival(now);
    const std::uint32_t id = kernel.allocate_packet();
    NodeId target = dest;
    std::uint8_t phase = 1;
    int min_hops = 0;
    if (sim.config_.valiant) {
      const auto intermediate =
          static_cast<NodeId>(kernel.rng().uniform_below(sim.net_.num_nodes()));
      min_hops = topo.metric(origin, intermediate) + topo.metric(intermediate, dest);
      if (intermediate != origin) {
        target = intermediate;
        phase = 0;
      }
    } else {
      min_hops = topo.metric(origin, dest);
    }
    kernel.packet(id) = Pkt{origin,   target, dest, now, 0, phase,
                            static_cast<std::uint16_t>(min_hops)};
    if (sim.fault_active_ && sim.fault_model_.is_node_faulty(origin)) {
      // A dead node offers no deliverable traffic; its load is counted as
      // fault-dropped so the delivery ratio reflects the offered load.
      kernel.drop_faulty(now, id);
      return;
    }
    if (phase == 1 && origin == target) {
      // A packet for its own origin needs no transmission (delay 0).
      kernel.deliver(now, id, now, 0.0);
      return;
    }
    route(now, id, /*external=*/true);
  }

  /// Flattened: the kernel's finish/deliver/enqueue steps are inlined into
  /// the per-hop path, as they are in a single-topology simulator.
  [[gnu::flatten]] void on_arc_done(double now, ArcId arc) {
    PacketKernel<Pkt>& kernel = sim.kernel_;
    const std::uint32_t pkt = kernel.finish_arc(now, arc, topo.arc_source(arc));
    Pkt& packet = kernel.packet(pkt);
    packet.cur = topo.arc_target(arc);
    ++packet.hop_count;
    if (packet.cur == packet.target && packet.phase == 0) {
      // Reached the random intermediate node: head for the destination.
      packet.phase = 1;
      packet.target = packet.final_dest;
    }
    if (packet.cur == packet.target) {
      const double stretch =
          packet.min_hops > 0
              ? static_cast<double>(packet.hop_count) / packet.min_hops
              : 0.0;
      kernel.deliver(now, pkt, packet.gen_time,
                     static_cast<double>(packet.hop_count), stretch);
      return;
    }
    if (sim.fault_active_ && packet.hop_count >= sim.net_.ttl()) {
      kernel.drop_faulty(now, pkt);
      return;
    }
    route(now, pkt, /*external=*/false);
  }

  /// Enqueues the packet on its greedy arc toward the phase target.  With
  /// faults, the greedy arc when alive (always, at zero rates, so the
  /// pristine path is reproduced), else the policy's reroute.
  void route(double now, std::uint32_t pkt, bool external) {
    PacketKernel<Pkt>& kernel = sim.kernel_;
    const Pkt& packet = kernel.packet(pkt);
    ArcId arc = topo.greedy_next_arc(packet.cur, packet.target);
    if (sim.fault_active_ && kernel.arc_faulty(arc)) {
      arc = reroute(packet);
      if (arc == kDropArc) {
        kernel.drop_faulty(now, pkt);
        return;
      }
    }
    kernel.enqueue(now, arc, pkt, external, packet.cur);
  }

  /// The policy's reroute around a dead greedy arc (kDropArc = drop).  Out
  /// of line, so the flattened hop path of on_arc_done stays small.
  [[gnu::noinline]] ArcId reroute(const Pkt& packet) {
    PacketKernel<Pkt>& kernel = sim.kernel_;
    return fault_reroute_arc(
        sim.config_.fault_policy, topo, packet.cur, packet.target,
        [&](ArcId arc) { return kernel.arc_faulty(arc); }, kernel.rng());
  }
};

void TopologyGreedySim::run(double warmup, double horizon) {
  with_concrete_topology(net_.topology(), [&](const auto& topo) {
    Router<std::decay_t<decltype(topo)>> router{*this, topo};
    kernel_.drive(router, warmup, horizon);
  });
}

std::string resolved_routing_topology(const Scenario& s) {
  const std::string name =
      s.resolved_topology({"hypercube", "ring", "torus", "mesh"});
  if (name == "hypercube") return name;
  (void)s.resolved_fault_policy({});  // faults are hypercube-only
  (void)s.resolved_backend({});       // scalar-only: reject soa_batch
  if (s.workload == "permutation") {
    if (name != "ring") {
      throw ScenarioError(
          "workload=permutation needs 2^d nodes; among the generic "
          "topologies only the ring has them (topology=" + name + ")");
    }
  } else if (s.workload != "uniform") {
    throw ScenarioError(
        "workload '" + s.workload + "' is hypercube-native; topology=" +
        name + " supports workload=uniform (and permutation on the ring)");
  }
  (void)s.compiled_topology();  // size errors as ScenarioError
  return name;
}

namespace {

/// Greedy (valiant = false) or Valiant mixing over TopologyGreedySim, with
/// the native schemes' metric layout and resilience extras.
CompiledScenario compile_routing(const Scenario& s, bool valiant) {
  const std::string family = resolved_routing_topology(s);
  if (valiant) s.reject_unsupported_keys({"tau", "buffers"});
  const FaultPolicy fault_policy = s.resolved_fault_policy(
      {FaultPolicy::kDrop, FaultPolicy::kSkipDim, FaultPolicy::kDeflect,
       FaultPolicy::kAdaptive});
  (void)s.resolved_backend({});  // scalar-only: reject soa_batch
  // Validated here so a bad permutation or trace fails at compile time,
  // not inside a replication worker thread.
  const auto perm = s.shared_permutation_table();
  const auto replay = s.shared_trace();
  const Window window = s.resolved_window();
  std::optional<DestinationDistribution> law;
  if (family == "hypercube") law = s.make_destinations();
  const bool max_queue = perm != nullptr && !valiant;

  CompiledScenario compiled;
  compiled.replicate = [s, spec = s.topology_spec(), valiant, max_queue,
                        window, fault_policy, perm, replay,
                        law](std::uint64_t seed, int) {
    TopologyRoutingConfig config;
    config.spec = spec;
    config.lambda = s.lambda;
    config.seed = seed;
    config.destinations = law;
    config.fixed_destinations = perm.get();
    config.slot = s.tau;  // 0 under valiant (rejected above)
    config.valiant = valiant;
    config.buffer_capacity = s.buffer_capacity;
    // Greedy permutation runs track per-node occupancy for max_queue.
    config.track_node_occupancy = max_queue;
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
    // Thread-local so the cached sim's trace pointer stays valid for the
    // sim's whole lifetime (and the buffers are reused per rep).
    thread_local PacketTrace trace;
    if (replay != nullptr) {
      // External trace file: every replication replays the same recorded
      // packet stream (the shared_ptr outlives the sims).
      config.trace = replay.get();
    } else if (s.workload == "trace") {
      trace = generate_hypercube_trace(s.d, s.lambda, *law, window.horizon, seed);
      config.trace = &trace;
    }
    TopologyGreedySim& sim = reusable_sim<TopologyGreedySim>(std::move(config));
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
  // No closed-form bracket: the paper's delay bounds are hypercube and
  // butterfly theorems for direct greedy, and the mixed network is not
  // levelled, which is the point of the comparison.
  return compiled;
}

}  // namespace

CompiledScenario compile_topology_greedy(const Scenario& s) {
  return compile_routing(s, /*valiant=*/false);
}

void register_valiant_mixing_scheme(SchemeRegistry& registry) {
  registry.add(
      {"valiant_mixing",
       "two-phase Valiant mixing: greedy to a random intermediate, then "
       "greedy to the destination (§5)",
       [](const Scenario& s) { return compile_routing(s, /*valiant=*/true); },
       [](const Scenario& s) {
         if (s.uses_generic_topology()) {
           // Mixing doubles the traffic over greedy arcs: each phase loads
           // the heaviest arc at ~lambda * uniform_load_per_lambda.
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
           return s.lambda * std::max(1.0, fan_in / static_cast<double>(s.d));
         }
         // Other workloads keep the engine's default rule.
         return s.default_rho();
       }});
}

}  // namespace routesim
