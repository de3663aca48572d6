#include "routing/deflection.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

DeflectionSim::DeflectionSim(TopologyRoutingConfig config) { reset(std::move(config)); }

void DeflectionSim::reset(TopologyRoutingConfig config) {
  config_ = std::move(config);
  RS_EXPECTS(config_.lambda > 0.0);
  RS_EXPECTS_MSG(config_.trace == nullptr && config_.slot == 0.0 &&
                     !config_.valiant && config_.buffer_capacity == 0 &&
                     config_.service_order == ArcServiceOrder::kFifo &&
                     config_.dimension_order == DimensionOrder::kIncreasing,
                 "deflection is slotted and bufferless: trace, slot, valiant, "
                 "buffer_capacity, service_order and dimension_order do not "
                 "apply");
  net_.configure(config_);
  rng_.reseed(derive_stream(
      config_.seed, kDeflectionSalts.for_family(net_.topology().name())));
  resident_.resize(net_.num_nodes());
  injection_.resize(net_.num_nodes());
  for (auto& residents : resident_) residents.clear();
  for (auto& waiting : injection_) waiting.clear();
  productive_ = deflected_ = backlog_ = 0;
  fault_model_.configure(config_.faults, net_.topology(), config_.seed);
  fault_active_ = fault_model_.active();

  // Tail metrics (delay_p50/p99) come from the delay histogram.
  KernelStats::Config stats;
  enable_delay_tail_tracking(stats, net_.diameter());
  stats_.configure(stats);
}

void DeflectionSim::run(std::uint64_t warmup_slots, std::uint64_t num_slots) {
  with_concrete_topology(net_.topology(), [&](const auto& topo) {
    run_slots(topo, warmup_slots, num_slots);
  });
}

template <typename Topo>
void DeflectionSim::run_slots(const Topo& topo, std::uint64_t warmup_slots,
                              std::uint64_t num_slots) {
  RS_EXPECTS(warmup_slots <= num_slots);
  const NodeId num_nodes = net_.num_nodes();
  const double warmup_time = static_cast<double>(warmup_slots);
  stats_.begin(warmup_time, static_cast<double>(num_slots));

  int max_degree = 0;
  for (NodeId node = 0; node < num_nodes; ++node) {
    max_degree = std::max(max_degree, topo.out_degree(node));
  }
  // Live out-ports of `node` marked 0, dead ones 1 (a dead arc is a port
  // that is never free); returns the live count.
  std::vector<int> port_used(static_cast<std::size_t>(max_degree));
  const auto mark_dead_ports = [&](NodeId node, int degree) {
    std::fill(port_used.begin(), port_used.begin() + degree, 0);
    if (!fault_active_) return static_cast<std::size_t>(degree);
    std::size_t live = 0;
    for (int k = 0; k < degree; ++k) {
      port_used[k] = fault_model_.is_faulty(topo.out_arc(node, k)) ? 1 : 0;
      live += port_used[k] == 0 ? 1 : 0;
    }
    return live;
  };

  // Next-slot buffers, reused across slots.
  std::vector<std::vector<Pkt>> incoming(num_nodes);

  for (std::uint64_t slot = 0; slot < num_slots; ++slot) {
    const double now = static_cast<double>(slot);
    if (fault_active_ && fault_model_.dynamic()) fault_model_.advance_to(now);

    // 1. New packets join their origin's injection queue.
    for (NodeId node = 0; node < num_nodes; ++node) {
      const std::uint64_t births = sample_poisson(rng_, config_.lambda);
      const bool node_dead = fault_active_ && fault_model_.is_node_faulty(node);
      for (std::uint64_t b = 0; b < births; ++b) {
        const NodeId dest = net_.draw_destination(rng_, node);
        if (node_dead) {
          // A dead node offers no deliverable traffic; count its load as
          // fault-dropped so the delivery ratio reflects the offered load.
          stats_.count_fault_drop(now);
          continue;
        }
        if (dest == node) {
          // Delivered in place, delay 0 (consistent with the greedy model).
          stats_.record_delivery(now, now, 0.0);
          continue;
        }
        injection_[node].push_back(
            Pkt{dest, now, 0, static_cast<std::uint16_t>(topo.metric(node, dest))});
      }
    }

    // 2. Admission: a node may hold at most one packet per live out-port.
    for (NodeId node = 0; node < num_nodes; ++node) {
      auto& waiting = injection_[node];
      if (waiting.empty()) continue;
      auto& residents = resident_[node];
      const std::size_t capacity = mark_dead_ports(node, topo.out_degree(node));
      while (residents.size() < capacity && !waiting.empty()) {
        residents.push_back(waiting.front());
        waiting.pop_front();
      }
    }

    // 3. Port assignment and synchronous transmission: oldest packets pick
    // first, preferring the lowest productive free port, else the lowest
    // free port (a deflection).  A dead arc is a port that is never free.
    for (NodeId node = 0; node < num_nodes; ++node) {
      auto& residents = resident_[node];
      if (residents.empty()) continue;
      // Oldest first, ties in arrival order: an in-place stable insertion
      // sort of the few residents (std::stable_sort allocates per call).
      for (std::size_t i = 1; i < residents.size(); ++i) {
        const Pkt packet = residents[i];
        std::size_t at = i;
        for (; at > 0 && packet.gen_time < residents[at - 1].gen_time; --at) {
          residents[at] = residents[at - 1];
        }
        residents[at] = packet;
      }
      const int degree = topo.out_degree(node);
      (void)mark_dead_ports(node, degree);
      for (auto& packet : residents) {
        int chosen = -1;
        for (int k = 0; k < degree; ++k) {
          if (port_used[k] == 0 && topo.out_arc_descends(node, k, packet.dest)) {
            chosen = k;
            break;
          }
        }
        const bool productive = chosen >= 0;
        if (!productive) {
          for (int k = 0; k < degree; ++k) {
            if (port_used[k] == 0) {
              chosen = k;
              break;
            }
          }
        }
        if (chosen < 0) {
          // Fault-only dead end: more packets than live ports this slot
          // (a burst arriving over live in-arcs of a nearly cut-off node).
          RS_DASSERT(fault_active_);
          stats_.count_fault_drop(packet.gen_time);
          continue;
        }
        port_used[chosen] = 1;
        productive ? ++productive_ : ++deflected_;
        ++packet.hops;
        const NodeId next = topo.arc_target(topo.out_arc(node, chosen));
        if (productive && next == packet.dest) {
          const double stretch =
              packet.min_hops > 0
                  ? static_cast<double>(packet.hops) / packet.min_hops
                  : 0.0;
          stats_.record_delivery(now + 1.0, packet.gen_time,
                                 static_cast<double>(packet.hops), stretch);
        } else if (fault_active_ && packet.hops >= net_.ttl()) {
          stats_.count_fault_drop(packet.gen_time);
        } else {
          incoming[next].push_back(packet);
        }
      }
      residents.clear();
    }
    for (NodeId node = 0; node < num_nodes; ++node) {
      resident_[node].swap(incoming[node]);
      incoming[node].clear();
    }
  }

  stats_.finalize(warmup_time, static_cast<double>(num_slots),
                  /*pending_reset=*/false);
  backlog_ = 0;
  for (const auto& queue : injection_) backlog_ += queue.size();
  for (const auto& residents : resident_) backlog_ += residents.size();
}

void register_deflection_scheme(SchemeRegistry& registry) {
  registry.add(
      {.name = "deflection",
       .summary = "bufferless hot-potato routing on the d-cube ([GrH89]; "
                  "window in slots, lambda in packets per node per slot)",
       // Deflection is natively fault-aware (dead arcs are permanently busy
       // ports), so it reads no fault_policy: only the default is accepted.
       .compile = [](const Scenario& s) {
         const auto perm = s.shared_permutation_table();
         const Window window = s.resolved_window();
         const TopologyRoutingConfig config =
             routing_config(s, s.topology_spec().name, perm.get());
         CompiledScenario compiled;
         // perm owns the table the config points at.
         compiled.replicate = [config, window, perm](std::uint64_t seed, int) {
           TopologyRoutingConfig run = config;
           run.seed = seed;
           DeflectionSim& sim = reusable_sim<DeflectionSim>(std::move(run));
           const auto warmup_slots = static_cast<std::uint64_t>(window.warmup);
           const auto num_slots = static_cast<std::uint64_t>(window.horizon);
           sim.run(warmup_slots, num_slots);
           const KernelStats& stats = sim.kernel_stats();
           return std::vector<double>{
               sim.delay().mean(),
               0.0,
               sim.throughput(),
               sim.hops().mean(),
               0.0,
               static_cast<double>(sim.injection_backlog()),
               sim.deflection_fraction(),
               stats.delivery_ratio(),
               stats.mean_stretch(),
               stats.delay_quantile(0.5),
               stats.delay_quantile(0.99),
               static_cast<double>(stats.fault_drops_in_window())};
         };
         compiled.extra_metrics = {"deflection_fraction", "delivery_ratio",
                                   "mean_stretch",        "delay_p50",
                                   "delay_p99",           "fault_drops"};
         return compiled;
       },
       .topologies = {"hypercube", "ring", "torus", "mesh"},
       .workloads = {"bit_flip", "uniform", "general", "permutation"},
       .fault_policies = {"drop"},
       .keys = {"ttl"}});
}

}  // namespace routesim
