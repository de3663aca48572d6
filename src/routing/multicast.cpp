#include "routing/multicast.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

GreedyMulticastSim::GreedyMulticastSim(MulticastConfig config)
    : config_(std::move(config)), cube_(config_.d) {
  configure_kernel();
}

void GreedyMulticastSim::reset(MulticastConfig config) {
  config_ = std::move(config);
  cube_ = HypercubeTopology(config_.d);
  configure_kernel();
}

void GreedyMulticastSim::configure_kernel() {
  RS_EXPECTS(config_.lambda > 0.0);
  RS_EXPECTS_MSG(config_.fanout >= 1 &&
                     static_cast<std::uint64_t>(config_.fanout) <= cube_.num_nodes(),
                 "fanout must be between 1 and 2^d");
  RS_EXPECTS_MSG(config_.fixed_destinations == nullptr ||
                     config_.fixed_destinations->size() == cube_.num_nodes(),
                 "fixed-destination table must have 2^d entries");

  PacketKernelConfig kernel;
  kernel.num_arcs = cube_.num_arcs();
  kernel.seed = config_.seed;
  kernel.stream_salt = 0x3CA5;
  kernel.birth_rate = config_.lambda * static_cast<double>(cube_.num_nodes());
  kernel.expected_packets =
      static_cast<std::size_t>(kernel.birth_rate * config_.fanout * config_.d) + 64;
  kernel_.configure(kernel);
  packet_pool_.clear();
  completion_ = Summary{};
  transmissions_ = Summary{};
  packets_window_ = 0;
}

void GreedyMulticastSim::on_spawn(double now) { inject(now); }

void GreedyMulticastSim::inject(double now) {
  Rng& rng = kernel_.rng();
  const auto origin = static_cast<NodeId>(rng.uniform_below(cube_.num_nodes()));

  std::vector<NodeId> dests;
  dests.reserve(static_cast<std::size_t>(config_.fanout));
  if (config_.fixed_destinations != nullptr) {
    // Permutation workload: the destination set is the forward orbit of
    // the map — deterministic per source, distinct by construction, and
    // truncated early when the orbit closes.
    NodeId cur = origin;
    for (int k = 0; k < config_.fanout; ++k) {
      cur = (*config_.fixed_destinations)[cur];
      if (std::find(dests.begin(), dests.end(), cur) != dests.end()) break;
      dests.push_back(cur);
    }
  } else {
    // Sample `fanout` distinct uniform destinations by rejection (fanout
    // is small relative to 2^d in all experiments).
    while (dests.size() < static_cast<std::size_t>(config_.fanout)) {
      const auto candidate =
          static_cast<NodeId>(rng.uniform_below(cube_.num_nodes()));
      if (std::find(dests.begin(), dests.end(), candidate) == dests.end()) {
        dests.push_back(candidate);
      }
    }
  }

  const std::uint32_t packet = packet_pool_.allocate();
  const double warmup = kernel_.stats().warmup();
  packet_pool_[packet] = PacketState{now, static_cast<int>(dests.size()), 0, now,
                                     now >= warmup};
  if (now >= warmup) ++packets_window_;

  const auto make_copy = [&](std::vector<NodeId> subset) {
    const std::uint32_t copy = kernel_.allocate_packet();
    kernel_.packet(copy) = Copy{origin, std::move(subset), packet};
    kernel_.stats().population().add(now, +1.0);
    process_at_node(now, copy);
  };

  if (config_.unicast_baseline) {
    for (const NodeId dest : dests) make_copy({dest});
  } else {
    make_copy(std::move(dests));
  }
}

void GreedyMulticastSim::finish_packet_if_done(double /*now*/, std::uint32_t packet) {
  PacketState& state = packet_pool_[packet];
  if (state.undelivered > 0) return;
  if (state.counted) {
    completion_.add(state.last_delivery - state.gen_time);
    transmissions_.add(static_cast<double>(state.transmissions));
  }
  packet_pool_.release(packet);
}

void GreedyMulticastSim::process_at_node(double now, std::uint32_t copy_index) {
  // Move the copy's state out first: forwarding below may allocate new
  // copies (invalidating references into the kernel's copy pool).
  const NodeId cur = kernel_.packet(copy_index).cur;
  const std::uint32_t packet = kernel_.packet(copy_index).packet;
  std::vector<NodeId> dests = std::move(kernel_.packet(copy_index).dests);
  PacketState& state = packet_pool_[packet];

  // Deliver locally if this node is one of the copy's destinations.
  const auto here = std::find(dests.begin(), dests.end(), cur);
  if (here != dests.end()) {
    if (state.counted) kernel_.stats().delay().add(now - state.gen_time);
    state.last_delivery = now;
    --state.undelivered;
    dests.erase(here);
  }

  if (dests.empty()) {
    kernel_.retire(now, copy_index);
    finish_packet_if_done(now, packet);
    return;
  }

  // Partition the remaining destinations by their greedy next arc — the
  // dimension-order multicast tree branches.
  std::vector<std::pair<ArcId, std::vector<NodeId>>> branches;
  for (const NodeId dest : dests) {
    const ArcId arc = cube_.greedy_next_arc(cur, dest);
    auto it = std::find_if(branches.begin(), branches.end(),
                           [arc](const auto& branch) { return branch.first == arc; });
    if (it == branches.end()) {
      branches.emplace_back(arc, std::vector<NodeId>{dest});
    } else {
      it->second.push_back(dest);
    }
  }

  // Forward one copy per branch; the first branch reuses this copy object.
  for (std::size_t b = 0; b < branches.size(); ++b) {
    const std::uint32_t forwarded = b == 0 ? copy_index : kernel_.allocate_packet();
    kernel_.packet(forwarded) = Copy{cur, std::move(branches[b].second), packet};
    if (b > 0) kernel_.stats().population().add(now, +1.0);
    kernel_.enqueue(now, branches[b].first, forwarded, /*external=*/false);
  }
}

void GreedyMulticastSim::on_arc_done(double now, ArcId arc) {
  const std::uint32_t copy_index = kernel_.finish_arc(now, arc);
  Copy& copy = kernel_.packet(copy_index);
  copy.cur = cube_.arc_target(arc);
  PacketState& state = packet_pool_[copy.packet];
  if (state.counted) ++state.transmissions;
  process_at_node(now, copy_index);
}

void GreedyMulticastSim::run(double warmup, double horizon) {
  kernel_.drive(*this, warmup, horizon);
}

void register_multicast_scheme(SchemeRegistry& registry) {
  registry.add(
      {.name = "multicast",
       .summary = "greedy dimension-order multicast trees, fanout destinations "
                  "per packet (§5; unicast_baseline=1 sends fanout "
                  "independent unicasts)",
       .compile = [](const Scenario& s) {
         if (s.fanout < 1 || s.fanout > (1 << s.d)) {
           throw ScenarioError("fanout=" + std::to_string(s.fanout) +
                               " on multicast must be between 1 and 2^d = " +
                               std::to_string(1 << s.d) +
                               " (distinct destinations per packet)");
         }
         CompiledScenario compiled;
         const auto perm = s.shared_permutation_table();
         const Window window = s.resolved_window();
         compiled.replicate = [s, window, perm](std::uint64_t seed, int) {
           MulticastConfig config;
           config.d = s.d;
           config.lambda = s.lambda;
           config.fanout = s.fanout;
           config.seed = seed;
           config.unicast_baseline = s.unicast_baseline;
           config.fixed_destinations = perm ? perm.get() : nullptr;
           GreedyMulticastSim& sim = reusable_sim<GreedyMulticastSim>(config);
           sim.run(window.warmup, window.horizon);
           const double window_length = window.horizon - window.warmup;
           return std::vector<double>{
               sim.delivery_delay().mean(),
               sim.time_avg_copies_in_network(),
               window_length > 0.0
                   ? static_cast<double>(sim.packets_in_window()) / window_length
                   : 0.0,
               0.0,
               0.0,
               0.0,
               sim.completion_delay().mean(),
               sim.transmissions_per_packet().mean()};
         };
         compiled.extra_metrics = {"completion_delay", "transmissions_per_packet"};
         return compiled;
       },
       // Destination sets are uniform; p only sets rho (and so the
       // automatic window), and permutation orbits fix them.
       .workloads = {"bit_flip", "uniform", "permutation"},
       .keys = {"fanout", "unicast_baseline"}});
}

}  // namespace routesim
