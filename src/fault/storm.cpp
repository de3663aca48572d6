#include "fault/storm.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "topology/topology.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

/// Keeps storm draws off every other stream of the replication.
constexpr std::uint64_t kStormStreamSalt = 0x5709;

void StormProcess::configure(const FaultModelConfig& config,
                             const Topology& topology, std::uint64_t seed) {
  RS_EXPECTS(config.storm_rate >= 0.0);
  RS_EXPECTS(config.storm_radius >= 0);
  RS_EXPECTS((config.storm_rate > 0.0) == (config.storm_duration > 0.0));
  config_ = config;
  topology_ = &topology;
  active_.clear();
  storms_started_ = 0;
  if (!active()) {
    next_arrival_ = std::numeric_limits<double>::infinity();
    next_event_ = next_arrival_;
    return;
  }
  rng_.reseed(derive_stream(seed, kStormStreamSalt));
  visited_.assign((topology.num_nodes() + 63) / 64, 0);
  next_arrival_ = sample_exponential(rng_, config.storm_rate);
  next_event_ = next_arrival_;
}

void StormProcess::compute_ball(std::uint32_t seed_node,
                                std::vector<std::uint32_t>& out) {
  // BFS to depth `radius` over out-arc targets; the visited bitset
  // is cleared lazily (only the bits we set) so repeated storms stay
  // O(ball size), not O(network size).
  ball_nodes_.clear();
  ball_nodes_.push_back(seed_node);
  visited_[seed_node >> 6] |= std::uint64_t{1} << (seed_node & 63u);
  std::size_t level_begin = 0;
  for (int depth = 0; depth < config_.storm_radius; ++depth) {
    const std::size_t level_end = ball_nodes_.size();
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const NodeId node = ball_nodes_[i];
      for (int k = 0; k < topology_->out_degree(node); ++k) {
        const NodeId next = topology_->arc_target(topology_->out_arc(node, k));
        auto& word = visited_[next >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (next & 63u);
        if ((word & bit) != 0) continue;
        word |= bit;
        ball_nodes_.push_back(next);
      }
    }
    level_begin = level_end;
  }
  out.clear();
  for (const std::uint32_t node : ball_nodes_) {
    visited_[node >> 6] &= ~(std::uint64_t{1} << (node & 63u));
    topology_->append_incident_arcs(node, out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<std::uint32_t> StormProcess::ball_arcs(std::uint32_t seed_node) {
  std::vector<std::uint32_t> arcs;
  compute_ball(seed_node, arcs);
  return arcs;
}

void StormProcess::advance_to(double now, const ArcDelta& delta) {
  if (!active()) return;
  for (;;) {
    const double expiry = active_.empty()
                              ? std::numeric_limits<double>::infinity()
                              : active_.front().expiry;
    // Expiries and arrivals are interleaved in time order; on a tie the
    // expiry goes first so a zero-measure overlap does not double-count.
    if (expiry <= now && expiry <= next_arrival_) {
      for (const std::uint32_t arc : active_.front().arcs) delta(arc, -1);
      active_.pop_front();
      continue;
    }
    if (next_arrival_ <= now) {
      const auto seed_node = static_cast<std::uint32_t>(
          rng_.uniform_below(topology_->num_nodes()));
      ActiveStorm storm;
      storm.expiry = next_arrival_ + config_.storm_duration;
      compute_ball(seed_node, storm.arcs);
      for (const std::uint32_t arc : storm.arcs) delta(arc, +1);
      active_.push_back(std::move(storm));
      ++storms_started_;
      next_arrival_ += sample_exponential(rng_, config_.storm_rate);
      continue;
    }
    break;
  }
  refresh_next_event();
}

void StormProcess::refresh_next_event() noexcept {
  next_event_ = next_arrival_;
  if (!active_.empty() && active_.front().expiry < next_event_) {
    next_event_ = active_.front().expiry;
  }
}

}  // namespace routesim
