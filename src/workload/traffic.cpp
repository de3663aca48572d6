#include "workload/traffic.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace routesim {

MergedPoissonSource::MergedPoissonSource(std::uint32_t num_nodes,
                                         double rate_per_node, Rng rng)
    : num_nodes_(num_nodes),
      total_rate_(rate_per_node * static_cast<double>(num_nodes)),
      rng_(rng) {
  RS_EXPECTS(num_nodes >= 1);
  RS_EXPECTS(rate_per_node > 0.0);
}

PacketBirth MergedPoissonSource::next() {
  now_ += sample_exponential(rng_, total_rate_);
  return PacketBirth{now_, static_cast<NodeId>(rng_.uniform_below(num_nodes_))};
}

PerNodePoissonSource::PerNodePoissonSource(std::uint32_t num_nodes,
                                           double rate_per_node, std::uint64_t seed)
    : rate_(rate_per_node) {
  RS_EXPECTS(num_nodes >= 1);
  RS_EXPECTS(rate_per_node > 0.0);
  rngs_.reserve(num_nodes);
  heap_.reserve(num_nodes);
  for (std::uint32_t node = 0; node < num_nodes; ++node) {
    rngs_.emplace_back(derive_stream(seed, node));
    heap_.push_back(NodeClock{sample_exponential(rngs_.back(), rate_), node});
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

PacketBirth PerNodePoissonSource::next() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  NodeClock& clock = heap_.back();
  const PacketBirth birth{clock.next_time, clock.node};
  clock.next_time += sample_exponential(rngs_[clock.node], rate_);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  return birth;
}

}  // namespace routesim
