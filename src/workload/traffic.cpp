#include "workload/traffic.hpp"

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

}  // namespace routesim
