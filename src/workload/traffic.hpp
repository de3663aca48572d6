#pragma once
/// \file traffic.hpp
/// \brief Packet-generation processes.
///
/// The paper's model: every one of the 2^d nodes generates packets as an
/// independent Poisson process of rate lambda.  The superposition of these
/// processes is a single Poisson process of rate lambda * 2^d whose points
/// carry independent uniformly distributed origins — MergedPoissonSource
/// exploits this (it is an exact, not approximate, representation and keeps
/// the pending-event set small).  (The slotted arrivals of §3.4 are the
/// packet kernel's kSlot process.)

#include <cstdint>

#include "util/bits.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace routesim {

/// A packet birth: time and origin (destination is sampled separately).
struct PacketBirth {
  double time = 0.0;
  NodeId origin = 0;
};

/// Exact superposition of num_nodes independent Poisson(rate_per_node)
/// sources.
class MergedPoissonSource {
 public:
  MergedPoissonSource(std::uint32_t num_nodes, double rate_per_node, Rng rng);

  /// Time and origin of the next packet (strictly increasing times).
  [[nodiscard]] PacketBirth next();

  [[nodiscard]] double total_rate() const noexcept { return total_rate_; }

 private:
  std::uint32_t num_nodes_;
  double total_rate_;
  double now_ = 0.0;
  Rng rng_;
};

}  // namespace routesim
