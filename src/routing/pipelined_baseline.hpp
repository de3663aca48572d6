#pragma once
/// \file pipelined_baseline.hpp
/// \brief The non-greedy baseline of §2.3: pipelined rounds of the
///        Valiant-Brebner first phase.
///
/// At each round boundary every node selects (at most) one of its waiting
/// packets; all selected packets are routed greedily to their destinations
/// on an otherwise idle network, and the next round starts only when the
/// previous round has completely finished (global synchronisation; the
/// termination-detection overhead is ignored, as in the paper).  Each node
/// therefore behaves like an M/G/1 queue whose service time is the round
/// length (~ R*d), so the scheme is stable only for lambda * R * d < 1 —
/// i.e. the stability region shrinks like 1/d, in stark contrast with the
/// greedy scheme's full region rho < 1.  This class measures both the delay
/// and the empirical round length (the paper's constant R is *measured*,
/// not assumed).
///
/// Every round runs on one reused GreedyRound (routing/batch_router.hpp),
/// i.e. on the packet kernel; delay / delivery accounting goes through the
/// shared KernelStats of des/packet_kernel.hpp.

#include <cstdint>
#include <deque>
#include <vector>

#include "des/packet_kernel.hpp"
#include "routing/batch_router.hpp"
#include "stats/summary.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"
#include "workload/destination.hpp"

namespace routesim {

struct PipelinedBaselineConfig {
  int d = 4;
  double lambda = 0.01;  ///< per-node Poisson generation rate
  DestinationDistribution destinations = DestinationDistribution::uniform(4);
  /// Per-source fixed destinations (workload = permutation); non-owning,
  /// 2^d entries, null = sample from `destinations`.
  const std::vector<NodeId>* fixed_destinations = nullptr;
  std::uint64_t seed = 1;
};

class PipelinedBaselineSim {
 public:
  explicit PipelinedBaselineSim(PipelinedBaselineConfig config);

  /// Reconfigures for another replication, reusing storage.
  void reset(PipelinedBaselineConfig config);

  /// Simulates rounds until the round clock passes `horizon`; delay
  /// statistics cover packets generated in [warmup, horizon].
  void run(double warmup, double horizon);

  /// Per-packet delay: generation to delivery (includes waiting through
  /// whole rounds at the origin).
  [[nodiscard]] const Summary& delay() const noexcept { return stats_.delay(); }

  /// Length of each executed (non-empty) round; mean/d estimates R.
  [[nodiscard]] const Summary& round_length() const noexcept { return round_length_; }

  /// Packets still waiting at their origins when the horizon was reached.
  [[nodiscard]] std::uint64_t backlog() const noexcept { return backlog_; }

  /// Number of packets delivered within the measurement window.
  [[nodiscard]] std::uint64_t deliveries_in_window() const noexcept {
    return stats_.deliveries_in_window();
  }

  /// Deliveries per time unit over the measurement window.
  [[nodiscard]] double throughput() const noexcept { return stats_.throughput(); }

  /// Mean backlog sampled at round boundaries after warm-up.
  [[nodiscard]] const Summary& backlog_at_rounds() const noexcept {
    return backlog_samples_;
  }

 private:
  struct Waiting {
    double gen_time;
    NodeId destination;
  };

  void generate_until(double t);

  PipelinedBaselineConfig config_;
  HypercubeTopology cube_{1};  ///< placeholder; reset() installs the real topology
  Rng rng_;
  std::vector<std::deque<Waiting>> node_queue_;
  double next_birth_ = 0.0;
  GreedyRound round_;

  KernelStats stats_;
  Summary round_length_;
  Summary backlog_samples_;
  std::uint64_t backlog_ = 0;
};

class SchemeRegistry;

/// core/registry.hpp hookup: registers "pipelined_baseline" (§2.3) with
/// extra metric round_over_d (the measured constant R).
void register_pipelined_baseline_scheme(SchemeRegistry& registry);

}  // namespace routesim
