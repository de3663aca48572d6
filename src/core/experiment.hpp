#pragma once
/// \file experiment.hpp
/// \brief Replication plans and across-replication aggregation.
///
/// Steady-state estimates in this library come from independent
/// replications: the same model is simulated `replications` times with
/// per-replication seeds derive_stream(base_seed, rep), and each metric's
/// across-replication mean gets a Student-t confidence interval.  The
/// campaign Engine (core/campaign.hpp) runs the replications on its shared
/// worker pool; each lands in its own row, and rows are merged in
/// replication order, so the aggregate is bit-identical for any thread
/// count.

#include <cstdint>
#include <vector>

#include "stats/ci.hpp"
#include "stats/summary.hpp"

namespace routesim {

/// How many independent replications to run, and from which base seed.
/// The worker-pool width is the engine's (EngineOptions::threads), not the
/// plan's: results are identical for any thread count.
struct ReplicationPlan {
  int replications = 8;        ///< independent replications (t intervals need >= 2)
  std::uint64_t base_seed = 1; ///< replication r uses derive_stream(base_seed, r)

  friend bool operator==(const ReplicationPlan&, const ReplicationPlan&) = default;
};

/// Per-metric across-replication summaries of per-replication metric rows
/// (merged in replication order, hence deterministic).
[[nodiscard]] std::vector<Summary> summarize_replications(
    const std::vector<std::vector<double>>& per_replication);

/// Convenience: per-metric t confidence intervals.
[[nodiscard]] std::vector<ConfidenceInterval> replication_intervals(
    const std::vector<std::vector<double>>& per_replication,
    double confidence = 0.95);

}  // namespace routesim
