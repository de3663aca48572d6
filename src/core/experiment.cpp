#include "core/experiment.hpp"

#include "util/assert.hpp"

namespace routesim {

std::vector<Summary> summarize_replications(
    const std::vector<std::vector<double>>& per_replication) {
  RS_EXPECTS(!per_replication.empty());
  std::vector<Summary> summaries(per_replication.front().size());
  for (const auto& row : per_replication) {
    for (std::size_t m = 0; m < summaries.size(); ++m) summaries[m].add(row[m]);
  }
  return summaries;
}

std::vector<ConfidenceInterval> replication_intervals(
    const std::vector<std::vector<double>>& per_replication, double confidence) {
  const auto summaries = summarize_replications(per_replication);
  // Every column has one observation per replication: one quantile.
  const double t = t_interval_quantile(per_replication.size(), confidence);
  std::vector<ConfidenceInterval> intervals;
  intervals.reserve(summaries.size());
  for (const auto& summary : summaries) {
    intervals.push_back(t_confidence_interval(summary, confidence, t));
  }
  return intervals;
}

}  // namespace routesim
