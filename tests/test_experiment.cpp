// Tests for the across-replication aggregation: per-metric summaries and
// t intervals over per-replication metric rows, merged in replication
// order.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

/// `reps` rows of {uniform, rep index, 10 * uniform}, one seed per row.
std::vector<std::vector<double>> noisy_rows(int reps, std::uint64_t base_seed) {
  std::vector<std::vector<double>> rows;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(derive_stream(base_seed, static_cast<std::uint64_t>(rep)));
    rows.push_back({rng.uniform(), static_cast<double>(rep), rng.uniform() * 10.0});
  }
  return rows;
}

TEST(Experiment, SummariesMergeAcrossReplications) {
  const auto summaries = summarize_replications(noisy_rows(32, 9));
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_EQ(summaries[0].count(), 32u);
  EXPECT_NEAR(summaries[0].mean(), 0.5, 0.2);
  EXPECT_DOUBLE_EQ(summaries[1].mean(), 15.5);  // mean of 0..31
}

TEST(Experiment, IntervalsShrinkWithMoreReplications) {
  const auto few = replication_intervals(noisy_rows(8, 3));
  const auto many = replication_intervals(noisy_rows(128, 3));
  EXPECT_GT(few[0].half_width, many[0].half_width);
  EXPECT_DOUBLE_EQ(few[0].confidence, 0.95);
}

TEST(Experiment, ValidatesInputs) {
  EXPECT_THROW((void)summarize_replications({}), ContractViolation);
}

}  // namespace
}  // namespace routesim
