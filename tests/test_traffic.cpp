// Tests for the merged Poisson traffic source: the superposition of the
// per-node streams that the fast simulators rely on.

#include "workload/traffic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "stats/summary.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

TEST(MergedPoisson, TimesStrictlyIncrease) {
  MergedPoissonSource source(16, 0.5, Rng(1));
  double last = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const auto birth = source.next();
    EXPECT_GT(birth.time, last);
    last = birth.time;
  }
}

TEST(MergedPoisson, TotalRateIsNodesTimesLambda) {
  MergedPoissonSource source(64, 0.25, Rng(2));
  EXPECT_DOUBLE_EQ(source.total_rate(), 16.0);
  // Empirical: count births in [0, T].
  int count = 0;
  while (source.next().time <= 500.0) ++count;
  EXPECT_NEAR(count / 500.0, 16.0, 0.5);
}

TEST(MergedPoisson, OriginsAreUniform) {
  MergedPoissonSource source(8, 1.0, Rng(3));
  std::vector<int> counts(8, 0);
  constexpr int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[source.next().origin];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.125, 3e-3);
  }
}

TEST(MergedPoisson, GapsAreExponential) {
  MergedPoissonSource source(4, 0.5, Rng(4));
  Summary gaps;
  double last = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const auto birth = source.next();
    gaps.add(birth.time - last);
    last = birth.time;
  }
  EXPECT_NEAR(gaps.mean(), 0.5, 0.01);           // mean 1/(4*0.5)
  EXPECT_NEAR(gaps.stddev(), gaps.mean(), 0.01);  // exponential: cv = 1
}

TEST(Sources, RejectBadRates) {
  EXPECT_THROW(MergedPoissonSource(0, 0.5, Rng(1)), ContractViolation);
  EXPECT_THROW(MergedPoissonSource(4, 0.0, Rng(1)), ContractViolation);
}

}  // namespace
}  // namespace routesim
