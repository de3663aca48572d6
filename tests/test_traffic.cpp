// Tests for the Poisson traffic sources, including the superposition
// equivalence that the fast simulators rely on.

#include "workload/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
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

TEST(PerNodePoisson, GlobalTimeOrder) {
  PerNodePoissonSource source(32, 0.3, 5);
  double last = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto birth = source.next();
    EXPECT_GE(birth.time, last);
    EXPECT_LT(birth.origin, 32u);
    last = birth.time;
  }
}

TEST(PerNodePoisson, PerNodeRatesAreLambda) {
  PerNodePoissonSource source(16, 0.4, 6);
  std::vector<int> counts(16, 0);
  double horizon = 20000.0;
  for (;;) {
    const auto birth = source.next();
    if (birth.time > horizon) break;
    ++counts[birth.origin];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c / horizon, 0.4, 0.03);
  }
}

TEST(SuperpositionEquivalence, MergedAndPerNodeAgreeStatistically) {
  // The merged source must be statistically indistinguishable from the
  // per-node construction: compare total counts and per-node shares.
  const double horizon = 30000.0;
  MergedPoissonSource merged(8, 0.2, Rng(7));
  PerNodePoissonSource per_node(8, 0.2, 7);

  int merged_count = 0;
  for (;;) {
    const auto birth = merged.next();
    if (birth.time > horizon) break;
    ++merged_count;
  }
  int per_node_count = 0;
  for (;;) {
    const auto birth = per_node.next();
    if (birth.time > horizon) break;
    ++per_node_count;
  }
  const double expected = 8 * 0.2 * horizon;
  EXPECT_NEAR(merged_count, expected, 4.0 * std::sqrt(expected));
  EXPECT_NEAR(per_node_count, expected, 4.0 * std::sqrt(expected));
}

TEST(Sources, RejectBadRates) {
  EXPECT_THROW(MergedPoissonSource(0, 0.5, Rng(1)), ContractViolation);
  EXPECT_THROW(MergedPoissonSource(4, 0.0, Rng(1)), ContractViolation);
  EXPECT_THROW(PerNodePoissonSource(4, -1.0, 1), ContractViolation);
}

}  // namespace
}  // namespace routesim
