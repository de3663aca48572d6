// Tests for the self-contained Student-t machinery: incomplete beta, CDF,
// quantile and the confidence-interval helpers.

#include "stats/ci.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

TEST(IncompleteBeta, BoundaryValues) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1, 1) = x.
  for (const double x : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(IncompleteBeta, SymmetryRelation) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(incomplete_beta(2.5, 4.0, 0.3),
              1.0 - incomplete_beta(4.0, 2.5, 0.7), 1e-12);
}

TEST(IncompleteBeta, KnownValue) {
  // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.5}(1, 2) = 0.75.
  EXPECT_NEAR(incomplete_beta(2.0, 2.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(incomplete_beta(1.0, 2.0, 0.5), 0.75, 1e-12);
}

TEST(StudentT, CdfAtZeroIsHalf) {
  for (const double df : {1.0, 5.0, 30.0}) {
    EXPECT_NEAR(student_t_cdf(0.0, df), 0.5, 1e-14);
  }
}

TEST(StudentT, CdfSymmetry) {
  EXPECT_NEAR(student_t_cdf(1.7, 8.0) + student_t_cdf(-1.7, 8.0), 1.0, 1e-12);
}

TEST(StudentT, CdfCauchySpecialCase) {
  // df = 1 is Cauchy: F(1) = 3/4.
  EXPECT_NEAR(student_t_cdf(1.0, 1.0), 0.75, 1e-10);
}

TEST(StudentT, QuantileMatchesStandardTables) {
  // t_{0.975, df}: classic two-sided 95% critical values.
  EXPECT_NEAR(student_t_quantile(0.975, 1.0), 12.706, 2e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 5.0), 2.571, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 10.0), 2.228, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 30.0), 2.042, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.95, 10.0), 1.812, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.99, 20.0), 2.528, 1e-3);
}

TEST(StudentT, QuantileApproachesNormalForLargeDf) {
  EXPECT_NEAR(student_t_quantile(0.975, 100000.0), 1.959964, 2e-3);
}

TEST(StudentT, QuantileInvertsGCdf) {
  for (const double prob : {0.6, 0.8, 0.95, 0.999}) {
    for (const double df : {2.0, 7.0, 25.0}) {
      const double t = student_t_quantile(prob, df);
      EXPECT_NEAR(student_t_cdf(t, df), prob, 1e-9);
    }
  }
}

TEST(StudentT, ReentrantLogGammaIsBitIdentical) {
  // incomplete_beta takes log-gamma from lgamma_r, which leaves glibc's
  // global signgam alone (std::lgamma writes it, a race when cells are
  // assembled on worker threads).  It must equal std::lgamma bit for bit
  // on what student_t_quantile passes: a = df/2, b = 0.5 and a + b.
  for (int df = 1; df <= 10000; ++df) {
    for (const double x : {df / 2.0, 0.5, df / 2.0 + 0.5}) {
      int sign = 0;
      EXPECT_EQ(::lgamma_r(x, &sign), std::lgamma(x)) << "x = " << x;
    }
  }
}

TEST(StudentT, QuantileRejectsBadInputs) {
  EXPECT_THROW((void)student_t_quantile(0.0, 5.0), ContractViolation);
  EXPECT_THROW((void)student_t_quantile(1.0, 5.0), ContractViolation);
  EXPECT_THROW((void)student_t_quantile(0.5, 0.0), ContractViolation);
}

TEST(ConfidenceInterval, ContainsAndBounds) {
  ConfidenceInterval ci{10.0, 2.0, 0.95};
  EXPECT_DOUBLE_EQ(ci.lower(), 8.0);
  EXPECT_DOUBLE_EQ(ci.upper(), 12.0);
  EXPECT_TRUE(ci.contains(10.0));
  EXPECT_TRUE(ci.contains(8.0));
  EXPECT_FALSE(ci.contains(12.5));
}

TEST(ConfidenceInterval, FromSummaryKnownCase) {
  // n=4 observations {1,2,3,4}: mean 2.5, s = sqrt(5/3), se = s/2,
  // t_{0.975,3} = 3.1824.
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  const auto ci = t_confidence_interval(s, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 2.5);
  EXPECT_NEAR(ci.half_width, 3.1824 * std::sqrt(5.0 / 3.0) / 2.0, 1e-3);
}

TEST(ConfidenceInterval, DegenerateSummaryHasZeroWidth) {
  Summary s;
  s.add(3.0);
  const auto ci = t_confidence_interval(s);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(ConfidenceInterval, CoverageIsApproximatelyNominal) {
  // Draw many size-10 samples of uniforms; the 95% t interval for the mean
  // should contain 0.5 about 95% of the time (t interval is slightly
  // conservative/robust for uniform data).
  Rng rng(77);
  int covered = 0;
  constexpr int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    Summary s;
    for (int i = 0; i < 10; ++i) s.add(rng.uniform());
    covered += t_confidence_interval(s, 0.95).contains(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(covered) / trials, 0.95, 0.02);
}

TEST(BatchMeans, SplitsIntoRequestedBatches) {
  std::vector<double> values(1000);
  Rng rng(5);
  for (auto& v : values) v = rng.uniform();
  const auto ci = batch_means_interval(values.data(), values.size(), 10);
  EXPECT_NEAR(ci.mean, 0.5, 0.05);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.half_width, 0.1);
}

TEST(BatchMeans, FewObservationsFallBack) {
  const double values[3] = {1.0, 2.0, 3.0};
  const auto ci = batch_means_interval(values, 3, 10);
  EXPECT_DOUBLE_EQ(ci.mean, 2.0);
}

TEST(BatchMeans, RejectsFewerThanTwoBatches) {
  const double values[4] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW((void)batch_means_interval(values, 4, 1), ContractViolation);
}

}  // namespace
}  // namespace routesim
