#pragma once
/// \file ci.hpp
/// \brief Student-t confidence intervals and the special functions they need.
///
/// The t quantile is computed from scratch (regularised incomplete beta via
/// Lentz's continued fraction + bisection) so the library has no external
/// numeric dependencies; accuracy is ~1e-10, verified against standard
/// tables in the test suite.

#include <cstdint>

#include "stats/summary.hpp"

namespace routesim {

/// Regularised incomplete beta function I_x(a, b), 0 <= x <= 1.
[[nodiscard]] double incomplete_beta(double a, double b, double x);

/// CDF of Student's t distribution with `df` degrees of freedom.
[[nodiscard]] double student_t_cdf(double t, double df);

/// Quantile (inverse CDF) of Student's t distribution.
/// Precondition: 0 < prob < 1, df >= 1.
[[nodiscard]] double student_t_quantile(double prob, double df);

/// A symmetric confidence interval for a mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
  double confidence = 0.95;

  [[nodiscard]] double lower() const noexcept { return mean - half_width; }
  [[nodiscard]] double upper() const noexcept { return mean + half_width; }
  [[nodiscard]] bool contains(double x) const noexcept {
    return x >= lower() && x <= upper();
  }
};

/// Two-sided t confidence interval for the mean of the observations in `s`.
/// With fewer than two observations the half-width is 0.
[[nodiscard]] ConfidenceInterval t_confidence_interval(const Summary& s,
                                                       double confidence = 0.95);

/// The t quantile t_confidence_interval multiplies the standard error by
/// for `count` observations: 0 below two, where the half-width is 0.
[[nodiscard]] double t_interval_quantile(std::uint64_t count, double confidence);

/// t_confidence_interval with its quantile given, for many summaries of one
/// observation count: `t` must be t_interval_quantile(s.count(),
/// confidence).  The same bits, without the quantile's bisection per call.
[[nodiscard]] ConfidenceInterval t_confidence_interval(const Summary& s,
                                                       double confidence, double t);

/// Batch-means interval: splits a single long run of `values.size()`
/// correlated observations into `num_batches` contiguous batches and applies
/// the t interval to the batch averages — the standard single-run output
/// analysis for steady-state simulations.
[[nodiscard]] ConfidenceInterval batch_means_interval(const double* values,
                                                      std::size_t count,
                                                      std::size_t num_batches,
                                                      double confidence = 0.95);

}  // namespace routesim
