#include "stats/ci.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace routesim {

namespace {

// Continued-fraction evaluation for the incomplete beta function
// (Numerical-Recipes-style modified Lentz algorithm).
double beta_cont_frac(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 1e-15;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  RS_EXPECTS(a > 0.0 && b > 0.0);
  RS_EXPECTS(x >= 0.0 && x <= 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  // lgamma_r, not std::lgamma: the same bits (glibc computes both in
  // __ieee754_lgamma_r) without the write to the global signgam, which
  // races when cells are assembled on worker threads.
  int sign = 0;
  const double ln_front = ::lgamma_r(a + b, &sign) - ::lgamma_r(a, &sign) -
                          ::lgamma_r(b, &sign) + a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the continued fraction directly where it converges fast, else the
  // symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cont_frac(a, b, x) / a;
  }
  return 1.0 - front * beta_cont_frac(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double df) {
  RS_EXPECTS(df > 0.0);
  if (t == 0.0) return 0.5;
  const double x = df / (df + t * t);
  const double tail = 0.5 * incomplete_beta(df / 2.0, 0.5, x);
  return t > 0.0 ? 1.0 - tail : tail;
}

double student_t_quantile(double prob, double df) {
  RS_EXPECTS(prob > 0.0 && prob < 1.0);
  RS_EXPECTS(df >= 1.0);
  if (prob == 0.5) return 0.0;
  // Bisection on the CDF: monotone, so this is robust; 200 iterations give
  // full double precision on any realistic bracket.
  double lo = -1e3, hi = 1e3;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_cdf(mid, df) < prob) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + std::abs(lo))) break;
  }
  return 0.5 * (lo + hi);
}

double t_interval_quantile(std::uint64_t count, double confidence) {
  RS_EXPECTS(confidence > 0.0 && confidence < 1.0);
  if (count < 2) return 0.0;
  const double df = static_cast<double>(count - 1);
  return student_t_quantile(0.5 + confidence / 2.0, df);
}

ConfidenceInterval t_confidence_interval(const Summary& s, double confidence) {
  return t_confidence_interval(s, confidence,
                               t_interval_quantile(s.count(), confidence));
}

ConfidenceInterval t_confidence_interval(const Summary& s, double confidence,
                                         double t) {
  RS_EXPECTS(confidence > 0.0 && confidence < 1.0);
  ConfidenceInterval ci;
  ci.mean = s.mean();
  ci.confidence = confidence;
  ci.half_width = s.count() < 2 ? 0.0 : t * s.std_error();
  return ci;
}

ConfidenceInterval batch_means_interval(const double* values, std::size_t count,
                                        std::size_t num_batches, double confidence) {
  RS_EXPECTS(values != nullptr || count == 0);
  RS_EXPECTS(num_batches >= 2);
  Summary batches;
  if (count >= num_batches) {
    const std::size_t per_batch = count / num_batches;
    for (std::size_t b = 0; b < num_batches; ++b) {
      double sum = 0.0;
      for (std::size_t i = b * per_batch; i < (b + 1) * per_batch; ++i) sum += values[i];
      batches.add(sum / static_cast<double>(per_batch));
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) batches.add(values[i]);
  }
  return t_confidence_interval(batches, confidence);
}

}  // namespace routesim
