#include "util/distributions.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace routesim {

double sample_exponential(Rng& rng, double rate) {
  RS_EXPECTS(rate > 0.0);
  return -std::log(rng.uniform_pos()) / rate;
}

namespace {

std::uint64_t poisson_knuth(Rng& rng, double mean) {
  // Multiply uniforms until the product drops below e^-mean.
  const double limit = std::exp(-mean);
  std::uint64_t n = 0;
  double prod = rng.uniform_pos();
  while (prod > limit) {
    ++n;
    prod *= rng.uniform_pos();
  }
  return n;
}

// PTRS: transformed rejection with squeeze (W. Hörmann, "The transformed
// rejection method for generating Poisson random variables", 1993).
// Exact for mean >= 10; we switch at 30 to stay deep in its valid range.
std::uint64_t poisson_ptrs(Rng& rng, double mean) {
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  const double log_mean = std::log(mean);
  // lgamma_r, not std::lgamma: the same bits without the write to glibc's
  // global signgam, which races when engine workers draw slotted batches.
  int sign = 0;

  for (;;) {
    const double u = rng.uniform() - 0.5;
    const double v = rng.uniform_pos();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * log_mean - mean - ::lgamma_r(k + 1.0, &sign)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace

std::uint64_t sample_poisson(Rng& rng, double mean) {
  RS_EXPECTS(mean >= 0.0);
  if (mean == 0.0) return 0;
  return mean <= 30.0 ? poisson_knuth(rng, mean) : poisson_ptrs(rng, mean);
}

std::uint64_t sample_geometric(Rng& rng, double q) {
  RS_EXPECTS(q >= 0.0 && q < 1.0);
  if (q == 0.0) return 0;
  // Inversion: floor(log(U) / log(q)) has the failures-before-success law.
  return static_cast<std::uint64_t>(std::floor(std::log(rng.uniform_pos()) / std::log(q)));
}

int sample_binomial_small(Rng& rng, int n, double prob) {
  RS_EXPECTS(n >= 0);
  RS_EXPECTS(prob >= 0.0 && prob <= 1.0);
  int successes = 0;
  for (int i = 0; i < n; ++i) successes += rng.bernoulli(prob) ? 1 : 0;
  return successes;
}

}  // namespace routesim
