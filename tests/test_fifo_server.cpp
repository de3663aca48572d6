// Tests for the deterministic FIFO server's Lindley recursion (the oracle
// of the Lemma 7 tests), including the sample-path monotonicity of Lemma 8.

#include <gtest/gtest.h>

#include <vector>

#include "single_server.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

TEST(FifoServer, IdleServerDepartsAfterService) {
  const std::vector<double> arrivals{0.0, 5.0, 12.0};
  const auto departures = fifo_departure_times(arrivals, 1.0);
  EXPECT_EQ(departures, (std::vector<double>{1.0, 6.0, 13.0}));
}

TEST(FifoServer, BusyServerQueuesWork) {
  const std::vector<double> arrivals{0.0, 0.2, 0.4};
  const auto departures = fifo_departure_times(arrivals, 1.0);
  EXPECT_EQ(departures, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(FifoServer, NonUnitService) {
  const std::vector<double> arrivals{0.0, 1.0};
  const auto departures = fifo_departure_times(arrivals, 2.5);
  EXPECT_EQ(departures, (std::vector<double>{2.5, 5.0}));
}

TEST(FifoServer, EmptyInput) {
  EXPECT_TRUE(fifo_departure_times(std::vector<double>{}, 1.0).empty());
}

TEST(FifoServer, DeparturesAreStrictlySpacedByService) {
  Rng rng(12);
  std::vector<double> arrivals;
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    t += rng.uniform();
    arrivals.push_back(t);
  }
  const auto departures = fifo_departure_times(arrivals, 0.7);
  for (std::size_t i = 1; i < departures.size(); ++i) {
    EXPECT_GE(departures[i] - departures[i - 1], 0.7 - 1e-12);
  }
}

// Lemma 8: if every arrival is delayed (t_i <= t_i'), every departure is
// delayed (D_i <= D_i').  Property-tested over random arrival sequences and
// random per-arrival delays.
class Lemma8Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma8Property, DelayedArrivalsYieldDelayedDepartures) {
  Rng rng(GetParam());
  std::vector<double> arrivals, delayed;
  double t = 0.0, extra = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += rng.uniform() * 2.0;
    // Accumulate the delay so the delayed sequence stays sorted.
    extra += rng.uniform() * 0.5;
    arrivals.push_back(t);
    delayed.push_back(t + extra);
  }
  const auto base = fifo_departure_times(arrivals, 1.0);
  const auto later = fifo_departure_times(delayed, 1.0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_LE(base[i], later[i] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma8Property,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace routesim
