// Tests for the deterministic Processor-Sharing server, including the
// paper's worked example (§3.3) and the FIFO-vs-PS dominance of Lemma 7.
// They drive PsVirtualClock, the virtual time LevelledNetwork's PS servers
// run on, through the one-server arrival loop of single_server.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "queueing/levelled_network.hpp"
#include "single_server.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

TEST(PsServer, PaperWorkedExample) {
  // §3.3: unit-rate deterministic PS server; first customer arrives at 0,
  // second at 1/2.  The first departs at 3/2 and the second at 2.
  const std::vector<double> arrivals{0.0, 0.5};
  const auto departures = ps_departure_times(arrivals, 1.0);
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_NEAR(departures[0], 1.5, 1e-12);
  EXPECT_NEAR(departures[1], 2.0, 1e-12);
}

TEST(PsServer, LoneCustomerUnaffected) {
  const std::vector<double> arrivals{3.0};
  EXPECT_NEAR(ps_departure_times(arrivals, 1.0)[0], 4.0, 1e-12);
}

TEST(PsServer, WellSeparatedCustomersBehaveLikeFifo) {
  const std::vector<double> arrivals{0.0, 10.0, 20.0};
  const auto departures = ps_departure_times(arrivals, 1.0);
  EXPECT_NEAR(departures[0], 1.0, 1e-12);
  EXPECT_NEAR(departures[1], 11.0, 1e-12);
  EXPECT_NEAR(departures[2], 21.0, 1e-12);
}

TEST(PsServer, SimultaneousArrivalsShareEqually) {
  // Two unit jobs arriving together at rate 1: both finish at t = 2.
  const std::vector<double> arrivals{0.0, 0.0};
  const auto departures = ps_departure_times(arrivals, 1.0);
  EXPECT_NEAR(departures[0], 2.0, 1e-12);
  EXPECT_NEAR(departures[1], 2.0, 1e-12);
}

TEST(PsServer, ServiceRateScalesTime) {
  const std::vector<double> arrivals{0.0, 0.25};
  const auto departures = ps_departure_times(arrivals, 2.0);  // twice as fast
  EXPECT_NEAR(departures[0], 0.75, 1e-12);
  EXPECT_NEAR(departures[1], 1.0, 1e-12);
}

TEST(PsServer, WorkConservation) {
  // Total busy time equals total work when there is no idling interval:
  // last departure = first arrival + total work for a backlogged server.
  std::vector<double> arrivals;
  for (int i = 0; i < 50; ++i) arrivals.push_back(0.01 * i);
  const auto departures = ps_departure_times(arrivals, 1.0);
  EXPECT_NEAR(*std::max_element(departures.begin(), departures.end()),
              arrivals.front() + 50.0, 1e-9);
}

TEST(PsServer, UnitWorkCustomersDepartInArrivalOrder) {
  Rng rng(9);
  std::vector<double> arrivals;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    t += rng.uniform();
    arrivals.push_back(t);
  }
  const auto departures = ps_departure_times(arrivals, 1.0);
  for (std::size_t i = 1; i < departures.size(); ++i) {
    EXPECT_LE(departures[i - 1], departures[i] + 1e-9);
  }
}

TEST(PsServer, TiedCompletionTagsCompleteInAdmissionOrder) {
  // Simultaneous admissions share one completion tag; the clock must hand
  // them back in the order they were admitted.
  PsVirtualClock clock(1.0);
  clock.advance(0.0);
  for (std::uint32_t customer = 0; customer < 4; ++customer) clock.admit(customer);
  EXPECT_DOUBLE_EQ(clock.gap_to_completion(), 4.0);
  clock.advance(4.0);
  for (std::uint32_t customer = 0; customer < 4; ++customer) {
    EXPECT_DOUBLE_EQ(clock.gap_to_completion(), 0.0);
    EXPECT_EQ(clock.complete(), customer);
  }
  EXPECT_TRUE(clock.empty());
}

// Lemma 7: for the same arrival sequence, each departure from the PS server
// occurs no earlier than the corresponding departure from the FIFO server.
class Lemma7Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma7Property, PsDelaysEveryDeparture) {
  Rng rng(GetParam());
  std::vector<double> arrivals;
  double t = 0.0;
  // Bursty arrivals so the servers are often backlogged (the interesting case).
  for (int i = 0; i < 800; ++i) {
    t += rng.bernoulli(0.3) ? rng.uniform() * 3.0 : rng.uniform() * 0.4;
    arrivals.push_back(t);
  }
  const auto fifo = fifo_departure_times(arrivals, 1.0);
  const auto ps = ps_departure_times(arrivals, 1.0);
  ASSERT_EQ(fifo.size(), ps.size());
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_LE(fifo[i], ps[i] + 1e-9) << "customer " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma7Property,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u));

TEST(Lemma7, FirstCustomerStrictlyLaterUnderContention) {
  // With a second arrival before t+1 the first PS departure is strictly
  // later than FIFO's (proof of Lemma 7, eq. (11)).
  const std::vector<double> arrivals{0.0, 0.5};
  const auto fifo = fifo_departure_times(arrivals, 1.0);
  const auto ps = ps_departure_times(arrivals, 1.0);
  EXPECT_GT(ps[0], fifo[0]);
}

}  // namespace
}  // namespace routesim
