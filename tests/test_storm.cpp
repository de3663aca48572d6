// Tests for the correlated fault-storm process (fault/storm.hpp) and its
// composition with the FaultModel's static/dynamic base state.

#include "fault/storm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "fault/fault_model.hpp"
#include "topology/topology.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace routesim {
namespace {

FaultModelConfig storm_config(double rate, int radius, double duration) {
  FaultModelConfig config;
  config.storm_rate = rate;
  config.storm_radius = radius;
  config.storm_duration = duration;
  return config;
}

TEST(Storm, InertWithZeroRateConsumesNothing) {
  const HypercubeTopology cube(4);
  StormProcess storms;
  storms.configure(storm_config(0.0, 1, 0.0), cube, 7);
  EXPECT_FALSE(storms.active());
  EXPECT_EQ(storms.next_event_time(), std::numeric_limits<double>::infinity());
  storms.advance_to(1e9, [](std::uint32_t, int) { FAIL() << "inert delta"; });
  EXPECT_EQ(storms.storms_started(), 0u);
  EXPECT_EQ(storms.active_storms(), 0u);
}

TEST(Storm, BallArcsRadiusZeroIsTheSeedsIncidence) {
  const HypercubeTopology cube(4);
  StormProcess storms;
  storms.configure(storm_config(0.1, 0, 5.0), cube, 7);
  const NodeId seed_node = 5;
  const auto arcs = storms.ball_arcs(seed_node);
  // d out-arcs + d in-arcs, all distinct.
  ASSERT_EQ(arcs.size(), 8u);
  EXPECT_TRUE(std::is_sorted(arcs.begin(), arcs.end()));
  for (int dim = 1; dim <= 4; ++dim) {
    EXPECT_TRUE(std::binary_search(arcs.begin(), arcs.end(),
                                   cube.arc_index(seed_node, dim)));
    EXPECT_TRUE(std::binary_search(
        arcs.begin(), arcs.end(),
        cube.arc_index(flip_dimension(seed_node, dim), dim)));
  }
}

TEST(Storm, BallArcsRadiusOneCoversTheNeighbourhood) {
  const HypercubeTopology cube(4);
  StormProcess storms;
  storms.configure(storm_config(0.1, 1, 5.0), cube, 7);
  const NodeId seed_node = 0;
  const auto arcs = storms.ball_arcs(seed_node);
  EXPECT_TRUE(std::is_sorted(arcs.begin(), arcs.end()));
  EXPECT_TRUE(std::adjacent_find(arcs.begin(), arcs.end()) == arcs.end());
  // Every arc incident to the seed or any neighbour is in the ball.
  std::vector<std::uint32_t> expected;
  cube.append_incident_arcs(seed_node, expected);
  for (int dim = 1; dim <= 4; ++dim) {
    cube.append_incident_arcs(flip_dimension(seed_node, dim), expected);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(arcs, expected);
}

TEST(Storm, ArrivalsExpireAfterExactlyTheDuration) {
  const HypercubeTopology cube(5);
  StormProcess storms;
  storms.configure(storm_config(0.05, 1, 10.0), cube, 7);
  EXPECT_TRUE(storms.active());

  std::map<std::uint32_t, int> coverage;
  const auto apply = [&coverage](std::uint32_t arc, int delta) {
    coverage[arc] += delta;
    ASSERT_GE(coverage[arc], 0);
  };

  const double first = storms.next_event_time();
  ASSERT_GT(first, 0.0);
  storms.advance_to(first, apply);
  EXPECT_EQ(storms.storms_started(), 1u);
  EXPECT_GE(storms.active_storms(), 1u);
  int covered = 0;
  for (const auto& [arc, count] : coverage) covered += count > 0 ? 1 : 0;
  EXPECT_GT(covered, 0);

  // Arrivals never stop, so global quiet has to be *found*, not forced:
  // step event by event and look for a lull (rate * duration = 0.5, so
  // the process is idle most of the time).  At every lull, every arc's
  // coverage count must have been restored to exactly zero.
  bool saw_quiet_after_storms = false;
  for (int events = 0; events < 2000; ++events) {
    const double next = storms.next_event_time();
    ASSERT_TRUE(std::isfinite(next));
    storms.advance_to(next, apply);
    if (storms.active_storms() == 0 && storms.storms_started() >= 2) {
      saw_quiet_after_storms = true;
      for (const auto& [arc, count] : coverage) {
        EXPECT_EQ(count, 0) << "arc " << arc << " left covered in a lull";
      }
      break;
    }
  }
  EXPECT_TRUE(saw_quiet_after_storms);
}

TEST(Storm, OverlappingStormsStackPerArcCounts) {
  const HypercubeTopology cube(3);  // tiny cube: storms overlap almost surely
  StormProcess storms;
  storms.configure(storm_config(2.0, 1, 50.0), cube, 3);
  std::map<std::uint32_t, int> coverage;
  int max_count = 0;
  storms.advance_to(100.0, [&](std::uint32_t arc, int delta) {
    coverage[arc] += delta;
    ASSERT_GE(coverage[arc], 0);
    max_count = std::max(max_count, coverage[arc]);
  });
  // With ~200 arrivals of lifetime 50 on an 8-node cube, stacking is
  // certain — the per-arc count must have exceeded 1 somewhere, and with
  // arrivals outpacing expiries 100:1 some coverage is still up at t=100.
  EXPECT_GT(storms.storms_started(), 50u);
  EXPECT_GT(max_count, 1);
  EXPECT_GT(storms.active_storms(), 0u);
}

TEST(Storm, DeterministicForSeed) {
  const HypercubeTopology cube(4);
  std::vector<std::pair<std::uint32_t, int>> a_deltas, b_deltas;
  for (auto* deltas : {&a_deltas, &b_deltas}) {
    StormProcess storms;
    storms.configure(storm_config(0.5, 1, 8.0), cube, 21);
    storms.advance_to(200.0, [deltas](std::uint32_t arc, int delta) {
      deltas->emplace_back(arc, delta);
    });
  }
  EXPECT_EQ(a_deltas, b_deltas);
}

TEST(Storm, ConfigureRejectsInconsistentKnobs) {
  const HypercubeTopology cube(4);
  StormProcess storms;
  // rate without duration (and vice versa) is a contract violation.
  EXPECT_THROW(storms.configure(storm_config(0.5, 1, 0.0), cube, 7),
               ContractViolation);
  EXPECT_THROW(storms.configure(storm_config(0.0, 1, 5.0), cube, 7),
               ContractViolation);
  EXPECT_THROW(storms.configure(storm_config(-0.1, 1, 5.0), cube, 7),
               ContractViolation);
}

// --- composition with the FaultModel -------------------------------------

TEST(Storm, FaultModelComposesStormCoverageByOr) {
  const HypercubeTopology cube(4);
  FaultModelConfig config;
  config.arc_fault_rate = 0.2;
  config.storm_rate = 0.3;
  config.storm_radius = 1;
  config.storm_duration = 12.0;

  FaultModel model;
  model.configure(config, cube, 5);
  EXPECT_TRUE(model.active());
  EXPECT_TRUE(model.dynamic());  // storms alone make the model time-driven

  // The static base state, for comparison: same seed, storms off.
  FaultModelConfig base_config;
  base_config.arc_fault_rate = 0.2;
  FaultModel base;
  base.configure(base_config, cube, 5);
  EXPECT_FALSE(base.dynamic());

  // The static sample must be unchanged by the storm machinery (the
  // storm stream is salted separately), so at t=0 — before the first
  // arrival — the composite equals the base.
  for (std::uint32_t arc = 0; arc < cube.num_arcs(); ++arc) {
    EXPECT_EQ(model.is_faulty(arc), base.is_faulty(arc)) << "arc " << arc;
  }

  // Drive event by event; coverage only ever ORs on top of base, and in
  // every lull (no active storms — arrivals never stop, so a lull has to
  // be found, not forced) the composite settles back to exactly the base.
  bool saw_storm_only_fault = false;
  bool saw_quiet_after_storms = false;
  for (int events = 0; events < 2000; ++events) {
    const double t = model.next_transition_time();
    ASSERT_TRUE(std::isfinite(t));
    model.advance_to(t);
    for (std::uint32_t arc = 0; arc < cube.num_arcs(); ++arc) {
      if (base.is_faulty(arc)) {
        EXPECT_TRUE(model.is_faulty(arc)) << "base fault lost at arc " << arc;
      } else if (model.is_faulty(arc)) {
        saw_storm_only_fault = true;
      }
    }
    if (model.storms().active_storms() == 0 &&
        model.storms().storms_started() > 0 && saw_storm_only_fault) {
      saw_quiet_after_storms = true;
      for (std::uint32_t arc = 0; arc < cube.num_arcs(); ++arc) {
        EXPECT_EQ(model.is_faulty(arc), base.is_faulty(arc)) << "arc " << arc;
      }
      EXPECT_EQ(model.faulty_arc_count(), base.faulty_arc_count());
      break;
    }
  }
  EXPECT_TRUE(saw_storm_only_fault);
  EXPECT_TRUE(saw_quiet_after_storms);
  EXPECT_GT(model.storms().storms_started(), 0u);
}

TEST(Storm, FaultModelRejectsHalfConfiguredStorm) {
  const HypercubeTopology cube(4);
  FaultModelConfig config;
  config.storm_rate = 0.1;  // no duration
  FaultModel model;
  EXPECT_THROW(model.configure(config, cube, 1), ContractViolation);
}

}  // namespace
}  // namespace routesim
