// Tests for packet-trace generation and replay determinism.

#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "routing/topology_greedy.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

std::string write_temp_trace(const std::string& name,
                             const std::string& contents) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << contents;
  out.close();
  return path;
}

TEST(Trace, GeneratedTraceIsSortedAndInRange) {
  const auto dist = DestinationDistribution::uniform(5);
  const auto trace = generate_hypercube_trace(5, 0.3, dist, 1000.0, 11);
  EXPECT_EQ(trace.dimension, 5);
  EXPECT_DOUBLE_EQ(trace.rate_per_node, 0.3);
  double last = 0.0;
  for (const auto& packet : trace.packets) {
    EXPECT_GE(packet.time, last);
    EXPECT_LE(packet.time, 1000.0);
    EXPECT_LT(packet.origin, 32u);
    EXPECT_LT(packet.destination, 32u);
    last = packet.time;
  }
  EXPECT_DOUBLE_EQ(trace.horizon(), last);
}

TEST(Trace, CountMatchesRate) {
  const auto dist = DestinationDistribution::uniform(6);
  const auto trace = generate_hypercube_trace(6, 0.2, dist, 5000.0, 12);
  // Expected 64 * 0.2 * 5000 = 64000 packets.
  EXPECT_NEAR(static_cast<double>(trace.size()), 64000.0, 4.0 * 253.0);
}

TEST(Trace, DeterministicForSeed) {
  const auto dist = DestinationDistribution::bit_flip(4, 0.3);
  const auto a = generate_hypercube_trace(4, 0.5, dist, 200.0, 99);
  const auto b = generate_hypercube_trace(4, 0.5, dist, 200.0, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.packets[i].time, b.packets[i].time);
    EXPECT_EQ(a.packets[i].origin, b.packets[i].origin);
    EXPECT_EQ(a.packets[i].destination, b.packets[i].destination);
  }
}

TEST(Trace, DifferentSeedsDiffer) {
  const auto dist = DestinationDistribution::uniform(4);
  const auto a = generate_hypercube_trace(4, 0.5, dist, 200.0, 1);
  const auto b = generate_hypercube_trace(4, 0.5, dist, 200.0, 2);
  ASSERT_FALSE(a.packets.empty());
  ASSERT_FALSE(b.packets.empty());
  EXPECT_NE(a.packets.front().time, b.packets.front().time);
}

TEST(Trace, DestinationFrequenciesFollowDistribution) {
  const auto dist = DestinationDistribution::bit_flip(3, 0.25);
  const auto trace = generate_hypercube_trace(3, 1.0, dist, 30000.0, 13);
  std::vector<int> mask_counts(8, 0);
  for (const auto& packet : trace.packets) {
    ++mask_counts[packet.origin ^ packet.destination];
  }
  const auto total = static_cast<double>(trace.size());
  for (NodeId mask = 0; mask < 8; ++mask) {
    EXPECT_NEAR(mask_counts[mask] / total, dist.mask_probability(mask), 5e-3);
  }
}

// The butterfly replays the same generator's traces: its terminals are the
// 2^d rows, so each record is a level-1 origin row and a level-(d+1)
// destination row, and the packet crosses one vertical arc per differing
// row bit.
TEST(Trace, ButterflyTraceUsesRows) {
  const auto dist = DestinationDistribution::uniform(4);
  const auto trace = generate_hypercube_trace(4, 0.4, dist, 500.0, 14);
  double vertical = 0.0;
  for (const auto& packet : trace.packets) {
    EXPECT_LT(packet.origin, 16u);
    EXPECT_LT(packet.destination, 16u);
    vertical += hamming_distance(packet.origin, packet.destination);
  }
  TopologyRoutingConfig config;
  config.spec.name = "butterfly";
  config.spec.d = 4;
  config.trace = &trace;
  TopologyGreedySim sim(config);
  sim.run(0.0, 600.0);  // past the last birth: every packet is delivered
  EXPECT_EQ(sim.kernel_stats().deliveries_in_window(), trace.size());
  EXPECT_NEAR(sim.hops().mean(),
              vertical / static_cast<double>(trace.size()), 1e-12);
}

TEST(Trace, EmptyOnZeroHorizonRejected) {
  const auto dist = DestinationDistribution::uniform(4);
  EXPECT_THROW((void)generate_hypercube_trace(4, 0.5, dist, 0.0, 1),
               ContractViolation);
  EXPECT_THROW((void)generate_hypercube_trace(4, 0.0, dist, 10.0, 1),
               ContractViolation);
  EXPECT_THROW((void)generate_hypercube_trace(5, 0.5, dist, 10.0, 1),
               ContractViolation);  // dimension mismatch
}

TEST(Trace, ButterflyTraceIsSortedWithConformingRate) {
  const auto dist = DestinationDistribution::uniform(5);
  const auto trace = generate_hypercube_trace(5, 0.25, dist, 4000.0, 15);
  EXPECT_EQ(trace.dimension, 5);
  EXPECT_DOUBLE_EQ(trace.rate_per_node, 0.25);
  double last = 0.0;
  for (const auto& packet : trace.packets) {
    EXPECT_GE(packet.time, last);
    last = packet.time;
  }
  // 32 rows * 0.25 * 4000 = 32000 expected packets.
  EXPECT_NEAR(static_cast<double>(trace.size()), 32000.0, 4.0 * 179.0);
}

TEST(Trace, FixedDestinationTraceFollowsTheTable) {
  // Destinations come from the table, never from destination RNG: the
  // arrival sample path matches the uniform-destination trace exactly.
  const std::vector<NodeId> table = {3, 7, 1, 0, 6, 2, 5, 4};
  const auto trace = generate_fixed_destination_trace(3, 0.6, table, 300.0, 17);
  ASSERT_FALSE(trace.packets.empty());
  for (const auto& packet : trace.packets) {
    ASSERT_LT(packet.origin, table.size());
    EXPECT_EQ(packet.destination, table[packet.origin]);
  }
  const auto uniform = generate_hypercube_trace(
      3, 0.6, DestinationDistribution::uniform(3), 300.0, 17);
  ASSERT_EQ(trace.size(), uniform.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace.packets[i].time, uniform.packets[i].time);
    EXPECT_EQ(trace.packets[i].origin, uniform.packets[i].origin);
  }
}

TEST(Trace, JsonlRoundTripIsExact) {
  const auto dist = DestinationDistribution::bit_flip(4, 0.4);
  const auto trace = generate_hypercube_trace(4, 0.7, dist, 600.0, 23);
  const std::string path = ::testing::TempDir() + "trace_round_trip.jsonl";
  save_trace_jsonl(trace, path);
  const auto loaded = load_trace_jsonl(path, 4);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.dimension, 4);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded.packets[i].time, trace.packets[i].time);
    EXPECT_EQ(loaded.packets[i].origin, trace.packets[i].origin);
    EXPECT_EQ(loaded.packets[i].destination, trace.packets[i].destination);
  }
}

TEST(Trace, LoadRejectsMissingFile) {
  try {
    (void)load_trace_jsonl("/nonexistent/trace.jsonl", 4);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
        << e.what();
  }
}

TEST(Trace, LoadNamesTheOffendingLine) {
  const auto expect_line_error = [](const std::string& name,
                                    const std::string& contents,
                                    const std::string& line_tag) {
    const std::string path = write_temp_trace(name, contents);
    try {
      (void)load_trace_jsonl(path, 4);
      FAIL() << name << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
          << name << ": " << e.what();
    }
    std::remove(path.c_str());
  };

  // Times must be non-decreasing across lines.
  expect_line_error("trace_unsorted.jsonl",
                    "{\"t\":2.0,\"src\":0,\"dst\":1}\n"
                    "{\"t\":1.0,\"src\":2,\"dst\":3}\n",
                    "line 2");
  // NaN / negative times are rejected.
  expect_line_error("trace_nan.jsonl", "{\"t\":nan,\"src\":0,\"dst\":1}\n",
                    "line 1");
  expect_line_error("trace_negative.jsonl",
                    "{\"t\":-0.5,\"src\":0,\"dst\":1}\n", "line 1");
  // src/dst must be integers in [0, 2^d).
  expect_line_error("trace_src_range.jsonl",
                    "{\"t\":0.5,\"src\":16,\"dst\":1}\n", "line 1");
  expect_line_error("trace_dst_range.jsonl",
                    "{\"t\":0.5,\"src\":0,\"dst\":99}\n", "line 1");
  // Malformed JSON names its line too.
  expect_line_error("trace_garbage.jsonl",
                    "{\"t\":0.25,\"src\":0,\"dst\":1}\n"
                    "not json at all\n",
                    "line 2");
}

TEST(Trace, OverflowingTimeIsNotFinite) {
  // 1e400 parses as +inf (the JSON reader keeps strtod's out-of-range
  // result), so the loader rejects it rather than reading a 0 or a garbage
  // time; 1e-400 underflows to an ordinary 0.
  const std::string path = write_temp_trace(
      "trace_overflow.jsonl", "{\"t\":1e-400,\"src\":0,\"dst\":1}\n"
                              "{\"t\":1e400,\"src\":0,\"dst\":1}\n");
  try {
    (void)load_trace_jsonl(path, 4);
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: field \"t\" is not finite"),
              std::string::npos)
        << e.what();
  }
  write_temp_trace("trace_overflow.jsonl", "{\"t\":1e-400,\"src\":0,\"dst\":1}\n");
  const PacketTrace loaded = load_trace_jsonl(path, 4);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.packets[0].time, 0.0);
  std::remove(path.c_str());
}

TEST(Trace, FingerprintTracksContent) {
  const std::string a =
      write_temp_trace("trace_fp_a.jsonl", "{\"t\":0.5,\"src\":0,\"dst\":1}\n");
  const std::string b =
      write_temp_trace("trace_fp_b.jsonl", "{\"t\":0.5,\"src\":0,\"dst\":2}\n");
  const auto fp_a = trace_file_fingerprint(a);
  const auto fp_b = trace_file_fingerprint(b);
  EXPECT_NE(fp_a, 0u);
  EXPECT_NE(fp_b, 0u);
  EXPECT_NE(fp_a, fp_b);
  // Stable across reads of the same bytes.
  EXPECT_EQ(trace_file_fingerprint(a), fp_a);
  // Unreadable files hash to the 0 sentinel without throwing.
  EXPECT_EQ(trace_file_fingerprint("/nonexistent/trace.jsonl"), 0u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace routesim
