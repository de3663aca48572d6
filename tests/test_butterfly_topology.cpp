// Tests for the butterfly topology of §4.1.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "topology/topology.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

using ArcKind = ButterflyTopology::ArcKind;

// Test-local readings of the node index [row; level] = (level-1)*2^d + row.
NodeId node_of(int d, NodeId row, int level) {
  return (static_cast<NodeId>(level - 1) << d) + row;
}
int level_of(int d, NodeId node) { return static_cast<int>(node >> d) + 1; }

/// The paper's unique path from [origin_row; 1] to [dest_row; d+1] (§4.1):
/// d arcs, one per level, vertical exactly at the levels where origin and
/// destination rows differ.
std::vector<ArcId> paper_path(const ButterflyTopology& bfly, NodeId origin_row,
                              NodeId dest_row) {
  std::vector<ArcId> arcs;
  NodeId row = origin_row;
  for (int level = 1; level <= bfly.diameter(); ++level) {
    if (has_dimension(row ^ dest_row, level)) {
      arcs.push_back(bfly.arc_index(row, level, ArcKind::kVertical));
      row = flip_dimension(row, level);
    } else {
      arcs.push_back(bfly.arc_index(row, level, ArcKind::kStraight));
    }
  }
  return arcs;
}

TEST(ButterflyTopology, CountsMatchPaper) {
  // (d+1) 2^d nodes; d 2^(d+1) arcs.
  const ButterflyTopology bfly(2);
  EXPECT_EQ(bfly.diameter(), 2);
  EXPECT_EQ(bfly.traffic_layout().num_sources, 4u);  // 2^d rows
  EXPECT_EQ(bfly.num_nodes(), 12u);
  EXPECT_EQ(bfly.num_arcs(), 16u);

  const ButterflyTopology bigger(5);
  EXPECT_EQ(bigger.num_nodes(), 6u * 32u);
  EXPECT_EQ(bigger.num_arcs(), 5u * 64u);
}

TEST(ButterflyTopology, DimensionBoundsEnforced) {
  EXPECT_THROW(ButterflyTopology(0), ContractViolation);
  EXPECT_THROW(ButterflyTopology(26), ContractViolation);
  EXPECT_NO_THROW(ButterflyTopology(1));
  EXPECT_NO_THROW(ButterflyTopology(25));
}

TEST(ButterflyTopology, ArcIndexIsBijective) {
  const int d = 4;
  const ButterflyTopology bfly(d);
  std::set<ArcId> seen;
  for (int level = 1; level <= d; ++level) {
    for (NodeId row = 0; row < 16; ++row) {
      for (const auto kind : {ArcKind::kStraight, ArcKind::kVertical}) {
        const ArcId arc = bfly.arc_index(row, level, kind);
        EXPECT_LT(arc, bfly.num_arcs());
        EXPECT_TRUE(seen.insert(arc).second);
        EXPECT_EQ(bfly.hop_weight(arc), kind == ArcKind::kVertical ? 1 : 0);
        EXPECT_EQ(bfly.arc_source(arc), node_of(d, row, level));
        // Port 0 is the straight arc, port 1 the vertical one.
        EXPECT_EQ(bfly.out_arc(node_of(d, row, level),
                               kind == ArcKind::kStraight ? 0 : 1),
                  arc);
      }
    }
  }
  EXPECT_EQ(seen.size(), bfly.num_arcs());
}

TEST(ButterflyTopology, StraightArcKeepsRow) {
  const int d = 3;
  const ButterflyTopology bfly(d);
  for (int level = 1; level <= d; ++level) {
    for (NodeId row = 0; row < 8; ++row) {
      EXPECT_EQ(bfly.arc_target(bfly.arc_index(row, level, ArcKind::kStraight)),
                node_of(d, row, level + 1));
    }
  }
}

TEST(ButterflyTopology, VerticalArcFlipsLevelBit) {
  // [x; j] connects vertically to [x XOR e_j; j+1] (§4.1).
  const int d = 3;
  const ButterflyTopology bfly(d);
  for (int level = 1; level <= d; ++level) {
    for (NodeId row = 0; row < 8; ++row) {
      EXPECT_EQ(bfly.arc_target(bfly.arc_index(row, level, ArcKind::kVertical)),
                node_of(d, flip_dimension(row, level), level + 1));
    }
  }
}

TEST(ButterflyTopology, GreedyWalksThePaperPath) {
  // From [x; 1] greedy descent takes exactly the paper's d-arc path to
  // [z; d+1]; only its vertical arcs count as hops.
  const int d = 5;
  const ButterflyTopology bfly(d);
  for (NodeId origin = 0; origin < 32; ++origin) {
    for (NodeId dest = 0; dest < 32; ++dest) {
      const NodeId exit = node_of(d, dest, d + 1);
      std::vector<ArcId> walked;
      for (NodeId at = origin; at != exit; at = bfly.arc_target(walked.back())) {
        walked.push_back(bfly.greedy_next_arc(at, exit));
      }
      EXPECT_EQ(walked, paper_path(bfly, origin, dest));
      EXPECT_EQ(bfly.metric(origin, exit), d);
      EXPECT_EQ(bfly.hop_distance(origin, exit), hamming_distance(origin, dest));
    }
  }
}

TEST(ButterflyTopology, PathVerticalArcsMatchHammingDistance) {
  // The path from [x;1] to [z;d+1] contains exactly H(x,z) vertical arcs,
  // at the levels where x and z differ (§4.1).
  const int d = 6;
  const ButterflyTopology bfly(d);
  for (NodeId origin = 0; origin < 64; origin += 13) {
    for (NodeId dest = 0; dest < 64; dest += 11) {
      int verticals = 0;
      for (const ArcId arc : paper_path(bfly, origin, dest)) {
        if (bfly.hop_weight(arc) == 1) {
          ++verticals;
          EXPECT_TRUE(
              has_dimension(origin ^ dest, level_of(d, bfly.arc_source(arc))));
        }
      }
      EXPECT_EQ(verticals, hamming_distance(origin, dest));
    }
  }
}

TEST(ButterflyTopology, PathTraversesLevelsInOrder) {
  const int d = 4;
  const ButterflyTopology bfly(d);
  const auto path = paper_path(bfly, 0b0000, 0b1010);
  ASSERT_EQ(path.size(), 4u);
  NodeId node = node_of(d, 0b0000, 1);
  for (int level = 1; level <= d; ++level) {
    const ArcId arc = path[static_cast<std::size_t>(level - 1)];
    EXPECT_EQ(bfly.arc_source(arc), node);
    EXPECT_EQ(level_of(d, node), level);
    node = bfly.arc_target(arc);
  }
  EXPECT_EQ(node, node_of(d, 0b1010, d + 1));
}

TEST(ButterflyTopology, PathIsUniquePerPair) {
  // Distinct destination rows yield distinct arc sequences from the same
  // origin (the butterfly is a permutation-of-levels crossbar).
  const ButterflyTopology bfly(4);
  std::set<std::vector<ArcId>> paths;
  for (NodeId dest = 0; dest < 16; ++dest) {
    EXPECT_TRUE(paths.insert(paper_path(bfly, 3, dest)).second);
  }
}

}  // namespace
}  // namespace routesim
