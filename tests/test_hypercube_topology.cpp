// Tests for the d-cube topology and the canonical (greedy) paths of §3.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "topology/topology.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

// Test-local oracles written from the paper's definitions (§1.1, §3).

/// The dimensions a packet from x to z must cross, in increasing order.
std::vector<int> required_dimensions(NodeId x, NodeId z, int d) {
  std::vector<int> dims;
  for (int m = 1; m <= d; ++m) {
    if (has_dimension(x ^ z, m)) dims.push_back(m);
  }
  return dims;
}

/// The canonical path: the arcs crossing the required dimensions in
/// increasing index order.
std::vector<ArcId> canonical_path(const HypercubeTopology& cube, NodeId x,
                                  NodeId z) {
  std::vector<ArcId> path;
  NodeId cur = x;
  for (const int m : required_dimensions(x, z, cube.diameter())) {
    path.push_back(cube.arc_index(cur, m));
    cur = flip_dimension(cur, m);
  }
  return path;
}

/// The dimension of an arc: the identity bit its endpoints differ in.
int arc_dimension(const HypercubeTopology& cube, ArcId arc) {
  return lowest_dimension(cube.arc_source(arc) ^ cube.arc_target(arc));
}

TEST(HypercubeTopology, CountsMatchPaper) {
  const HypercubeTopology cube(3);
  EXPECT_EQ(cube.num_nodes(), 8u);
  EXPECT_EQ(cube.num_arcs(), 24u);  // d * 2^d
  EXPECT_EQ(cube.diameter(), 3);
}

TEST(HypercubeTopology, DimensionBoundsEnforced) {
  EXPECT_THROW(HypercubeTopology(0), ContractViolation);
  EXPECT_THROW(HypercubeTopology(27), ContractViolation);
  EXPECT_NO_THROW(HypercubeTopology(1));
  EXPECT_NO_THROW(HypercubeTopology(26));
}

TEST(HypercubeTopology, ArcIndexIsBijective) {
  const HypercubeTopology cube(5);
  std::set<ArcId> seen;
  for (int dim = 1; dim <= 5; ++dim) {
    for (NodeId x = 0; x < cube.num_nodes(); ++x) {
      const ArcId arc = cube.arc_index(x, dim);
      EXPECT_LT(arc, cube.num_arcs());
      EXPECT_TRUE(seen.insert(arc).second);
      EXPECT_EQ(cube.arc_source(arc), x);
      EXPECT_EQ(arc_dimension(cube, arc), dim);
      EXPECT_EQ(cube.arc_target(arc), flip_dimension(x, dim));
      EXPECT_EQ(cube.out_arc(x, dim - 1), arc);
    }
  }
  EXPECT_EQ(seen.size(), cube.num_arcs());
}

TEST(HypercubeTopology, ArcsGroupedByDimension) {
  // Arc indexing doubles as the level index of network Q: all dimension-1
  // arcs precede all dimension-2 arcs, etc.
  const HypercubeTopology cube(4);
  for (int dim = 1; dim < 4; ++dim) {
    for (NodeId x = 0; x < cube.num_nodes(); ++x) {
      EXPECT_LT(cube.arc_index(x, dim), cube.arc_index(0, dim + 1));
    }
  }
}

TEST(HypercubeTopology, ArcsConnectHammingNeighbours) {
  const HypercubeTopology cube(6);
  for (ArcId arc = 0; arc < cube.num_arcs(); ++arc) {
    EXPECT_EQ(cube.metric(cube.arc_source(arc), cube.arc_target(arc)), 1);
  }
}

TEST(HypercubeTopology, PaperPathExample) {
  // §3: identity (1,0,1,1) is node 0b1011; a packet from (0,0,0,0) crosses
  // dimensions 1, 2, 4 in increasing order:
  // (0,0,0,0) -> (0,0,0,1) -> (0,0,1,1) -> (1,0,1,1).
  const HypercubeTopology cube(4);
  const NodeId origin = 0b0000;
  const NodeId dest = 0b1011;
  EXPECT_EQ(required_dimensions(origin, dest, 4), (std::vector<int>{1, 2, 4}));

  const auto path = canonical_path(cube, origin, dest);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(cube.arc_source(path[0]), 0b0000u);
  EXPECT_EQ(cube.arc_target(path[0]), 0b0001u);
  EXPECT_EQ(cube.arc_source(path[1]), 0b0001u);
  EXPECT_EQ(cube.arc_target(path[1]), 0b0011u);
  EXPECT_EQ(cube.arc_source(path[2]), 0b0011u);
  EXPECT_EQ(cube.arc_target(path[2]), 0b1011u);
}

TEST(HypercubeTopology, OutNeighboursAreAllDistinctAtDistanceOne) {
  const HypercubeTopology cube(5);
  for (NodeId x = 0; x < cube.num_nodes(); ++x) {
    ASSERT_EQ(cube.out_degree(x), 5);
    std::set<NodeId> unique;
    for (int k = 0; k < cube.out_degree(x); ++k) {
      const NodeId y = cube.arc_target(cube.out_arc(x, k));
      EXPECT_EQ(y, flip_dimension(x, k + 1));
      EXPECT_EQ(cube.metric(x, y), 1);
      unique.insert(y);
    }
    EXPECT_EQ(unique.size(), 5u);
  }
}

// Exhaustive property check over all origin/destination pairs: greedy
// descent walks exactly the canonical path of §3.
class CanonicalPathProperty : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalPathProperty, GreedyWalksTheShortestIncreasingPath) {
  const int d = GetParam();
  const HypercubeTopology cube(d);
  for (NodeId x = 0; x < cube.num_nodes(); ++x) {
    for (NodeId z = 0; z < cube.num_nodes(); ++z) {
      const auto path = canonical_path(cube, x, z);
      // Shortest: length equals the Hamming distance (§1.1).
      ASSERT_EQ(path.size(), static_cast<std::size_t>(cube.metric(x, z)));
      // Contiguous, starts at x, ends at z, dimensions strictly increasing,
      // and each arc is the greedy decision at its source.
      NodeId cur = x;
      int last_dim = 0;
      for (const ArcId arc : path) {
        ASSERT_EQ(cube.arc_source(arc), cur);
        ASSERT_EQ(cube.greedy_next_arc(cur, z), arc);
        ASSERT_GT(arc_dimension(cube, arc), last_dim);
        last_dim = arc_dimension(cube, arc);
        cur = cube.arc_target(arc);
      }
      ASSERT_EQ(cur, z);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallCubes, CanonicalPathProperty, ::testing::Values(1, 2, 3, 4, 6));

TEST(HypercubeTopology, AntipodalPathsOfDifferentOriginsAreArcDisjoint) {
  // End of §3.3: at p = 1 every packet goes to the complement of its origin
  // and canonical paths from different origins are arc-disjoint.
  const int d = 5;
  const HypercubeTopology cube(d);
  std::set<ArcId> used;
  for (NodeId x = 0; x < cube.num_nodes(); ++x) {
    for (const ArcId arc : canonical_path(cube, x, antipode(x, d))) {
      EXPECT_TRUE(used.insert(arc).second) << "arc shared between antipodal paths";
    }
  }
  // d arcs per path, 2^d paths: all d*2^d arcs are used exactly once.
  EXPECT_EQ(used.size(), cube.num_arcs());
}

}  // namespace
}  // namespace routesim
