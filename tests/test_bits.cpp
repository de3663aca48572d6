// Unit tests for util/bits.hpp: the hypercube identity arithmetic that every
// other module builds on.

#include "util/bits.hpp"

#include <gtest/gtest.h>

namespace routesim {
namespace {

TEST(Bits, BasisNodeMatchesPaperDefinition) {
  // e_j is the node numbered 2^(j-1) (§1.1).
  EXPECT_EQ(basis_node(1), 1u);
  EXPECT_EQ(basis_node(2), 2u);
  EXPECT_EQ(basis_node(3), 4u);
  EXPECT_EQ(basis_node(10), 512u);
}

TEST(Bits, HammingDistanceIsSymmetric) {
  EXPECT_EQ(hamming_distance(0b0000, 0b1011), 3);
  EXPECT_EQ(hamming_distance(0b1011, 0b0000), 3);
  EXPECT_EQ(hamming_distance(0b1011, 0b1011), 0);
}

TEST(Bits, HammingDistanceOfComplementIsD) {
  constexpr int d = 7;
  const NodeId x = 0b1010101;
  EXPECT_EQ(hamming_distance(x, antipode(x, d)), d);
}

TEST(Bits, HammingTriangleInequality) {
  for (NodeId x = 0; x < 16; ++x) {
    for (NodeId y = 0; y < 16; ++y) {
      for (NodeId z = 0; z < 16; ++z) {
        EXPECT_LE(hamming_distance(x, z),
                  hamming_distance(x, y) + hamming_distance(y, z));
      }
    }
  }
}

TEST(Bits, HasDimensionReadsOneBasedBits) {
  const NodeId x = 0b0101;
  EXPECT_TRUE(has_dimension(x, 1));
  EXPECT_FALSE(has_dimension(x, 2));
  EXPECT_TRUE(has_dimension(x, 3));
  EXPECT_FALSE(has_dimension(x, 4));
}

TEST(Bits, LowestDimensionZeroMask) { EXPECT_EQ(lowest_dimension(0), 0); }

TEST(Bits, LowestDimensionFindsFirstSetBit) {
  EXPECT_EQ(lowest_dimension(0b0001), 1);
  EXPECT_EQ(lowest_dimension(0b0110), 2);
  EXPECT_EQ(lowest_dimension(0b1000), 4);
}

TEST(Bits, FlipDimensionIsInvolution) {
  const NodeId x = 0b1100;
  for (int m = 1; m <= 4; ++m) {
    EXPECT_NE(flip_dimension(x, m), x);
    EXPECT_EQ(flip_dimension(flip_dimension(x, m), m), x);
  }
}

TEST(Bits, FlipDimensionChangesExactlyOneBit) {
  for (int m = 1; m <= 8; ++m) {
    EXPECT_EQ(hamming_distance(0b10101010, flip_dimension(0b10101010, m)), 1);
  }
}

TEST(Bits, CountsMatchPaper) {
  // The d-cube has 2^d nodes and d*2^d arcs (§1.1).
  EXPECT_EQ(num_hypercube_nodes(3), 8u);
  EXPECT_EQ(num_hypercube_arcs(3), 24u);
  EXPECT_EQ(num_hypercube_nodes(10), 1024u);
  EXPECT_EQ(num_hypercube_arcs(10), 10240u);
}

TEST(Bits, AntipodeIsSelfInverse) {
  constexpr int d = 6;
  for (NodeId x = 0; x < 64; ++x) {
    EXPECT_EQ(antipode(antipode(x, d), d), x);
  }
}

TEST(Bits, AntipodeStaysInRange) {
  constexpr int d = 5;
  for (NodeId x = 0; x < 32; ++x) {
    EXPECT_LT(antipode(x, d), 32u);
  }
}

// Property sweep: the greedy "next dimension" order visits required
// dimensions in strictly increasing order and terminates at the target.
class GreedyWalkProperty : public ::testing::TestWithParam<NodeId> {};

TEST_P(GreedyWalkProperty, IncreasingDimensionWalkReachesTarget) {
  constexpr int d = 8;
  const NodeId x = GetParam();
  const NodeId z = antipode(x ^ 0b10110100, d);
  NodeId cur = x;
  int last_dim = 0;
  int steps = 0;
  while (cur != z) {
    const int dim = lowest_dimension(cur ^ z);
    ASSERT_GT(dim, last_dim);
    last_dim = dim;
    cur = flip_dimension(cur, dim);
    ASSERT_LE(++steps, d);
  }
  EXPECT_EQ(steps, hamming_distance(x, z));
}

INSTANTIATE_TEST_SUITE_P(AllOrigins, GreedyWalkProperty,
                         ::testing::Values(0u, 1u, 42u, 128u, 200u, 255u));

}  // namespace
}  // namespace routesim
