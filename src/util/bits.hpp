#pragma once
/// \file bits.hpp
/// \brief Bit-manipulation helpers for hypercube node identities.
///
/// Hypercube nodes are identified by the integer whose binary representation
/// is the node's identity (z_d, ..., z_1), exactly as in the paper (§1.1).
/// Dimensions are numbered 1..d; dimension m corresponds to bit (m-1) of the
/// identity, i.e. the basis node e_m = 2^(m-1).

#include <bit>
#include <cstdint>

#include "util/assert.hpp"

namespace routesim {

/// Integer type used for hypercube / butterfly row identities (d <= 30).
using NodeId = std::uint32_t;

/// The basis node e_m (all-zero identity except bit m), m in 1..d.
[[nodiscard]] constexpr NodeId basis_node(int m) noexcept {
  return NodeId{1} << (m - 1);
}

/// Hamming distance H(x, z): the number of differing identity bits.
[[nodiscard]] constexpr int hamming_distance(NodeId x, NodeId z) noexcept {
  return std::popcount(x ^ z);
}

/// True iff dimension m (1-based) is set in the identity of x.
[[nodiscard]] constexpr bool has_dimension(NodeId x, int m) noexcept {
  return ((x >> (m - 1)) & 1u) != 0;
}

/// The lowest set dimension (1-based) of mask, or 0 when mask == 0.
///
/// For a packet at node x with destination z, the next dimension crossed by
/// the greedy increasing-index-order scheme is lowest_dimension(x ^ z).
[[nodiscard]] constexpr int lowest_dimension(NodeId mask) noexcept {
  return mask == 0 ? 0 : std::countr_zero(mask) + 1;
}

/// Flip dimension m (1-based) of x: the neighbour x XOR e_m.
[[nodiscard]] constexpr NodeId flip_dimension(NodeId x, int m) noexcept {
  return x ^ basis_node(m);
}

/// Number of nodes of the d-cube.
[[nodiscard]] constexpr std::uint64_t num_hypercube_nodes(int d) noexcept {
  return std::uint64_t{1} << d;
}

/// Number of directed arcs of the d-cube (d * 2^d).
[[nodiscard]] constexpr std::uint64_t num_hypercube_arcs(int d) noexcept {
  return static_cast<std::uint64_t>(d) << d;
}

/// The bitwise complement of x restricted to the low d bits
/// (the antipodal node; the destination of every packet when p = 1).
[[nodiscard]] constexpr NodeId antipode(NodeId x, int d) noexcept {
  return ~x & ((NodeId{1} << d) - 1u);
}

}  // namespace routesim
