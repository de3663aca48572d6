#pragma once
/// \file equivalence.hpp
/// \brief Builders for the equivalent queueing networks of the paper:
///        Q for the hypercube (§3.1), R for the butterfly (§4.3), and the
///        three-server network G of Lemma 9 (Fig. 2).
///
/// Under greedy routing the d-cube *is* the levelled network Q whose
/// "servers" are the d*2^d arcs, with
///   - Property A: external Poisson arrivals of rate lambda*p*(1-p)^(i-1)
///     at arc (x, x XOR e_i), independent across arcs;
///   - Property B: levelled structure (dimension i feeds only dimensions
///     j > i);
///   - Property C: Markovian routing — after arc (y, y XOR e_i) a packet
///     joins (y XOR e_i, y XOR e_i XOR e_j) with probability
///     p (1-p)^(j-i-1) and exits with probability (1-p)^(d-i).
///
/// The builders return LevelledNetworkConfig objects runnable under FIFO
/// (network Q / R) or PS (network Q~ / R~, the product-form majorant of
/// Propositions 11/12/17).

#include <cstdint>

#include "queueing/levelled_network.hpp"
#include "topology/topology.hpp"

namespace routesim {

/// Server index of hypercube arc (x, x XOR e_dim) inside network Q: the
/// cube's HypercubeTopology::arc_index, whose dimension-major order is
/// already level-major.
[[nodiscard]] std::uint32_t q_server_index(int d, NodeId x, int dim);

/// Server index of butterfly arc (row; level; kind) inside network R.
/// Not ButterflyTopology::arc_index: that puts every straight arc before
/// every vertical one, so a level-j vertical arc would precede the
/// level-(j+1) straight arc it feeds and R would not be levelled (target >
/// source).  Interleaving the two kinds level by level keeps it levelled:
///   (row; j; s) -> (j-1)*2^(d+1) + row
///   (row; j; v) -> (j-1)*2^(d+1) + 2^d + row
[[nodiscard]] std::uint32_t r_server_index(int d, NodeId row, int level,
                                           ButterflyTopology::ArcKind kind);

/// Network Q for the d-cube with parameters (lambda, p).  Runs the paper's
/// Properties A-C literally.  `discipline` selects Q (FIFO) or Q~ (PS).
[[nodiscard]] LevelledNetworkConfig make_hypercube_network_q(
    int d, double lambda, double p, Discipline discipline, std::uint64_t seed,
    bool track_per_server = false);

/// Network R for the d-dimensional butterfly with parameters (lambda, p).
[[nodiscard]] LevelledNetworkConfig make_butterfly_network_r(
    int d, double lambda, double p, Discipline discipline, std::uint64_t seed,
    bool track_per_server = false);

/// The three-server network G of Lemma 9 (Fig. 2a): servers S1, S2 on
/// level 1, S3 on level 2; after S1 (resp. S2) a customer joins S3 with
/// probability p1_to_3 (resp. p2_to_3), otherwise departs.
[[nodiscard]] LevelledNetworkConfig make_lemma9_network(
    double rate1, double rate2, double rate3, double p1_to_3, double p2_to_3,
    Discipline discipline, std::uint64_t seed);

class SchemeRegistry;

/// core/registry.hpp hookup: registers "network_q" (discipline taken from
/// the scenario) plus the aliases "network_q_fifo" and "network_q_ps" that
/// force the discipline — the equivalent-network estimators of §3.1 used
/// for cross-validation and the FIFO-vs-PS experiments.
void register_network_q_schemes(SchemeRegistry& registry);

}  // namespace routesim
