#pragma once
/// \file trace.hpp
/// \brief Recorded packet traces for replay and coupled experiments.
///
/// A trace fixes the exogenous randomness of a routing experiment — packet
/// generation times, origins and destinations — so that different schemes
/// (greedy vs. baseline vs. mixing) can be compared on the *same* workload,
/// mirroring the sample-path arguments of §3.3.

#include <cstdint>
#include <string>
#include <vector>

#include "util/bits.hpp"
#include "workload/destination.hpp"

namespace routesim {

/// One recorded packet: generation time, origin and destination identity
/// (a destination *row* for butterfly traces).
struct TracedPacket {
  double time = 0.0;
  NodeId origin = 0;
  NodeId destination = 0;
};

/// A time-sorted packet trace plus the model parameters it was generated
/// with; replaying it fixes the exogenous randomness of an experiment.
struct PacketTrace {
  int dimension = 0;         ///< d: the trace indexes 2^d terminals
  double rate_per_node = 0;  ///< lambda used to generate the trace
  std::vector<TracedPacket> packets;  ///< sorted by time

  [[nodiscard]] std::size_t size() const noexcept { return packets.size(); }
  [[nodiscard]] double horizon() const noexcept {
    return packets.empty() ? 0.0 : packets.back().time;
  }
};

/// Generates a Poisson trace over 2^d terminals (origins uniform,
/// destinations from `dist`) up to the given horizon.  The terminals are
/// the d-cube's nodes, or the butterfly's rows: a level-1 origin row and a
/// level-(d+1) destination row.
[[nodiscard]] PacketTrace generate_hypercube_trace(int d, double lambda,
                                                   const DestinationDistribution& dist,
                                                   double horizon, std::uint64_t seed);

/// Generates a Poisson trace with per-origin fixed destinations (the
/// permutation workload): origins arrive as in generate_hypercube_trace
/// and the destination is table[origin].  No destination randomness is
/// consumed, matching the kernel's fixed-destination mode.
[[nodiscard]] PacketTrace generate_fixed_destination_trace(
    int d, double lambda, const std::vector<NodeId>& table, double horizon,
    std::uint64_t seed);

/// Writes the trace as JSONL — one {"t":...,"src":...,"dst":...} object
/// per packet, times in shortest exact-round-trip decimal form, so a
/// saved trace loads back bit-identically.  Throws std::runtime_error
/// when the file cannot be written.
void save_trace_jsonl(const PacketTrace& trace, const std::string& path);

/// Loads a JSONL trace recorded by save_trace_jsonl (or produced by any
/// tool emitting the same records) and validates it for a d-dimensional
/// network: every line must be a JSON object with finite numeric "t"
/// (non-negative, non-decreasing across lines) and integer "src"/"dst"
/// in [0, 2^d).  Throws std::runtime_error when the file cannot be read
/// and std::invalid_argument naming the offending line otherwise.  The
/// file streams through one fixed buffer; a line in save_trace_jsonl's
/// exact layout is read without building a JSON tree, any other line goes
/// through json::parse, with the same values and errors either way.
[[nodiscard]] PacketTrace load_trace_jsonl(const std::string& path, int d);

/// FNV-1a 64-bit hash of the file's raw bytes; 0 when the file cannot be
/// read.  Never throws — used to salt result-store keys so a changed
/// trace file can never hit a stale record (the load path reports the
/// real error).
[[nodiscard]] std::uint64_t trace_file_fingerprint(
    const std::string& path) noexcept;

}  // namespace routesim
