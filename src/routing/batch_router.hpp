#pragma once
/// \file batch_router.hpp
/// \brief Static greedy routing of a batch of packets on the d-cube.
///
/// Routes a set of packets that are all present at their origins at the
/// same start time, using the greedy increasing-index-order scheme with
/// FIFO arc queues, and returns each packet's completion time.  This is the
/// "one round" primitive of the §2.3 pipelined baseline (the first phase of
/// the Valiant-Brebner permutation algorithm applied to the packets'
/// actual destinations) and of the batch_greedy scheme.
///
/// A round is the dynamic greedy scheme from a static start: the batch
/// replays through the packet kernel as a trace with every record at the
/// start time, in input order, each hop is HypercubeTopology::
/// greedy_next_arc, and the kernel's FIFO arc queues and (time, seq) event
/// order serve ties at an arc in input order.

#include <cstdint>
#include <span>
#include <vector>

#include "des/packet_kernel.hpp"
#include "topology/topology.hpp"
#include "workload/trace.hpp"

namespace routesim {

struct BatchPacket {
  NodeId origin = 0;
  NodeId destination = 0;
};

struct BatchRoutingResult {
  /// Completion time of each packet (same order as the input); packets with
  /// origin == destination complete at start_time.
  std::vector<double> completion_times;
  /// Time at which the last packet is delivered (== start_time for an
  /// empty batch).
  double makespan = 0.0;
};

/// One synchronous greedy round on an otherwise empty network.  The kernel,
/// the replayed trace and the result keep their storage across calls, so a
/// caller running many rounds (the pipelined baseline) reuses one instance.
class GreedyRound {
 public:
  /// Routes `batch` from `start_time`.  The result stays valid until the
  /// next call.
  const BatchRoutingResult& route(const HypercubeTopology& cube,
                                  std::span<const BatchPacket> batch,
                                  double start_time);

  // --- kernel hooks (called by PacketKernel::drive) ---

  void on_traced(double now, NodeId origin, NodeId destination);
  void on_arc_done(double now, ArcId arc);

 private:
  struct Pkt {
    NodeId cur = 0;
    NodeId dest = 0;
    std::uint32_t index = 0;  ///< position in the batch
  };

  const HypercubeTopology* cube_ = nullptr;
  PacketKernel<Pkt> kernel_;
  PacketTrace trace_;
  BatchRoutingResult result_;
  std::uint32_t next_index_ = 0;  ///< batch position of the next replayed record
  std::size_t in_flight_ = 0;     ///< packets not yet at their destination
};

class SchemeRegistry;

/// core/registry.hpp hookup: registers "batch_greedy" — one synchronous
/// round per replication with `fanout` packets per node, extra metric
/// makespan.
void register_batch_greedy_scheme(SchemeRegistry& registry);

}  // namespace routesim
