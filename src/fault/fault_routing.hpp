#pragma once
/// \file fault_routing.hpp
/// \brief The fault reroute policies, written once over metric-descending
///        out-arcs (greedy and Valiant mixing on every family of the
///        Topology concept, the butterfly included).
///
/// A scheme calls fault_reroute_arc once its preferred arc is known to be
/// dead.  The policies see the network only through its out-arcs and which
/// of them descend the metric toward the packet's (phase) target, as in
/// Angel, Benjamini, Ofek & Wieder's routing on faulty graphs (PAPERS.md):
///   - kSkipDim:  the first live descending arc; else a uniformly random
///                live non-descending one (a detour, TTL-bounded by the
///                caller);
///   - kDeflect:  a uniformly random live out-arc;
///   - kAdaptive: one-hop lookahead: the first live descending arc whose
///                head is the target or has a live descending continuation;
///                else the first live descending arc; else skip_dim's
///                detour.
///   - kTwinDetour: the first live out-arc, with no draw.  On the
///                butterfly's two ports that is the twin of the dead greedy
///                arc; the row bit of that level then stays wrong (each
///                level is crossed once), so the packet exits misrouted and
///                the caller drops it at the exit level.
/// On the hypercube the descending arcs are the unresolved dimensions in
/// increasing order, so these are the skip-dimension rules of the paper's
/// cube.  Keeping the logic here means a fix to the detour discipline
/// cannot silently diverge between the schemes.
///
/// `Net` is anything with the Topology port view: out_degree(x),
/// out_arc(x, k), arc_target(a) and out_arc_descends(x, k, dest) — a
/// Topology, or the concrete HypercubeTopology for an inlined hot path.

#include <cstdint>

#include "fault/fault_model.hpp"
#include "topology/topology.hpp"  // ArcId, NodeId
#include "util/rng.hpp"

namespace routesim {

/// fault_reroute_arc's "no arc": the policy drops the packet.
inline constexpr ArcId kDropArc = ~ArcId{0};

/// A uniformly random live out-arc of `cur` among those whose index k
/// satisfies `candidate(k)`; kDropArc when there is none.  Candidates are
/// counted in out_arc order and one uniform_below(count) is drawn only
/// when some are alive.
template <typename Net, typename Candidate, typename ArcFaulty>
[[nodiscard]] ArcId random_live_out_arc(const Net& net, NodeId cur,
                                        Candidate&& candidate,
                                        ArcFaulty&& arc_faulty, Rng& rng) {
  const int degree = net.out_degree(cur);
  std::uint64_t count = 0;
  for (int k = 0; k < degree; ++k) {
    if (candidate(k) && !arc_faulty(net.out_arc(cur, k))) ++count;
  }
  if (count == 0) return kDropArc;
  std::uint64_t pick = rng.uniform_below(count);
  for (int k = 0;; ++k) {
    if (candidate(k) && !arc_faulty(net.out_arc(cur, k)) && pick-- == 0) {
      return net.out_arc(cur, k);
    }
  }
}

/// The policy's reroute at `cur` toward `target` once the scheme's
/// preferred arc is dead: the arc to take, or kDropArc.  `arc_faulty(a)`
/// answers whether arc a is down.  RNG is drawn only on a detour, so
/// pristine runs consume none.
template <typename Net, typename ArcFaulty>
[[nodiscard]] ArcId fault_reroute_arc(FaultPolicy policy, const Net& net,
                                      NodeId cur, NodeId target,
                                      ArcFaulty&& arc_faulty, Rng& rng) {
  const auto detour = [&] {
    return random_live_out_arc(
        net, cur, [&](int k) { return !net.out_arc_descends(cur, k, target); },
        arc_faulty, rng);
  };
  const int degree = net.out_degree(cur);
  switch (policy) {
    case FaultPolicy::kSkipDim:
      for (int k = 0; k < degree; ++k) {
        const ArcId arc = net.out_arc(cur, k);
        if (net.out_arc_descends(cur, k, target) && !arc_faulty(arc)) return arc;
      }
      return detour();
    case FaultPolicy::kDeflect:
      return random_live_out_arc(
          net, cur, [](int) { return true; }, arc_faulty, rng);
    case FaultPolicy::kAdaptive: {
      ArcId fallback = kDropArc;
      for (int k = 0; k < degree; ++k) {
        const ArcId arc = net.out_arc(cur, k);
        if (!net.out_arc_descends(cur, k, target) || arc_faulty(arc)) continue;
        const NodeId head = net.arc_target(arc);
        if (head == target) return arc;  // final hop: nothing to look ahead to
        const int head_degree = net.out_degree(head);
        for (int j = 0; j < head_degree; ++j) {
          if (net.out_arc_descends(head, j, target) &&
              !arc_faulty(net.out_arc(head, j))) {
            return arc;
          }
        }
        if (fallback == kDropArc) fallback = arc;
      }
      return fallback != kDropArc ? fallback : detour();
    }
    case FaultPolicy::kTwinDetour:
      for (int k = 0; k < degree; ++k) {
        const ArcId arc = net.out_arc(cur, k);
        if (!arc_faulty(arc)) return arc;
      }
      break;
    case FaultPolicy::kNone:
    case FaultPolicy::kDrop:
      break;
  }
  return kDropArc;
}

}  // namespace routesim
