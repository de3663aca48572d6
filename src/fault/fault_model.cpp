#include "fault/fault_model.hpp"

#include <limits>
#include <stdexcept>

#include "topology/topology.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

/// Keeps fault draws off the traffic streams of the replication.
constexpr std::uint64_t kFaultStreamSalt = 0xFA17;

FaultPolicy parse_fault_policy(const std::string& name) {
  if (name == "drop") return FaultPolicy::kDrop;
  if (name == "skip_dim") return FaultPolicy::kSkipDim;
  if (name == "deflect") return FaultPolicy::kDeflect;
  if (name == "twin_detour") return FaultPolicy::kTwinDetour;
  if (name == "adaptive") return FaultPolicy::kAdaptive;
  throw std::invalid_argument(
      "unknown fault policy '" + name +
      "' (known: drop, skip_dim, deflect, twin_detour, adaptive)");
}

const char* fault_policy_name(FaultPolicy policy) noexcept {
  switch (policy) {
    case FaultPolicy::kNone:
      return "none";
    case FaultPolicy::kDrop:
      return "drop";
    case FaultPolicy::kSkipDim:
      return "skip_dim";
    case FaultPolicy::kDeflect:
      return "deflect";
    case FaultPolicy::kTwinDetour:
      return "twin_detour";
    case FaultPolicy::kAdaptive:
      return "adaptive";
  }
  return "none";  // unreachable
}

void FaultModel::set_composite(std::uint32_t arc, bool down) noexcept {
  auto& word = arc_down_[arc >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (arc & 63u);
  if (down && (word & bit) == 0) {
    word |= bit;
    ++faulty_arcs_;
  } else if (!down && (word & bit) != 0) {
    word &= ~bit;
    --faulty_arcs_;
  }
}

void FaultModel::set_arc(std::uint32_t arc, bool down) noexcept {
  if (!storms_on_) {
    // Storm-free replications keep the single-bitset fast path: the base
    // state *is* the composite state.
    set_composite(arc, down);
    return;
  }
  auto& word = base_down_[arc >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (arc & 63u);
  if (down) {
    word |= bit;
  } else {
    word &= ~bit;
  }
  set_composite(arc, down || storm_count_[arc] > 0);
}

void FaultModel::storm_delta(std::uint32_t arc, int delta) noexcept {
  auto& count = storm_count_[arc];
  count = static_cast<std::uint16_t>(static_cast<int>(count) + delta);
  const bool base = (base_down_[arc >> 6] >> (arc & 63u)) & 1u;
  set_composite(arc, base || count > 0);
}

void FaultModel::configure(const FaultModelConfig& config,
                           const Topology& topology, std::uint64_t seed) {
  RS_EXPECTS(config.arc_fault_rate >= 0.0 && config.arc_fault_rate <= 1.0);
  RS_EXPECTS(config.node_fault_rate >= 0.0 && config.node_fault_rate <= 1.0);
  RS_EXPECTS((config.mtbf > 0.0) == (config.mttr > 0.0));
  RS_EXPECTS(config.storm_rate >= 0.0);
  RS_EXPECTS((config.storm_rate > 0.0) == (config.storm_duration > 0.0));
  RS_EXPECTS(config.storm_radius >= 0);
  config_ = config;
  num_arcs_ = topology.num_arcs();
  const std::uint32_t num_nodes = topology.num_nodes();
  rng_.reseed(derive_stream(seed, kFaultStreamSalt));

  arc_down_.assign((num_arcs_ + 63) / 64, 0);
  node_down_.assign((num_nodes + 63) / 64, 0);
  faulty_arcs_ = 0;
  faulty_nodes_ = 0;
  transitions_.clear();
  dynamic_ = config.mtbf > 0.0;
  storms_on_ = config.storm_rate > 0.0;
  if (storms_on_) {
    // Storm composition state: the base (static + dynamic) bitset plus
    // per-arc coverage counts; the queried arc_down_ is their OR.
    base_down_.assign(arc_down_.size(), 0);
    storm_count_.assign(num_arcs_, 0);
    storms_.configure(config, topology, seed);
  }
  next_transition_ = std::numeric_limits<double>::infinity();
  if (!config.any()) return;

  // Static arc faults, then node faults projected onto incident arcs — in
  // index order, so the sample depends only on the seed.
  if (config.arc_fault_rate > 0.0) {
    for (std::uint32_t arc = 0; arc < num_arcs_; ++arc) {
      if (rng_.bernoulli(config.arc_fault_rate)) set_arc(arc, true);
    }
  }
  node_killed_.assign(arc_down_.size(), 0);
  if (config.node_fault_rate > 0.0) {
    for (std::uint32_t node = 0; node < num_nodes; ++node) {
      if (!rng_.bernoulli(config.node_fault_rate)) continue;
      node_down_[node >> 6] |= std::uint64_t{1} << (node & 63u);
      ++faulty_nodes_;
      scratch_.clear();
      topology.append_incident_arcs(node, scratch_);
      for (const std::uint32_t arc : scratch_) {
        set_arc(arc, true);
        node_killed_[arc >> 6] |= std::uint64_t{1} << (arc & 63u);
      }
    }
  }

  if (dynamic_) {
    // Every arc gets an exponential first-transition time matched to its
    // initial state: an up arc fails after ~Exp(1/mtbf), a down arc is
    // repaired after ~Exp(1/mttr).  Arcs killed by a *node* fault stay
    // down permanently — the up/down process models link flapping, and a
    // dead node must not resume forwarding while is_node_faulty() still
    // reports it dead.
    transitions_.reserve(num_arcs_);
    for (std::uint32_t arc = 0; arc < num_arcs_; ++arc) {
      if ((node_killed_[arc >> 6] >> (arc & 63u)) & 1u) continue;
      const double rate = is_faulty(arc) ? 1.0 / config.mttr : 1.0 / config.mtbf;
      transitions_.push(sample_exponential(rng_, rate), arc);
    }
  }
  refresh_next_transition();
}

void FaultModel::advance_to(double now) {
  RS_DASSERT(dynamic_ || storms_on_);
  while (!transitions_.empty() && transitions_.top().time <= now) {
    const auto flip = transitions_.pop();
    const std::uint32_t arc = flip.payload;
    // Under storms the up/down process flips the *base* state; a storm
    // covering the arc keeps the composite bit down regardless.
    const bool was_down =
        storms_on_ ? ((base_down_[arc >> 6] >> (arc & 63u)) & 1u) != 0
                   : is_faulty(arc);
    set_arc(arc, !was_down);
    const double rate = was_down ? 1.0 / config_.mtbf : 1.0 / config_.mttr;
    transitions_.push(flip.time + sample_exponential(rng_, rate), arc);
  }
  if (storms_on_) {
    storms_.advance_to(
        now, [this](std::uint32_t arc, int delta) { storm_delta(arc, delta); });
  }
  refresh_next_transition();
}

void FaultModel::refresh_next_transition() noexcept {
  next_transition_ = transitions_.empty()
                         ? std::numeric_limits<double>::infinity()
                         : transitions_.top().time;
  if (storms_on_ && storms_.next_event_time() < next_transition_) {
    next_transition_ = storms_.next_event_time();
  }
}

}  // namespace routesim
