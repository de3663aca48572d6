#pragma once
/// \file fault_config.hpp
/// \brief The seven fault knobs as one value.  `Scenario::faults` holds
///        them (one key row each), `TopologyRoutingConfig::faults` carries
///        them to the simulators, and `FaultModel` and its `StormProcess`
///        read them there: no layer keeps a copy of its own.

namespace routesim {

struct FaultModelConfig {
  double arc_fault_rate = 0.0;   ///< P[arc statically down], in [0, 1]
  double node_fault_rate = 0.0;  ///< P[node down]; kills its incident arcs
  double mtbf = 0.0;             ///< mean up-time; > 0 with mttr => dynamic
  double mttr = 0.0;             ///< mean down-time (repair)
  double storm_rate = 0.0;       ///< correlated storm arrivals (storm.hpp)
  int storm_radius = 1;          ///< incidence-ball radius of a storm
  double storm_duration = 0.0;   ///< storm lifetime; > 0 with storm_rate

  /// True when any fault source is set; schemes attach a FaultModel (and
  /// drop the paper's bracket) exactly when this holds.  A lone mttr or
  /// storm_duration counts, so the engine's scheme check
  /// (SchemeRegistry::SchemeInfo::check) can reject it instead of silently
  /// simulating a pristine network.
  [[nodiscard]] bool any() const noexcept {
    return arc_fault_rate > 0.0 || node_fault_rate > 0.0 || mtbf > 0.0 ||
           mttr > 0.0 || storm_rate > 0.0 || storm_duration > 0.0;
  }

  friend bool operator==(const FaultModelConfig&,
                         const FaultModelConfig&) = default;
};

}  // namespace routesim
