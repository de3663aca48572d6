#pragma once
/// \file registry.hpp
/// \brief The scheme registry: name -> factory compiling a `Scenario` into
///        a runnable replication body plus its theoretical bracket.
///
/// Each routing scheme registers itself under one or more names (the
/// hookups live next to the simulators: register_*_scheme in
/// src/routing/*.cpp and core/equivalence.cpp for the equivalent
/// networks).  `run(scenario)` resolves the scenario's scheme name here,
/// so every consumer — the façade, the bench driver, the tests — goes
/// through one uniform path: compile -> replicate -> intervals -> bounds.
///
/// A compiled replication body returns the six standard metrics
/// (metric::kDelay .. metric::kBacklog) followed by one value per entry of
/// `extra_metrics`; the engine turns each column into an
/// across-replication confidence interval.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"

namespace routesim {

namespace metric {
/// Layout of the standard metric columns every scheme produces.
enum : std::size_t {
  kDelay = 0,     ///< per-packet delay (generation to delivery)
  kPopulation,    ///< time-average packets in the network
  kThroughput,    ///< deliveries per time unit
  kHops,          ///< arcs traversed per delivered packet
  kLittle,        ///< Little's-law relative error (0 when not applicable)
  kBacklog,       ///< packets left in the network at the horizon
  kCount
};
}  // namespace metric

/// A scenario bound to a concrete scheme: ready-to-run replication body,
/// the names of any extra metric columns, and the paper's bracket.
struct CompiledScenario {
  /// One replication: simulate with this seed, return metric::kCount
  /// standard metrics followed by extra_metrics.size() named extras.
  std::function<std::vector<double>(std::uint64_t seed, int rep)> replicate;
  std::vector<std::string> extra_metrics;
  bool has_bounds = false;
  double lower_bound = 0.0;
  double upper_bound = 0.0;
};

/// Per-thread cached simulator: replication bodies call this instead of
/// constructing a fresh simulator, so kernel storage (packet pool, arc
/// queues, event set) is reused across the replications a worker thread
/// executes instead of being reallocated per rep.  Safe because
/// Sim::reset() reinitialises *all* state from the config — results are
/// bit-identical to a fresh construction regardless of which thread runs
/// which replication.
template <typename Sim, typename Config>
[[nodiscard]] Sim& reusable_sim(Config config) {
  thread_local std::unique_ptr<Sim> sim;
  if (sim == nullptr) {
    sim = std::make_unique<Sim>(std::move(config));
  } else {
    sim->reset(std::move(config));
  }
  return *sim;
}

/// The process-wide name -> scheme map behind run(): each entry compiles a
/// `Scenario` into a replication body, optionally overrides the load
/// factor rule Scenario::rho() applies, and declares what it accepts.
class SchemeRegistry {
 public:
  /// One registered scheme: its name, --list summary, compile hook,
  /// optional load-factor rule, and its row of the capability matrix.  The
  /// engine checks a scenario against that row (check()) before compiling
  /// it, so a compile hook reads only values the row admits.  The columns
  /// default to the plain cube: hypercube, bit_flip/uniform, no faults, no
  /// scheme-specific keys.
  struct SchemeInfo {
    std::string name;
    std::string summary;  ///< one line for --list and error messages
    std::function<CompiledScenario(const Scenario&)> compile;
    /// Scheme-specific load-factor rule consulted by Scenario::rho();
    /// null means the default lambda*max_j P[B_j] rule applies.
    std::function<double(const Scenario&)> load_factor = {};
    /// topology= families; "native" resolves to the first.
    std::vector<std::string> topologies = {"hypercube"};
    /// workload= values.
    std::vector<std::string> workloads = {"bit_flip", "uniform"};
    /// fault_policy= values honoured under active faults; empty means the
    /// scheme has no fault support.
    std::vector<std::string> fault_policies = {};
    /// The scheme-specific rows of Scenario::keys() the scheme reads, out
    /// of scheme_keys(); every other one must stay at its default.
    std::vector<std::string> keys = {};

    /// Throws ScenarioError, naming the key and the scheme, when `s` sets
    /// anything this row does not admit.  On top of the columns it applies
    /// the family rules: ring, torus and mesh take workload=uniform (plus
    /// permutation on the ring) and no faults; ring_chords is read only on
    /// the ring and torus_dims only on the torus and the mesh.  It also
    /// checks the fault knobs' pairing and builds a generic topology once,
    /// so its size errors surface here.
    void check(const Scenario& s) const;
  };

  /// The rows of Scenario::keys() a SchemeInfo::keys column may list.
  [[nodiscard]] static const std::vector<std::string>& scheme_keys();

  /// The process-wide registry, with every built-in scheme registered.
  static SchemeRegistry& instance();

  /// Registers (or replaces) a scheme.  Callable at any time — downstream
  /// users can plug in their own schemes and drive them through run().
  void add(SchemeInfo info);

  [[nodiscard]] const SchemeInfo* find(const std::string& name) const;

  /// The row of `s.scheme` once `s` passed its SchemeInfo::check; a
  /// ScenarioError naming the known schemes when there is no such scheme.
  const SchemeInfo& check(const Scenario& s) const;

  [[nodiscard]] bool contains(const std::string& name) const {
    return find(name) != nullptr;
  }

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  SchemeRegistry() = default;

  std::map<std::string, SchemeInfo> schemes_;
};

}  // namespace routesim
