#pragma once
/// \file scenario.hpp
/// \brief The declarative experiment API: a `Scenario` value names one
///        point of the experiment space *topology x scheme x workload x
///        load x window x replication plan*, and `run(scenario)` produces a
///        `RunResult` with confidence intervals and the paper's bounds.
///
/// Every experiment in this library — the paper's tables (Props. 12-17),
/// the ablations and the related-work comparators — is a `Scenario`;
/// schemes are looked up by name in the `SchemeRegistry`
/// (core/registry.hpp), so adding a sweep or a workload is a data change,
/// not a new binary.  Scenarios round-trip through the `key=value` textual
/// form used by the `routesim_bench` CLI (`--scenario NAME --set rho=0.6`);
/// every key of that form is one row of Scenario::keys().

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/experiment.hpp"
#include "fault/fault_config.hpp"
#include "stats/ci.hpp"
#include "util/json.hpp"  // fmt_shortest is part of this API
#include "workload/destination.hpp"

namespace routesim {

class Topology;                            // topology/topology.hpp
struct TopologySpec;
struct PacketTrace;                        // workload/trace.hpp

/// Thrown on malformed scenario text or an unknown scheme/key/value.
struct ScenarioError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Measurement window specification for steady-state estimation.
struct Window {
  double warmup = 0.0;
  double horizon = 0.0;

  /// A window heuristically matched to relaxation time ~ 1/(1-rho)^2 and
  /// diameter d, with `length` time units of measurement.
  static Window for_load(int d, double rho, double length);

  /// True when unset ({0, 0}): run() derives a window from the scenario's
  /// load via for_load(d, rho, measure).
  [[nodiscard]] bool is_auto() const noexcept {
    return warmup == 0.0 && horizon == 0.0;
  }

  friend bool operator==(const Window&, const Window&) = default;
};

struct Scenario;

/// One `key=value` setting of the textual scenario form.  Scenario::keys()
/// is the single table behind every textual surface: set() dispatches on
/// it, to_string() walks it in order (so parse() of the output
/// reconstructs the scenario), the catalog renders its docs, SweepSpec
/// accepts its sweepable rows, and ResultCache::key writes its
/// result-neutral rows at their defaults.  A new knob is one new row.
struct ScenarioKey {
  std::string name;
  std::string type;             ///< "int", "double", "string", "list", "uint64"
  bool sweepable = false;       ///< accepted as a --grid / --sweep axis
  bool result_neutral = false;  ///< never changes results (cache-key role)
  std::string doc;              ///< one line (--list, SCENARIO_REFERENCE.md)
  /// Parses, validates and stores `value`, leaving the scenario untouched
  /// on failure.  Throws ScenarioError (or std::invalid_argument) with the
  /// reason; Scenario::set() adds the key and value to the message.
  void (*set)(Scenario&, std::string_view value) = nullptr;
  /// The row's one formatter: appends the textual value to `out` and
  /// returns true, or returns false having appended nothing when the key
  /// is omitted (an unset optional knob).
  bool (*append)(const Scenario&, std::string& out) = nullptr;

  /// append() into a new string; nullopt omits the key.
  [[nodiscard]] std::optional<std::string> get(const Scenario& scenario) const {
    std::string value;
    if (!append(scenario, value)) return std::nullopt;
    return value;
  }
};

/// One point of the experiment space.  Every field has a usable default.
/// A scheme-specific field (tau, fanout, ...) set off its default on a
/// scheme that does not read it is a ScenarioError: the engine checks every
/// scenario against its scheme's capability row
/// (SchemeRegistry::SchemeInfo) before compiling it.
struct Scenario {
  /// Registry key: hypercube_greedy, butterfly_greedy, network_q,
  /// network_q_fifo, network_q_ps, pipelined_baseline, valiant_mixing,
  /// deflection, batch_greedy, multicast (see SchemeRegistry::names()).
  std::string scheme = "hypercube_greedy";

  // --- model parameters -------------------------------------------------
  int d = 4;            ///< cube / butterfly dimension (ring: n = 2^d nodes)
  /// Network family: "native" (the scheme's own topology — the hypercube
  /// for the cube schemes, the butterfly for butterfly_greedy) or an
  /// explicit family from topology_names(): hypercube, butterfly, ring,
  /// torus, mesh (SchemeInfo::topologies lists the ones a scheme runs).
  std::string topology = "native";
  /// topology=ring chord structure: "" (plain ring), "papillon" (the
  /// doubling-stride ladder) or a CSV of chord strides in [2, n/2 - 1].
  std::string ring_chords;
  /// topology=torus|mesh grid extents: "AxB" or "AxBxC", each in [2, 256].
  std::string torus_dims = "4x4";
  double lambda = 0.1;  ///< per-node generation rate
  /// A pending `--set rho=` target: resolved() solves it for lambda when
  /// every other knob (p, workload, d, scheme) is final, so the setting
  /// order cannot change the result.  Empty = lambda is authoritative;
  /// set("lambda") clears it.
  std::optional<double> rho_target;
  double p = 0.5;       ///< bit-flip probability of the destination law
  double tau = 0.0;     ///< > 0: slotted-time variant (§3.4)
  /// Service discipline of the scheme `network_q`: "fifo" (network Q) or
  /// "ps" (Q~).
  std::string discipline = "fifo";

  // --- workload ---------------------------------------------------------
  /// "bit_flip" (law (1) with parameter p), "uniform" (p = 1/2),
  /// "general" (translation-invariant law mask_pmf), "trace"
  /// (pre-generated packet trace shared by equal-seed scenarios, the
  /// coupled-comparison workload; with `trace_file` set, an external
  /// recorded trace replayed verbatim), or "permutation" (adversarial
  /// deterministic per-source destinations — see the `permutation` key and
  /// workload/permutation.hpp).
  std::string workload = "bit_flip";
  /// For workload == "trace": path of a JSONL trace file (one
  /// {"t":...,"src":...,"dst":...} record per packet) to replay instead of
  /// regenerating a trace per replication seed.  Loaded and validated at
  /// compile time (shared_trace()); every replication replays the same
  /// recorded stream.  Record one with `routesim_bench --record-trace`.
  std::string trace_file;
  /// For workload == "general": P[dest = origin XOR y] for each mask y
  /// (2^d entries); the mask_pmf key takes an inline CSV or @path.
  std::vector<double> mask_pmf;
  /// For workload == "permutation": the family name (bit_reversal,
  /// transpose, bit_complement, shuffle, tornado, random_permutation,
  /// hotspot — Permutation::names()).  Ignored by the other workloads.
  std::string permutation = "bit_reversal";
  /// For permutation == "hotspot": fraction of sources sending to the hot
  /// node (node 0); must be in [0, 1].
  double hotspot_frac = 0.1;

  // --- scheme-specific knobs -------------------------------------------
  int fanout = 4;                 ///< multicast destinations / batch packets per node
  bool unicast_baseline = false;  ///< multicast: k unicasts instead of a tree
  std::uint32_t buffer_capacity = 0;  ///< 0 = infinite (the paper's model)

  // --- fault injection (src/fault/fault_model.hpp) ---------------------
  /// The seven fault knobs, one key row each (fault_rate writes
  /// arc_fault_rate, fault_mtbf/fault_mttr write mtbf/mttr); the compile
  /// hooks hand this value to the simulators as it is.
  FaultModelConfig faults;
  /// Reroute policy when the desired arc is dead: "drop", "skip_dim",
  /// "deflect", "adaptive" (hypercube family) or "twin_detour"
  /// (butterfly).  Consulted only when faults_active().
  std::string fault_policy = "drop";
  int ttl = 0;  ///< max hops for detouring packets; 0 = scheme default (64*d)

  // --- measurement ------------------------------------------------------
  Window window{};          ///< {0,0} => auto window from load
  double measure = 4000.0;  ///< measurement length used by the auto window
  ReplicationPlan plan{};
  /// Legacy spelling, "scalar" or "soa_batch": both run the kernel's one
  /// drive loop.  Kept because perfbench's hc_slot_soa cell and persisted
  /// store keys carry it; it leaves once the benchmark retires that cell,
  /// and the store then drops it from old records as it drops the retired
  /// `threads` key (`without_retired_keys` in store/result_store.cpp).
  std::string backend = "scalar";

  // --- derived ----------------------------------------------------------

  /// The bit-flip parameter the workload actually simulates: 0.5 for
  /// "uniform" (which ignores the p field), p otherwise.
  [[nodiscard]] double effective_p() const noexcept {
    return workload == "uniform" ? 0.5 : p;
  }

  /// faults.any(): some fault source is set (FaultModelConfig::any).
  [[nodiscard]] bool faults_active() const noexcept { return faults.any(); }

  /// True when the scenario selects a family outside the paper (ring /
  /// torus / mesh), whose load factor and diameter come from the built
  /// topology rather than the cube formulas.
  [[nodiscard]] bool uses_generic_topology() const noexcept {
    return topology == "ring" || topology == "torus" || topology == "mesh";
  }

  /// The TopologySpec these knobs describe ("native" maps to "hypercube",
  /// the engine-wide default family).
  [[nodiscard]] TopologySpec topology_spec() const;

  /// make_topology(topology_spec()) with size/format errors rethrown as
  /// catchable ScenarioError.
  [[nodiscard]] std::shared_ptr<const Topology> compiled_topology() const;

  /// This scenario with any pending rho target solved: lambda is set so
  /// the load factor under the *final* scheme/workload/p equals the target
  /// (every load rule is linear in lambda), and rho_target is cleared.
  /// Identity when no target is pending.  The engine resolves each cell
  /// before compiling it; call this yourself before reading `lambda` from
  /// a scenario configured via set("rho", ...).  Throws ScenarioError when
  /// the load factor is zero (the linear solve has no solution), or when d
  /// lies outside [kMinDimension, kMaxDimension] (topology/topology.hpp).
  [[nodiscard]] Scenario resolved() const;

  /// Scheme-aware load factor: the scheme's registry load_factor rule when
  /// one is installed (the butterfly uses lambda*max{p,1-p}), default_rho()
  /// otherwise.  A pending rho target is solved first.  Like resolved(),
  /// it rejects an out-of-range d before any load rule runs.
  [[nodiscard]] double rho() const;

  /// The engine's default load-factor rule: lambda*max_j P[B_j] over the
  /// destination law (= lambda*p for the bit-flip law); for workload
  /// "permutation", lambda * (max arc congestion of the greedy hypercube
  /// path system) — exact for hypercube_greedy, a worst-case proxy
  /// otherwise.  Registry load-factor hooks call this as their fallback so
  /// future default-rule changes apply to them too.
  [[nodiscard]] double default_rho() const;

  [[nodiscard]] bounds::HypercubeParams hypercube_params() const {
    return {d, lambda, p};
  }

  /// Builds the destination law this scenario describes.  For workload
  /// "permutation" the law is a uniform placeholder satisfying the schemes'
  /// config preconditions: the per-source table from permutation_table()
  /// governs destinations, and schemes consume it through the packet
  /// kernel's fixed-destination mode.
  [[nodiscard]] DestinationDistribution make_destinations() const;

  /// For workload == "permutation": builds the per-source destination
  /// table (2^d entries; entry x is the fixed destination of every packet
  /// generated at source x).  Registry compile hooks call this *before*
  /// fanning replications out, so an unknown permutation name or an
  /// out-of-range hotspot_frac surfaces as a catchable ScenarioError.
  /// random_permutation derives from plan.base_seed, so the table is the
  /// same for every replication of the scenario.  Throws ScenarioError
  /// when the workload is not "permutation".
  [[nodiscard]] std::vector<NodeId> permutation_table() const;

  /// The compile-hook form of permutation_table(): the table wrapped for
  /// capture by the replication lambda (whose config points at it), or
  /// null when this scenario's workload is not "permutation".  Every
  /// scheme supporting the fixed-destination mode calls this one helper.
  [[nodiscard]] std::shared_ptr<const std::vector<NodeId>>
  shared_permutation_table() const;

  /// The compile-hook form of the external trace: when `trace_file` is
  /// set (workload must be "trace"), loads and validates the JSONL trace
  /// for this scenario's dimension, wrapped for capture by the
  /// replication lambdas — every replication replays the same stream.
  /// Null when trace_file is empty (schemes fall back to regenerating a
  /// trace per replication seed).  Loader failures (missing file,
  /// malformed or unsorted records) are rethrown as catchable
  /// ScenarioError naming the offending line, and trace_file with a
  /// non-"trace" workload is rejected the same way.
  [[nodiscard]] std::shared_ptr<const PacketTrace> shared_trace() const;

  /// The window actually simulated: `window` if set (horizon must exceed
  /// warmup), otherwise Window::for_load(d, rho(), measure) — which needs
  /// rho < 1; unstable runs must set the window explicitly.  Throws
  /// ScenarioError on either violation.
  [[nodiscard]] Window resolved_window() const;

  // --- textual form (CLI round trip) -----------------------------------

  /// Every `key=value` setting, one row per key, in textual-form order
  /// (see ScenarioKey).  `rho` follows `lambda`, so replaying the order
  /// re-arms a pending load target after lambda clears it; `mask_pmf`
  /// follows `d`, whose 2^d it is checked against.
  [[nodiscard]] static const std::vector<ScenarioKey>& keys();

  /// Applies one `key=value` setting through its keys() row.  Throws
  /// ScenarioError on an unknown key (suggesting the nearest valid ones)
  /// or an invalid value (naming the key, the value and the reason).
  void set(std::string_view key, std::string_view value);

  /// Every set key as `key=value` pairs in keys() order; parse(scheme +
  /// these) reconstructs the scenario exactly.  Unset optional keys
  /// (ring_chords, rho, trace_file, mask_pmf) are omitted.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> to_key_values()
      const;

  /// "scheme key=value ..." one-line form of to_key_values(), each row
  /// appended in place to one string.
  [[nodiscard]] std::string to_string() const;

  /// Parses {"scheme", "key=value", ...} (the CLI argument form).
  static Scenario parse(const std::vector<std::string>& args);

  /// parse() of the whitespace-separated one-liner to_string() writes (and
  /// serve requests and store records carry).  Both read each token's key
  /// and value in place.
  static Scenario parse_text(std::string_view text);

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Aggregate of one run(): across-replication 95% t intervals for the
/// standard metrics, the paper's bracket when the scheme has one, plus any
/// scheme-specific extra metrics (deflection fraction, round length, ...).
struct RunResult {
  ConfidenceInterval delay;       ///< mean packet delay T
  ConfidenceInterval population;  ///< time-average packets in network
  ConfidenceInterval throughput;  ///< deliveries per time unit
  double mean_hops = 0.0;         ///< average arcs traversed
  double max_little_error = 0.0;  ///< worst Little's-law discrepancy seen
  double mean_final_backlog = 0.0;

  bool has_bounds = false;   ///< scheme provides a theoretical bracket
  double lower_bound = 0.0;  ///< paper lower bound for these parameters
  double upper_bound = 0.0;  ///< paper upper bound for these parameters

  /// Scheme-specific metrics by name, with across-replication intervals.
  std::vector<std::pair<std::string, ConfidenceInterval>> extras;

  double rho = 0.0;  ///< the scenario's load factor, echoed for tables

  /// Looks up an extra metric; nullptr when absent.
  [[nodiscard]] const ConfidenceInterval* extra(const std::string& name) const;

  /// Bracket containment with `slack` added on both sides (plus the CI
  /// half-width); true when the scheme has no bounds.
  [[nodiscard]] bool within_bracket(double slack = 0.0) const;
};

/// The single-shot entry point — now a one-cell campaign on the shared
/// scheduler (core/campaign.hpp): resolves the scenario, looks the scheme
/// up in the registry, compiles it, runs the replication plan, and
/// assembles intervals + bounds uniformly.  Bit-identical to the historic
/// per-run pool for equal seeds and plans.  Throws ScenarioError for an
/// unknown scheme.
[[nodiscard]] RunResult run(const Scenario& scenario);

// ----------------------------------------------------------------- sweeps

/// A swept parameter: "rho=0.1:0.9" or "rho=0.1:0.9:0.05" (default step
/// 0.1).  Keys: the sweepable rows of Scenario::keys().
struct SweepSpec {
  std::string key;
  double start = 0.0;
  double stop = 0.0;
  double step = 0.1;

  /// Throws ScenarioError on malformed text or a key that is not sweepable.
  static SweepSpec parse(const std::string& text);

  /// The swept values, generated by index (`start + i*step`, no
  /// accumulated rounding); `stop` is always included within a half-step
  /// tolerance (overshoot is clamped to `stop`).  Throws ScenarioError on
  /// a non-positive or non-finite spec (parse() already rejects those, but
  /// directly-constructed specs go through the same checks).
  [[nodiscard]] std::vector<double> values() const;
};

/// Applies one swept value to a scenario (rho adjusts lambda; int and
/// uint64 keys round to the nearest integer).
void apply_sweep_value(Scenario& scenario, const std::string& key, double value);

}  // namespace routesim
