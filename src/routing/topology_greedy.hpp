#pragma once
/// \file topology_greedy.hpp
/// \brief Topology-parametric routing: greedy metric descent and its
///        Valiant-mixing variant over any `Topology`, plus the pieces the
///        deflection simulator (routing/deflection.hpp) shares with it.
///
/// TopologyGreedySim is the one simulator of the paper's greedy scheme on
/// every family: `hypercube_greedy` (§3: the d-cube crossed in increasing
/// dimension order, FIFO arcs, slotted variant §3.4) on the cube, ring,
/// torus and mesh, and `butterfly_greedy` (§4: the same increasing-
/// dimension step, unfolded into levels) on the butterfly; plus Valiant's
/// two-phase mixing (`valiant_mixing`, §5).  It runs on the shared packet
/// kernel (des/packet_kernel.hpp); the scheme-specific ingredients are
/// `Topology::greedy_next_arc`, the family's terminals, hop weights and
/// occupancy groups (`Topology::traffic_layout`, `hop_weight`,
/// `occupancy_group`) and, under faults, the reroute policies of
/// fault/fault_routing.hpp.  The routing hooks are a
/// template on the topology, instantiated on the concrete
/// HypercubeTopology and ButterflyTopology (no virtual call) and on the
/// Topology interface (every other family).
///
/// This class is the *direct* simulation of the model in §1.1; the
/// Markovian equivalent network Q of §3.1 is implemented independently in
/// queueing/levelled_network.hpp + core/equivalence.hpp, and the test suite
/// checks that the two agree.  Three arrival modes: continuous (per-node
/// Poisson), slotted (§3.4: Poisson(lambda*slot) per node at k*slot) and
/// trace replay.
///
/// What each scheme accepts on which family is its SchemeInfo capability
/// row, checked by the engine before compiling (core/registry.hpp); those
/// limits live only there, not in the simulators.  A cell of any of the
/// four schemes (the three above and `deflection`) builds its
/// TopologyRoutingConfig once, in routing_config; each replication copies
/// it and sets only its seed (and, for a regenerated trace, the trace).
/// The fault knobs travel in it as the scenario's one FaultModelConfig,
/// which the simulator hands to FaultModel::configure.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "des/packet_kernel.hpp"
#include "fault/fault_model.hpp"
#include "stats/little.hpp"
#include "stats/summary.hpp"
#include "topology/topology.hpp"
#include "workload/destination.hpp"
#include "workload/trace.hpp"

namespace routesim {

/// Which descending port a greedy packet takes.  The paper crosses the
/// required hypercube dimensions in increasing index order (the canonical
/// path, Topology::greedy_next_arc), which makes the equivalent network
/// levelled and the analysis tractable; the other two are ablations showing
/// the *choice of order* is an analytical convenience, not a performance
/// trick — by symmetry every order gives the same per-arc load rho.
enum class DimensionOrder : std::uint8_t {
  kIncreasing,    ///< greedy_next_arc (no draw)
  kDecreasing,    ///< the last descending port
  kRandomPerHop,  ///< a uniform draw among the descending ports, every hop
};

/// The configuration of both topology-parametric simulators
/// (TopologyGreedySim and DeflectionSim); fields marked "greedy" are not
/// read by deflection, which is slotted and bufferless by construction.
struct TopologyRoutingConfig {
  TopologySpec spec;
  double lambda = 0.1;  ///< packet generation rate per node
  std::uint64_t seed = 1;
  /// Hypercube and butterfly: the XOR-mask destination law over the 2^d
  /// terminals (dimension spec.d); nullopt = uniform.  Other families draw
  /// a uniform destination node.
  std::optional<DestinationDistribution> destinations;
  /// Per-source fixed destinations (workload = permutation); entry t is the
  /// destination terminal of packets born at terminal t.  Non-owning; one
  /// entry per source terminal; null = sample destinations.
  const std::vector<NodeId>* fixed_destinations = nullptr;
  /// Greedy: replay this trace instead of generating traffic (lambda and
  /// slot are then ignored).
  const PacketTrace* trace = nullptr;
  /// Greedy: 0 => continuous time; > 0 => slotted arrivals (§3.4).
  double slot = 0.0;
  /// Greedy: route via a uniform random intermediate node (Valiant's
  /// trick) before heading to the destination.
  bool valiant = false;
  /// Greedy: finite-buffer ablation; 0 = infinite buffers.
  std::uint32_t buffer_capacity = 0;
  /// Greedy: arc scheduling ablation (paper: FIFO).
  ArcServiceOrder service_order = ArcServiceOrder::kFifo;
  /// Greedy: dimension-order ablation (paper: increasing).
  DimensionOrder dimension_order = DimensionOrder::kIncreasing;
  /// Greedy: track a time-weighted occupancy per occupancy group of the
  /// topology (per node; per level on the butterfly).
  bool track_occupancy = false;
  /// Greedy: collect a delay histogram (bin width 1, range [0, 64 *
  /// diameter]); deflection always collects it.
  bool track_delay_histogram = false;

  // --- fault injection (src/fault/fault_model.hpp) ----------------------
  /// Greedy: kNone = the pristine path; kDrop / kSkipDim / kDeflect /
  /// kAdaptive / kTwinDetour route around (or drop at) dead arcs within
  /// the current phase.  Deflection ignores it: a dead arc is a port that is never
  /// free, so the knobs alone switch its fault model on.
  FaultPolicy fault_policy = FaultPolicy::kNone;
  /// The fault knobs, handed to FaultModel::configure as they are.
  FaultModelConfig faults;
  int ttl = 0;  ///< max hops for detouring packets; 0 = 64 * diameter
};

/// Kernel RNG stream salts of one scheme: the paper's cube and butterfly
/// keep the salts their pins were captured with, and every other family
/// draws a stream of its own.
struct StreamSalts {
  std::uint64_t hypercube = 0;
  std::uint64_t butterfly = 0;
  std::uint64_t other = 0;
  [[nodiscard]] std::uint64_t for_family(const std::string& family) const {
    if (family == "hypercube") return hypercube;
    return family == "butterfly" ? butterfly : other;
  }
};
inline constexpr StreamSalts kGreedySalts{0xC0BE, 0xBF17, 0x7090};
inline constexpr StreamSalts kValiantSalts{0x3A1A, 0x7091, 0x7091};
inline constexpr StreamSalts kDeflectionSalts{0xDEF1, 0xDEF2, 0xDEF2};

/// True for the families whose terminals are d-bit identities (the cube's
/// nodes, the butterfly's rows): the only ones an XOR-mask destination law
/// acts on.
[[nodiscard]] inline bool takes_xor_mask_law(const std::string& family) {
  return family == "hypercube" || family == "butterfly";
}

/// What both topology-parametric simulators resolve from their config in
/// the same way: the topology and its traffic layout, the destination
/// law, the TTL and the destination draw.
class RoutedNetwork {
 public:
  /// Builds the topology and checks the config against it.
  void configure(const TopologyRoutingConfig& config);

  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] int diameter() const noexcept { return diameter_; }
  [[nodiscard]] int ttl() const noexcept { return ttl_; }

  // --- the topology's traffic layout (Topology::TrafficLayout) ---
  [[nodiscard]] std::uint32_t num_sources() const noexcept {
    return layout_.num_sources;
  }
  /// The node where packets for `terminal` leave the network.
  [[nodiscard]] NodeId sink(NodeId terminal) const noexcept {
    return layout_.sink_base + terminal;
  }
  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return layout_.num_groups;
  }

  /// The destination node of a packet born at `origin`: the sink of the
  /// fixed table's terminal (no draw), else of a draw from the law, else
  /// of a uniform terminal.
  [[nodiscard]] NodeId draw_destination(Rng& rng, NodeId origin) const {
    if (fixed_ != nullptr) return sink((*fixed_)[origin]);
    if (law_.has_value()) return sink(law_->sample(rng, origin));
    return sink(static_cast<NodeId>(rng.uniform_below(layout_.num_sources)));
  }

 private:
  std::unique_ptr<const Topology> topo_;
  Topology::TrafficLayout layout_;
  std::optional<DestinationDistribution> law_;
  const std::vector<NodeId>* fixed_ = nullptr;
  std::uint32_t num_nodes_ = 0;
  int diameter_ = 1;
  int ttl_ = 0;
};

/// Greedy metric descent (optionally via a Valiant intermediate) over any
/// Topology, on the shared packet kernel: store-and-forward, one packet per
/// arc at a time, FIFO queues, unit transmission times.
class TopologyGreedySim {
 public:
  explicit TopologyGreedySim(TopologyRoutingConfig config);

  /// Reconfigures for another replication, reusing kernel storage.
  void reset(TopologyRoutingConfig config);

  /// Simulates [0, horizon]; statistics cover [warmup, horizon].
  void run(double warmup, double horizon);

  // --- results (valid after run()) ---

  [[nodiscard]] const Summary& delay() const noexcept { return kernel_.stats().delay(); }
  [[nodiscard]] const Summary& hops() const noexcept { return kernel_.stats().hops(); }
  [[nodiscard]] double time_avg_population() const noexcept {
    return kernel_.stats().time_avg_population();
  }
  [[nodiscard]] double final_population() const noexcept {
    return kernel_.stats().final_population();
  }
  [[nodiscard]] double throughput() const noexcept {
    return kernel_.stats().throughput();
  }
  [[nodiscard]] LittleCheck little_check() const noexcept {
    return kernel_.stats().little_check();
  }
  [[nodiscard]] double max_node_occupancy() const noexcept {
    return kernel_.stats().max_occupancy();
  }
  /// The full measurement harvest (delivery ratio, stretch, quantiles, ...).
  [[nodiscard]] const KernelStats& kernel_stats() const noexcept {
    return kernel_.stats();
  }
  [[nodiscard]] const std::vector<ArcCounters>& arc_counters() const noexcept {
    return kernel_.arc_counters();
  }
  /// The attached fault model (inactive when fault_policy is kNone).
  [[nodiscard]] const FaultModel& fault_model() const noexcept {
    return fault_model_;
  }
  [[nodiscard]] const Topology& topology() const noexcept {
    return net_.topology();
  }

 private:
  /// A Valiant packet heads for its intermediate node while target !=
  /// final_dest, then for its destination.
  struct Pkt {
    NodeId cur = 0;
    NodeId target = 0;  ///< current phase's goal (intermediate, then dest)
    NodeId final_dest = 0;
    std::uint16_t hop_count = 0;
    /// Stretch baseline: hop_distance along the routed path (0 when the
    /// network is fault-free; see Router::stretch_baseline).
    std::uint16_t min_hops = 0;
    double gen_time = 0.0;
  };

  /// The kernel hooks (on_spawn / on_traced / on_arc_done), templated on
  /// the concrete topology type (routing/topology_greedy.cpp).
  template <typename Topo>
  struct Router;

  void configure_kernel();

  TopologyRoutingConfig config_;
  RoutedNetwork net_;
  FaultModel fault_model_;
  bool fault_active_ = false;
  PacketKernel<Pkt> kernel_;
};

struct CompiledScenario;
struct Scenario;
class SchemeRegistry;

/// The config of one cell of `hypercube_greedy`, `butterfly_greedy`,
/// `valiant_mixing` or `deflection`, built once at compile time: the
/// scenario's topology spec with `family` as its name, lambda, the
/// XOR-mask law where the family takes one, `fixed_destinations` (the
/// cell's permutation table, owned by the caller, or null), the fault
/// knobs and the TTL.  Each replication copies it and sets its seed.
[[nodiscard]] TopologyRoutingConfig routing_config(
    const Scenario& s, const std::string& family,
    const std::vector<NodeId>* fixed_destinations);

/// The compile hook of `hypercube_greedy` on every topology: greedy on
/// TopologyGreedySim with the scheme's metric layout and extras (plus
/// max_queue under a permutation), and on the hypercube the paper's
/// closed-form delay bracket.  (`butterfly_greedy` and `valiant_mixing`
/// compile through the same routine.)
[[nodiscard]] CompiledScenario compile_topology_greedy(const Scenario& s);

/// core/registry.hpp hookups: "hypercube_greedy" (§3; continuous or, with
/// tau > 0, the slotted variant of §3.4), "butterfly_greedy" (§4) and
/// "valiant_mixing" (§5).  Each declares what it accepts as its
/// SchemeInfo capability row (`routesim_bench --list`).
void register_hypercube_greedy_scheme(SchemeRegistry& registry);
void register_butterfly_greedy_scheme(SchemeRegistry& registry);
void register_valiant_mixing_scheme(SchemeRegistry& registry);

}  // namespace routesim
