#include "core/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "fault/fault_model.hpp"
#include "topology/ring.hpp"
#include "topology/topology.hpp"
#include "util/assert.hpp"
#include "workload/permutation.hpp"
#include "workload/trace.hpp"

namespace routesim {

Window Window::for_load(int d, double rho, double length) {
  RS_EXPECTS(d >= 1);
  RS_EXPECTS(rho >= 0.0 && rho < 1.0);
  RS_EXPECTS(length > 0.0);
  const double slack = 1.0 - rho;
  const double warmup = 50.0 + 10.0 * static_cast<double>(d) + 5.0 / (slack * slack);
  return Window{warmup, warmup + length};
}

namespace {

/// mask_pmf is validated against 2^d when it is *set*, but d can change
/// afterwards (another --set d=, a d sweep); re-check at every use so the
/// mismatch surfaces as a ScenarioError, not an internal contract failure.
void check_mask_pmf_matches_d(const std::vector<double>& mask_pmf, int d) {
  const auto expected = std::size_t{1} << d;
  if (mask_pmf.size() != expected) {
    throw ScenarioError("mask_pmf has " + std::to_string(mask_pmf.size()) +
                        " entries but d=" + std::to_string(d) + " needs 2^d = " +
                        std::to_string(expected) +
                        " (d changed after mask_pmf was set?)");
  }
}

/// Every scheme simulates d in [kMinDimension, kMaxDimension], the range
/// make_topology builds the cube and the butterfly for; checked before any
/// load rule, whose own preconditions would fail less clearly.
void check_dimension(const Scenario& s) {
  if (s.d < kMinDimension || s.d > kMaxDimension) {
    throw ScenarioError("d=" + std::to_string(s.d) + " is out of range: scheme '" +
                        s.scheme + "' needs d in [" +
                        std::to_string(kMinDimension) + ", " +
                        std::to_string(kMaxDimension) + "]");
  }
}

}  // namespace

double Scenario::rho() const {
  check_dimension(*this);
  if (rho_target.has_value()) return resolved().rho();
  const auto* info = SchemeRegistry::instance().find(scheme);
  if (info != nullptr && info->load_factor) return info->load_factor(*this);
  return default_rho();
}

Scenario Scenario::resolved() const {
  check_dimension(*this);
  if (!rho_target.has_value()) return *this;
  Scenario out = *this;
  out.rho_target.reset();
  // Every load factor is linear in lambda, so probe it at lambda = 1 on
  // the copy and solve; this stays correct for any registry load-factor
  // rule.
  out.lambda = 1.0;
  const double per_unit_lambda = out.rho();
  if (per_unit_lambda <= 0.0) {
    throw ScenarioError(
        "cannot resolve rho=" + std::to_string(*rho_target) +
        " while the load factor is zero (p=0 or a degenerate workload?)");
  }
  out.lambda = *rho_target / per_unit_lambda;
  return out;
}

double Scenario::default_rho() const {
  if (workload == "permutation") {
    // Every packet of source x follows the fixed greedy path to pi(x), so
    // the heaviest arc carries lambda * max_load — the exact utilisation
    // for the greedy schemes and a worst-case proxy for the others.
    const auto topo = compiled_topology();
    const auto table = permutation_table();
    if (table.size() != topo->traffic_layout().num_sources) {
      throw ScenarioError(
          "workload=permutation needs a topology with 2^d nodes; topology=" +
          topology + " has " + std::to_string(topo->num_nodes()) +
          " (permutation families index 2^d sources)");
    }
    return lambda * static_cast<double>(
                        topology_greedy_congestion(*topo, table).max_load);
  }
  if (uses_generic_topology()) {
    // The stability condition of the uniform-destination experiment:
    // lambda times the heaviest per-arc utilisation per unit rate.
    return lambda * compiled_topology()->uniform_load_per_lambda();
  }
  if (workload == "general" && !mask_pmf.empty()) {
    check_mask_pmf_matches_d(mask_pmf, d);
    return bounds::load_factor_general(mask_pmf, d, lambda);
  }
  return lambda * effective_p();
}

DestinationDistribution Scenario::make_destinations() const {
  if (workload == "uniform") return DestinationDistribution::uniform(d);
  if (workload == "bit_flip" || workload == "trace") {
    return DestinationDistribution::bit_flip(d, p);
  }
  if (workload == "general") {
    if (mask_pmf.empty()) {
      throw ScenarioError("workload 'general' requires a mask_pmf (2^d entries)");
    }
    check_mask_pmf_matches_d(mask_pmf, d);
    return DestinationDistribution::general(d, mask_pmf);
  }
  if (workload == "permutation") {
    // Placeholder law: per-source destinations come from the fixed table
    // (permutation_table()), which schemes consume through the packet
    // kernel's fixed-destination mode.
    return DestinationDistribution::uniform(d);
  }
  throw ScenarioError("unknown workload '" + workload +
                      "' (known: bit_flip, uniform, general, trace, "
                      "permutation)");
}

std::vector<NodeId> Scenario::permutation_table() const {
  if (workload != "permutation") {
    throw ScenarioError("permutation_table() requires workload=permutation "
                        "(current workload: '" + workload + "')");
  }
  try {
    return Permutation::by_name(permutation, d, hotspot_frac, plan.base_seed)
        .table();
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  }
}

std::shared_ptr<const std::vector<NodeId>> Scenario::shared_permutation_table()
    const {
  if (workload != "permutation") return nullptr;
  return std::make_shared<const std::vector<NodeId>>(permutation_table());
}

std::shared_ptr<const PacketTrace> Scenario::shared_trace() const {
  if (trace_file.empty()) return nullptr;
  if (workload != "trace") {
    throw ScenarioError("trace_file requires workload=trace (current "
                        "workload: '" + workload + "')");
  }
  try {
    return std::make_shared<const PacketTrace>(load_trace_jsonl(trace_file, d));
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  } catch (const std::runtime_error& error) {
    throw ScenarioError(error.what());
  }
}

Window Scenario::resolved_window() const {
  if (!window.is_auto()) {
    if (window.warmup < 0.0 || window.horizon < window.warmup) {
      throw ScenarioError("window horizon must be >= warmup >= 0 (got warmup=" +
                          std::to_string(window.warmup) + ", horizon=" +
                          std::to_string(window.horizon) + ")");
    }
    return window;
  }
  const double load = rho();
  if (load >= 1.0) {
    throw ScenarioError(
        "the automatic window needs rho < 1 (got rho = " + std::to_string(load) +
        "); set warmup/horizon explicitly for unstable runs");
  }
  // Warmup scales with the network diameter; for the generic topologies
  // that can exceed d (a 2^d-node ring has diameter 2^(d-1)).
  int effective_d = d;
  if (uses_generic_topology()) {
    effective_d = std::max(effective_d, compiled_topology()->diameter());
  }
  return Window::for_load(effective_d, load, measure);
}

TopologySpec Scenario::topology_spec() const {
  TopologySpec spec;
  spec.name = topology == "native" ? "hypercube" : topology;
  spec.d = d;
  spec.ring_chords = ring_chords;
  spec.torus_dims = torus_dims;
  return spec;
}

std::shared_ptr<const Topology> Scenario::compiled_topology() const {
  try {
    return make_topology(topology_spec());
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  }
}

namespace {

/// Levenshtein edit distance, for did-you-mean suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution = diagonal + (a[i - 1] != b[j - 1] ? 1 : 0);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// " — did you mean: a, b? (known: ...)" for an unknown `name`: the
/// closest candidates (only close ones), then the full list.
std::string suggest(const std::string& name,
                    const std::vector<std::string>& candidates) {
  std::string suggestions;
  std::size_t best = 4;  // suggest only close matches
  for (const auto& candidate : candidates) {
    best = std::min(best, edit_distance(name, candidate));
  }
  for (const auto& candidate : candidates) {
    if (edit_distance(name, candidate) == best) {
      suggestions += suggestions.empty() ? candidate : ", " + candidate;
    }
  }
  std::string message;
  if (!suggestions.empty()) message += " — did you mean: " + suggestions + "?";
  message += " (known:";
  for (const auto& candidate : candidates) message += ' ' + candidate;
  message += ')';
  return message;
}

// --- value parsers for the key table: each throws ScenarioError with the
// reason only (Scenario::set() names the key and value).

/// Whole-string decimal parse (stod alone accepts trailing garbage): the
/// reference number() keeps to, value for value and error for error.
double number_by_stod(const std::string& text) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != text.size()) throw ScenarioError("not a number");
  return parsed;
}

/// number_by_stod's result, read in place with from_chars where the two
/// agree: a whole-text read to zero or to a finite value above the
/// smallest normal (from_chars, like stod, reports an underflow to zero as
/// out of range).  Every other text (a leading '+' or space, hex, inf and
/// nan, a subnormal, an overflow, garbage) takes stod itself, so the
/// accepted values and the error messages are stod's.
double number(std::string_view text) {
  const char* const last = text.data() + text.size();
  double parsed = 0.0;
  if (const auto [end, error] = std::from_chars(text.data(), last, parsed);
      error == std::errc{} && end == last &&
      (parsed == 0.0 || (std::abs(parsed) > std::numeric_limits<double>::min() &&
                         std::isfinite(parsed)))) {
    return parsed;
  }
  return number_by_stod(std::string(text));
}

int integer(std::string_view text) {
  const double parsed = number(text);
  const int rounded = static_cast<int>(std::lround(parsed));
  if (static_cast<double>(rounded) != parsed) {
    throw ScenarioError("needs an integer");
  }
  return rounded;
}

/// Full 64-bit parse: going through a double would corrupt seeds above
/// 2^53, and stoull silently wraps negatives.  from_chars reads the plain
/// digit strings; anything else (a sign, a space, out of range, garbage)
/// takes stoull, whose acceptance and errors this keeps.
std::uint64_t unsigned64(std::string_view text) {
  const char* const last = text.data() + text.size();
  std::uint64_t parsed = 0;
  if (const auto [end, error] = std::from_chars(text.data(), last, parsed);
      error == std::errc{} && end == last) {
    return parsed;
  }
  const std::string copy(text);
  std::size_t pos = 0;
  try {
    if (copy.find('-') == std::string::npos) parsed = std::stoull(copy, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != copy.size()) {
    throw ScenarioError("needs an unsigned 64-bit integer");
  }
  return parsed;
}

template <typename T>
T at_least(T value, T low) {
  if (!(value >= low)) {
    throw ScenarioError("must be >= " + fmt_shortest(static_cast<double>(low)));
  }
  return value;
}

double positive(double value) {
  if (!(value > 0.0)) throw ScenarioError("must be > 0");
  return value;
}

double probability(double value) {
  if (!(value >= 0.0 && value <= 1.0)) throw ScenarioError("must be in [0, 1]");
  return value;
}

double finite(double value) {
  if (!std::isfinite(value)) throw ScenarioError("must be finite");
  return value;
}

std::string_view known_topology(std::string_view value) {
  const std::vector<std::string>& names = topology_names();
  if (value == "native" || std::ranges::find(names, value) != names.end()) {
    return value;
  }
  std::vector<std::string> candidates = names;
  candidates.insert(candidates.begin(), "native");
  const std::string name(value);
  throw ScenarioError("unknown topology '" + name + "'" +
                      suggest(name, candidates));
}

/// Inline comma/whitespace-separated list, or @path to read the same
/// format from a file; needs 2^d entries (set d before mask_pmf).
std::vector<double> parse_mask_pmf(std::string_view value, int d) {
  std::string text(value);
  if (!value.empty() && value.front() == '@') {
    const std::string path(value.substr(1));
    std::ifstream file(path);
    if (!file) throw ScenarioError("cannot open file '" + path + "'");
    std::ostringstream contents;
    contents << file.rdbuf();
    text = contents.str();
  }
  for (char& c : text) {
    if (c == ',') c = ' ';
  }
  std::istringstream in(text);
  std::vector<double> pmf;
  double entry = 0.0;
  while (in >> entry) pmf.push_back(entry);
  if (!in.eof()) {
    throw ScenarioError("non-numeric entry (entry " +
                        std::to_string(pmf.size() + 1) + ")");
  }
  const auto expected = std::size_t{1} << d;
  if (pmf.size() != expected) {
    throw ScenarioError("needs 2^d = " + std::to_string(expected) +
                        " entries for d=" + std::to_string(d) + ", got " +
                        std::to_string(pmf.size()) +
                        " (set d before mask_pmf)");
  }
  double sum = 0.0;
  for (const double p : pmf) {
    if (!std::isfinite(p) || p < 0.0) {
      throw ScenarioError("entries must be finite and >= 0");
    }
    sum += p;
  }
  if (sum <= 0.0) throw ScenarioError("needs a positive sum");
  // Normalise, but only when the sum is meaningfully off 1: dividing an
  // already-normalised pmf by its 1-plus-rounding sum would perturb the
  // entries by an ulp on every parse and break the exact textual round
  // trip (the append side writes the stored values exactly).
  if (std::abs(sum - 1.0) > 1e-9) {
    for (double& p : pmf) p /= sum;
  }
  return pmf;
}

// --- formatters for the key table's append side: each appends its value
// to `out` and reports whether the key is written.

template <typename T>
  requires std::is_integral_v<T>
bool text(std::string& out, T value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
  return true;
}
bool text(std::string& out, double value) {
  append_shortest(out, value);
  return true;
}
bool text(std::string& out, const std::string& value) {
  out += value;
  return true;
}

/// Optional string knobs stay out of the textual form while empty.
bool text_if_set(std::string& out, const std::string& value) {
  out += value;
  return !value.empty();
}

}  // namespace

const std::vector<ScenarioKey>& Scenario::keys() {
  using S = Scenario;
  using V = std::string_view;
  using Out = std::string&;
  static const std::vector<ScenarioKey> table{
      {.name = "d", .type = "int", .sweepable = true,
       .doc = "cube / butterfly dimension (N = 2^d nodes per level)",
       .set = [](S& s, V v) { s.d = integer(v); },
       .append = [](const S& s, Out out) { return text(out, s.d); }},
      {.name = "topology", .type = "string",
       .doc = "network family: native (the scheme's own) | hypercube | "
              "butterfly | ring | torus | mesh (see the topology table)",
       .set = [](S& s, V v) { s.topology = known_topology(v); },
       .append = [](const S& s, Out out) { return text(out, s.topology); }},
      {.name = "ring_chords", .type = "string",
       .doc = "topology=ring: '' (plain cycle), 'papillon' (doubling-ladder "
              "strides) or a CSV of distinct chord strides in [2, n/2 - 1]",
       // Format check now, against the widest supported ring; the strides
       // are re-validated against n = 2^d at compile time, when d is final.
       .set = [](S& s, V v) {
         (void)parse_ring_chords(std::string(v), /*d=*/14);
         s.ring_chords = v;
       },
       .append = [](const S& s, Out out) { return text_if_set(out, s.ring_chords); }},
      {.name = "torus_dims", .type = "string",
       .doc = "topology=torus|mesh: per-dimension extents 'AxB' or 'AxBxC', "
              "each in [2, 256] (d is ignored)",
       .set = [](S& s, V v) {
         (void)parse_torus_dims(std::string(v));
         s.torus_dims = v;
       },
       .append = [](const S& s, Out out) { return text(out, s.torus_dims); }},
      {.name = "lambda", .type = "double", .sweepable = true,
       .doc = "per-node packet generation rate, > 0",
       .set = [](S& s, V v) {
         s.lambda = positive(number(v));
         s.rho_target.reset();  // an explicit lambda drops a pending target
       },
       .append = [](const S& s, Out out) { return text(out, s.lambda); }},
      {.name = "rho", .type = "double", .sweepable = true,
       .doc = "target load factor, > 0; solves for the lambda giving that "
              "load under the current scheme/workload (set p/workload first)",
       // Deferred: resolved() solves target -> lambda once every other knob
       // is final, so `--set rho=0.6 --set p=0.7` and the reverse agree.
       .set = [](S& s, V v) { s.rho_target = positive(number(v)); },
       .append = [](const S& s, Out out) {
         return s.rho_target.has_value() && text(out, *s.rho_target);
       }},
      {.name = "p", .type = "double", .sweepable = true,
       .doc = "bit-flip probability of destination law (1), in [0, 1]",
       .set = [](S& s, V v) { s.p = probability(number(v)); },
       .append = [](const S& s, Out out) { return text(out, s.p); }},
      {.name = "tau", .type = "double", .sweepable = true,
       .doc = "0 = continuous time; > 0: slotted-time variant with this "
              "slot length (§3.4), tau <= 1 with 1/tau an integer (see the "
              "capability matrix)",
       .set = [](S& s, V v) { s.tau = at_least(number(v), 0.0); },
       .append = [](const S& s, Out out) { return text(out, s.tau); }},
      {.name = "discipline", .type = "string",
       .doc = "service discipline of network_q: fifo (network Q) | ps (Q~)",
       .set = [](S& s, V v) {
         if (v != "fifo" && v != "ps") {
           throw ScenarioError("must be fifo or ps");
         }
         s.discipline = v;
       },
       .append = [](const S& s, Out out) { return text(out, s.discipline); }},
      {.name = "workload", .type = "string",
       .doc = "destination workload: bit_flip | uniform | general | trace | "
              "permutation",
       .set = [](S& s, V v) { s.workload = v; },
       .append = [](const S& s, Out out) { return text(out, s.workload); }},
      {.name = "trace_file", .type = "string",
       .doc = "workload=trace: JSONL trace to replay (one "
              "{\"t\":...,\"src\":...,\"dst\":...} record per packet, "
              "time-sorted; record one with --record-trace); every "
              "replication replays the same stream",
       // The textual form is space-delimited, so a path with whitespace
       // could never round-trip.
       .set = [](S& s, V v) {
         for (const char c : v) {
           if (std::isspace(static_cast<unsigned char>(c))) {
             throw ScenarioError("path cannot contain whitespace");
           }
         }
         s.trace_file = v;
       },
       .append = [](const S& s, Out out) { return text_if_set(out, s.trace_file); }},
      {.name = "mask_pmf", .type = "list",
       .doc = "workload=general: inline CSV or @path of 2^d probabilities "
              "P[dest = origin XOR y], validated and normalised (set d first)",
       .set = [](S& s, V v) { s.mask_pmf = parse_mask_pmf(v, s.d); },
       .append = [](const S& s, Out out) {
         for (std::size_t i = 0; i < s.mask_pmf.size(); ++i) {
           if (i > 0) out += ',';
           append_shortest(out, s.mask_pmf[i]);
         }
         return !s.mask_pmf.empty();
       }},
      {.name = "permutation", .type = "string",
       .doc = "workload=permutation: the family name (see the permutation "
              "table); validated immediately",
       // The table itself is built at compile time, when d is final.
       .set = [](S& s, V v) {
         (void)Permutation::summary(std::string(v));
         s.permutation = v;
       },
       .append = [](const S& s, Out out) { return text(out, s.permutation); }},
      {.name = "hotspot_frac", .type = "double",
       .doc = "permutation=hotspot: fraction of sources sending to node 0, "
              "in [0, 1]",
       .set = [](S& s, V v) { s.hotspot_frac = probability(number(v)); },
       .append = [](const S& s, Out out) { return text(out, s.hotspot_frac); }},
      {.name = "fanout", .type = "int", .sweepable = true,
       .doc = "multicast destinations per packet / batch_greedy packets per "
              "node",
       .set = [](S& s, V v) { s.fanout = at_least(integer(v), 1); },
       .append = [](const S& s, Out out) { return text(out, s.fanout); }},
      {.name = "unicast_baseline", .type = "int",
       .doc = "multicast: 1 sends fanout independent unicasts instead of a "
              "tree",
       .set = [](S& s, V v) { s.unicast_baseline = integer(v) != 0; },
       .append = [](const S& s, Out out) {
         return text(out, s.unicast_baseline ? 1 : 0);
       }},
      {.name = "buffers", .type = "int",
       .doc = "per-arc buffer capacity including the packet in service; 0 = "
              "infinite (the paper's model) (see the capability matrix)",
       .set = [](S& s, V v) {
         s.buffer_capacity =
             static_cast<std::uint32_t>(at_least(integer(v), 0));
       },
       .append = [](const S& s, Out out) { return text(out, s.buffer_capacity); }},
      {.name = "fault_rate", .type = "double", .sweepable = true,
       .doc = "P[arc statically down], per replication",
       .set = [](S& s, V v) { s.faults.arc_fault_rate = probability(number(v)); },
       .append = [](const S& s, Out out) { return text(out, s.faults.arc_fault_rate); }},
      {.name = "node_fault_rate", .type = "double", .sweepable = true,
       .doc = "P[node down]; a dead node takes all its incident arcs down",
       .set = [](S& s, V v) { s.faults.node_fault_rate = probability(number(v)); },
       .append = [](const S& s, Out out) { return text(out, s.faults.node_fault_rate); }},
      {.name = "fault_mtbf", .type = "double",
       .doc = "mean link up-time; > 0 with fault_mttr => dynamic up/down "
              "process",
       .set = [](S& s, V v) { s.faults.mtbf = at_least(number(v), 0.0); },
       .append = [](const S& s, Out out) { return text(out, s.faults.mtbf); }},
      {.name = "fault_mttr", .type = "double",
       .doc = "mean link repair time",
       .set = [](S& s, V v) { s.faults.mttr = at_least(number(v), 0.0); },
       .append = [](const S& s, Out out) { return text(out, s.faults.mttr); }},
      {.name = "storm_rate", .type = "double", .sweepable = true,
       .doc = "correlated fault storms: Poisson storm arrivals per unit time "
              "(each downs the incidence ball around a random seed node); "
              "needs storm_duration",
       .set = [](S& s, V v) {
         s.faults.storm_rate = at_least(finite(number(v)), 0.0);
       },
       .append = [](const S& s, Out out) { return text(out, s.faults.storm_rate); }},
      {.name = "storm_radius", .type = "int",
       .doc = "hop radius of a storm's incidence ball around its seed node "
              "(0 = the seed's own arcs)",
       .set = [](S& s, V v) { s.faults.storm_radius = at_least(integer(v), 0); },
       .append = [](const S& s, Out out) { return text(out, s.faults.storm_radius); }},
      {.name = "storm_duration", .type = "double",
       .doc = "storm lifetime; covered arcs are restored when the storm passes "
              "(overlapping storms stack)",
       .set = [](S& s, V v) {
         s.faults.storm_duration = at_least(finite(number(v)), 0.0);
       },
       .append = [](const S& s, Out out) { return text(out, s.faults.storm_duration); }},
      {.name = "fault_policy", .type = "string",
       .doc = "reroute policy at a dead arc: drop | skip_dim | deflect | "
              "twin_detour | adaptive (see the fault-policy table)",
       .set = [](S& s, V v) {
         (void)parse_fault_policy(std::string(v));
         s.fault_policy = v;
       },
       .append = [](const S& s, Out out) { return text(out, s.fault_policy); }},
      {.name = "ttl", .type = "int",
       .doc = "max hops for detouring packets; 0 = scheme default (64*d)",
       .set = [](S& s, V v) { s.ttl = at_least(integer(v), 0); },
       .append = [](const S& s, Out out) { return text(out, s.ttl); }},
      {.name = "warmup", .type = "double",
       .doc = "measurement-window start (with horizon)",
       .set = [](S& s, V v) { s.window.warmup = number(v); },
       .append = [](const S& s, Out out) { return text(out, s.window.warmup); }},
      {.name = "horizon", .type = "double",
       .doc = "simulation end; {warmup=0, horizon=0} derives a window from "
              "the load",
       .set = [](S& s, V v) { s.window.horizon = number(v); },
       .append = [](const S& s, Out out) { return text(out, s.window.horizon); }},
      {.name = "measure", .type = "double", .sweepable = true,
       .doc = "measurement length used by the automatic window, > 0",
       .set = [](S& s, V v) { s.measure = positive(number(v)); },
       .append = [](const S& s, Out out) { return text(out, s.measure); }},
      {.name = "reps", .type = "int", .sweepable = true,
       .doc = "independent replications, >= 1",
       .set = [](S& s, V v) { s.plan.replications = at_least(integer(v), 1); },
       .append = [](const S& s, Out out) { return text(out, s.plan.replications); }},
      {.name = "seed", .type = "uint64", .sweepable = true,
       .doc = "base seed; replication r runs with derive_stream(seed, r)",
       .set = [](S& s, V v) { s.plan.base_seed = unsigned64(v); },
       .append = [](const S& s, Out out) { return text(out, s.plan.base_seed); }},
      {.name = "backend", .type = "string", .result_neutral = true,
       .doc = "legacy spelling: scalar | soa_batch, both run the kernel's "
              "one drive loop; kept while perfbench's hc_slot_soa cell and "
              "persisted store keys carry it",
       // Both values run the same code, so equal scenarios share one
       // cache entry.  The row goes once the benchmark retires hc_slot_soa;
       // the store then drops it from old records as it drops `threads`
       // (without_retired_keys in store/result_store.cpp).
       .set = [](S& s, V v) {
         if (v != "scalar" && v != "soa_batch") {
           throw ScenarioError("unknown kernel backend '" + std::string(v) +
                               "' (valid values: scalar, soa_batch)");
         }
         s.backend = v;
       },
       .append = [](const S& s, Out out) { return text(out, s.backend); }},
  };
  return table;
}

namespace {

/// The keys() row for `name`, searched from row `from` on and wrapping
/// round; nullptr when no such key exists.  Text to_string() wrote names
/// its keys in table order, so a parse that searches from the row after
/// the last one it matched finds each at the first compare.
const ScenarioKey* find_key(std::string_view name, std::size_t from = 0) {
  const std::vector<ScenarioKey>& rows = Scenario::keys();
  for (std::size_t i = from; i < rows.size(); ++i) {
    if (rows[i].name == name) return &rows[i];
  }
  for (std::size_t i = 0; i < from && i < rows.size(); ++i) {
    if (rows[i].name == name) return &rows[i];
  }
  return nullptr;
}

/// Scenario::set() through the row find_key() found for `key`: throws the
/// unknown-key error for a null row, else names the key and the value in
/// the row's error.
void set_row(Scenario& scenario, const ScenarioKey* row, std::string_view key,
             std::string_view value) {
  if (row == nullptr) {
    std::vector<std::string> names;
    for (const ScenarioKey& known : Scenario::keys()) names.push_back(known.name);
    const std::string name(key);
    throw ScenarioError("unknown scenario key '" + name + "'" +
                        suggest(name, names));
  }
  const auto invalid = [&](const char* reason) {
    return ScenarioError("bad value '" + std::string(value) + "' for key '" +
                         std::string(key) + "': " + reason);
  };
  try {
    row->set(scenario, value);
  } catch (const ScenarioError& error) {
    throw invalid(error.what());
  } catch (const std::invalid_argument& error) {
    throw invalid(error.what());
  }
}

/// The one parser behind parse() and parse_text(): `next(word)` points
/// `word` at the next token and returns false once none is left.  The first
/// token is the scheme; every later one is set as key=value, read in place.
template <typename NextWord>
Scenario parse_words(NextWord next) {
  std::string_view word;
  if (!next(word)) throw ScenarioError("empty scenario: expected a scheme name");
  if (word.find('=') != std::string_view::npos) {
    throw ScenarioError("first scenario token must be the scheme name, got '" +
                        std::string(word) + "'");
  }
  Scenario scenario;
  scenario.scheme = word;
  std::size_t next_row = 0;
  while (next(word)) {
    const auto eq = word.find('=');
    if (eq == std::string_view::npos) {
      throw ScenarioError("expected key=value, got '" + std::string(word) + "'");
    }
    const std::string_view key = word.substr(0, eq);
    const ScenarioKey* row = find_key(key, next_row);
    if (row != nullptr) {
      next_row = static_cast<std::size_t>(row - Scenario::keys().data()) + 1;
    }
    set_row(scenario, row, key, word.substr(eq + 1));
  }
  return scenario;
}

}  // namespace

void Scenario::set(std::string_view key, std::string_view value) {
  set_row(*this, find_key(key), key, value);
}

std::vector<std::pair<std::string, std::string>> Scenario::to_key_values() const {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const ScenarioKey& key : keys()) {
    if (auto value = key.get(*this)) {
      pairs.emplace_back(key.name, std::move(*value));
    }
  }
  return pairs;
}

std::string Scenario::to_string() const {
  // Room for every row of a typical scenario, so the rows append to one
  // allocation.
  std::string out;
  out.reserve(512);
  out += scheme;
  for (const ScenarioKey& key : keys()) {
    const std::size_t mark = out.size();
    out += ' ';
    out += key.name;
    out += '=';
    if (!key.append(*this, out)) out.resize(mark);
  }
  return out;
}

Scenario Scenario::parse(const std::vector<std::string>& args) {
  std::size_t next = 0;
  return parse_words([&](std::string_view& word) {
    if (next == args.size()) return false;
    word = args[next++];
    return true;
  });
}

Scenario Scenario::parse_text(std::string_view text) {
  // The tokens `>>` would read: runs between the six C-locale spaces.
  const auto is_space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  const char* at = text.data();
  const char* const last = at + text.size();
  return parse_words([&](std::string_view& word) {
    while (at != last && is_space(*at)) ++at;
    if (at == last) return false;
    const char* const begin = at;
    while (at != last && !is_space(*at)) ++at;
    word = std::string_view(begin, static_cast<std::size_t>(at - begin));
    return true;
  });
}

const ConfidenceInterval* RunResult::extra(const std::string& name) const {
  for (const auto& [key, interval] : extras) {
    if (key == name) return &interval;
  }
  return nullptr;
}

bool RunResult::within_bracket(double slack) const {
  if (!has_bounds) return true;
  return delay.mean >= lower_bound - delay.half_width - slack &&
         delay.mean <= upper_bound + delay.half_width + slack;
}

RunResult run(const Scenario& scenario) {
  // A one-cell campaign: same compile -> replicate -> intervals -> bounds
  // pipeline, now scheduled by the shared engine (core/campaign.hpp).
  return Engine().run_one(scenario);
}

SweepSpec SweepSpec::parse(const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw ScenarioError("sweep must look like key=start:stop[:step], got '" +
                        text + "'");
  }
  SweepSpec spec;
  spec.key = text.substr(0, eq);
  const ScenarioKey* row = find_key(spec.key);
  if (row == nullptr || !row->sweepable) {
    std::vector<std::string> sweepable;
    for (const ScenarioKey& key : Scenario::keys()) {
      if (key.sweepable) sweepable.push_back(key.name);
    }
    throw ScenarioError("'" + spec.key + "' is not a sweep key" +
                        suggest(spec.key, sweepable));
  }
  const auto bound = [&](const std::string& piece) {
    try {
      return number(piece);
    } catch (const ScenarioError&) {
      throw ScenarioError("bad sweep value '" + piece + "' for key '" +
                          spec.key + "'");
    }
  };
  const std::string range = text.substr(eq + 1);
  const auto colon1 = range.find(':');
  if (colon1 == std::string::npos) {
    throw ScenarioError("sweep range needs start:stop, got '" + range + "'");
  }
  spec.start = bound(range.substr(0, colon1));
  const auto colon2 = range.find(':', colon1 + 1);
  if (colon2 == std::string::npos) {
    spec.stop = bound(range.substr(colon1 + 1));
  } else {
    spec.stop = bound(range.substr(colon1 + 1, colon2 - colon1 - 1));
    spec.step = bound(range.substr(colon2 + 1));
  }
  // Non-finite endpoints would otherwise fail *silently*: a NaN start or
  // step makes every loop comparison false (an empty sweep), and an
  // infinite step never advances past stop (an endless one).
  if (!std::isfinite(spec.start) || !std::isfinite(spec.stop) ||
      !std::isfinite(spec.step)) {
    throw ScenarioError("sweep start/stop/step must be finite, got '" + text +
                        "'");
  }
  if (spec.step <= 0.0) throw ScenarioError("sweep step must be positive");
  if (spec.stop < spec.start) {
    throw ScenarioError("sweep stop must be >= start");
  }
  return spec;
}

std::vector<double> SweepSpec::values() const {
  // Same validation as parse(), for directly-constructed specs: a bad spec
  // must throw, never degenerate into an empty or endless sweep.
  if (!std::isfinite(start) || !std::isfinite(stop) || !std::isfinite(step)) {
    throw ScenarioError("sweep start/stop/step must be finite");
  }
  if (step <= 0.0) throw ScenarioError("sweep step must be positive");
  if (stop < start) throw ScenarioError("sweep stop must be >= start");
  // Generate by index (start + i*step), not accumulation, so later points
  // carry no summed rounding error; include stop within a half-step
  // tolerance and clamp any overshoot onto it.
  const auto last =
      static_cast<long long>(std::floor((stop - start) / step + 0.5));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(last) + 1);
  for (long long i = 0; i <= last; ++i) {
    out.push_back(std::min(start + static_cast<double>(i) * step, stop));
  }
  return out;
}

void apply_sweep_value(Scenario& scenario, const std::string& key, double value) {
  const ScenarioKey* row = find_key(key);
  if (row != nullptr && (row->type == "int" || row->type == "uint64")) {
    scenario.set(key, std::to_string(std::llround(value)));
  } else {
    scenario.set(key, fmt_shortest(value));
  }
}

}  // namespace routesim
