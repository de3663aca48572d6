#include "workload/permutation.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "topology/topology.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace routesim {

namespace {

constexpr int kMaxDimension = 20;  // 2^20 table entries; simulations use d <= 12

void check_dimension(int d) {
  RS_EXPECTS_MSG(d >= 1 && d <= kMaxDimension,
                 "permutation dimension must satisfy 1 <= d <= 20");
}

std::vector<NodeId> make_table(int d, NodeId (*f)(NodeId, int)) {
  const auto n = static_cast<NodeId>(NodeId{1} << d);
  std::vector<NodeId> table(n);
  for (NodeId x = 0; x < n; ++x) table[x] = f(x, d);
  return table;
}

NodeId reverse_bits(NodeId x, int d) {
  NodeId out = 0;
  for (int m = 1; m <= d; ++m) {
    if (has_dimension(x, m)) out |= basis_node(d + 1 - m);
  }
  return out;
}

NodeId transpose_bits(NodeId x, int d) {
  const int h = d / 2;
  const NodeId low_mask = (NodeId{1} << h) - 1u;
  const NodeId low = x & low_mask;
  const NodeId high = (x >> (d - h)) & low_mask;
  const NodeId middle = x & ~(low_mask | (low_mask << (d - h)));
  return middle | (low << (d - h)) | high;
}

NodeId complement_bits(NodeId x, int d) {
  return x ^ static_cast<NodeId>((NodeId{1} << d) - 1u);
}

NodeId shuffle_bits(NodeId x, int d) {
  const NodeId mask = (NodeId{1} << d) - 1u;
  if (d == 1) return x;
  return ((x << 1) | (x >> (d - 1))) & mask;
}

NodeId tornado_shift(NodeId x, int d) {
  const NodeId n = NodeId{1} << d;
  return static_cast<NodeId>((static_cast<std::uint64_t>(x) + n / 2 - 1) % n);
}

}  // namespace

Permutation::Permutation(int d, std::string name, std::vector<NodeId> table)
    : d_(d), name_(std::move(name)), table_(std::move(table)) {
  RS_ENSURES(table_.size() == (std::size_t{1} << d_));
}

Permutation Permutation::bit_reversal(int d) {
  check_dimension(d);
  return {d, "bit_reversal", make_table(d, reverse_bits)};
}

Permutation Permutation::transpose(int d) {
  check_dimension(d);
  return {d, "transpose", make_table(d, transpose_bits)};
}

Permutation Permutation::bit_complement(int d) {
  check_dimension(d);
  return {d, "bit_complement", make_table(d, complement_bits)};
}

Permutation Permutation::shuffle(int d) {
  check_dimension(d);
  return {d, "shuffle", make_table(d, shuffle_bits)};
}

Permutation Permutation::tornado(int d) {
  check_dimension(d);
  return {d, "tornado", make_table(d, tornado_shift)};
}

Permutation Permutation::random(int d, std::uint64_t seed) {
  check_dimension(d);
  const auto n = static_cast<NodeId>(NodeId{1} << d);
  std::vector<NodeId> table(n);
  std::iota(table.begin(), table.end(), NodeId{0});
  // Dedicated stream so the permutation is independent of every simulation
  // stream derived from the same master seed.
  Rng rng(derive_stream(seed, 0x9E47));
  for (NodeId i = n; i > 1; --i) {
    const auto j = static_cast<NodeId>(rng.uniform_below(i));
    std::swap(table[i - 1], table[j]);
  }
  return {d, "random_permutation", std::move(table)};
}

Permutation Permutation::hotspot(int d, double hot_fraction) {
  check_dimension(d);
  if (!(hot_fraction >= 0.0 && hot_fraction <= 1.0)) {
    throw std::invalid_argument("hotspot fraction must be in [0, 1], got " +
                                std::to_string(hot_fraction));
  }
  const auto n = static_cast<NodeId>(NodeId{1} << d);
  const auto hot = static_cast<NodeId>(
      std::llround(hot_fraction * static_cast<double>(n)));
  std::vector<NodeId> table(n);
  for (NodeId x = 0; x < n; ++x) {
    table[x] = x < hot ? NodeId{0} : complement_bits(x, d);
  }
  return {d, "hotspot", std::move(table)};
}

Permutation Permutation::by_name(const std::string& name, int d,
                                 double hotspot_frac, std::uint64_t seed) {
  if (name == "bit_reversal") return bit_reversal(d);
  if (name == "transpose") return transpose(d);
  if (name == "bit_complement") return bit_complement(d);
  if (name == "shuffle") return shuffle(d);
  if (name == "tornado") return tornado(d);
  if (name == "random_permutation") return random(d, seed);
  if (name == "hotspot") return hotspot(d, hotspot_frac);
  std::string known;
  for (const auto& candidate : names()) {
    known += known.empty() ? candidate : ", " + candidate;
  }
  throw std::invalid_argument("unknown permutation '" + name +
                              "' (known: " + known + ")");
}

const std::vector<std::string>& Permutation::names() {
  static const std::vector<std::string> all{
      "bit_reversal", "transpose", "bit_complement", "shuffle",
      "tornado",      "random_permutation", "hotspot"};
  return all;
}

const std::string& Permutation::summary(const std::string& name) {
  static const std::vector<std::pair<std::string, std::string>> summaries{
      {"bit_reversal",
       "reverse the d identity bits; greedy butterfly congestion "
       "2^(ceil(d/2)-1) = Theta(sqrt(N))"},
      {"transpose",
       "swap the low and high floor(d/2)-bit halves (matrix transpose); "
       "Theta(sqrt(N)) greedy congestion"},
      {"bit_complement",
       "send to the antipodal node; every packet crosses all d dimensions"},
      {"shuffle", "rotate the identity left by one bit (perfect shuffle)"},
      {"tornado",
       "x -> x + 2^(d-1) - 1 (mod 2^d), just under half way around the "
       "node ring"},
      {"random_permutation",
       "uniformly random bijection (Fisher-Yates from the scenario seed); "
       "the O(d)-congestion control case"},
      {"hotspot",
       "round(hotspot_frac * 2^d) lowest sources send to node 0, the rest "
       "to their complement; deterministic but not bijective"},
  };
  for (const auto& [key, text] : summaries) {
    if (key == name) return text;
  }
  throw std::invalid_argument("unknown permutation '" + name + "'");
}

bool Permutation::is_bijective() const {
  std::vector<bool> seen(table_.size(), false);
  for (const NodeId dest : table_) {
    if (dest >= table_.size() || seen[dest]) return false;
    seen[dest] = true;
  }
  return true;
}

double Permutation::mean_distance() const {
  std::uint64_t total = 0;
  for (NodeId x = 0; x < table_.size(); ++x) {
    total += static_cast<std::uint64_t>(hamming_distance(x, table_[x]));
  }
  return static_cast<double>(total) / static_cast<double>(table_.size());
}

std::uint64_t Permutation::max_fan_in() const { return routesim::max_fan_in(table_); }

std::uint64_t max_fan_in(std::span<const NodeId> destination) {
  std::vector<std::uint64_t> fan_in(destination.size(), 0);
  std::uint64_t max = 0;
  for (const NodeId dest : destination) {
    RS_DASSERT(dest < destination.size());
    max = std::max(max, ++fan_in[dest]);
  }
  return max;
}

namespace {

CongestionReport summarize_loads(const std::vector<std::uint64_t>& load) {
  CongestionReport report;
  report.num_arcs = load.size();
  std::uint64_t total = 0;
  for (const std::uint64_t l : load) {
    report.max_load = std::max(report.max_load, l);
    total += l;
    if (l > 0) ++report.arcs_used;
  }
  report.mean_load = load.empty()
                         ? 0.0
                         : static_cast<double>(total) / static_cast<double>(load.size());
  return report;
}

}  // namespace

CongestionReport topology_greedy_congestion(const Topology& topo,
                                            std::span<const NodeId> destination) {
  const Topology::TrafficLayout layout = topo.traffic_layout();
  RS_EXPECTS_MSG(destination.size() == layout.num_sources,
                 "destination table must have one entry per source terminal");
  std::vector<std::uint64_t> load(topo.num_arcs(), 0);
  for (NodeId source = 0; source < layout.num_sources; ++source) {
    NodeId cur = source;
    const NodeId sink = layout.sink_base + destination[source];
    RS_EXPECTS_MSG(destination[source] < layout.num_sources &&
                       topo.metric(cur, sink) >= 0,
                   "destination not a terminal reachable from its source");
    while (cur != sink) {
      const ArcId arc = topo.greedy_next_arc(cur, sink);
      ++load[arc];
      cur = topo.arc_target(arc);
    }
  }
  return summarize_loads(load);
}

std::uint64_t butterfly_bit_reversal_max_congestion(int d) {
  RS_EXPECTS(d >= 1);
  return std::uint64_t{1} << ((d + 1) / 2 - 1);
}

}  // namespace routesim
