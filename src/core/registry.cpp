#include "core/registry.hpp"

#include <algorithm>
#include <utility>

#include "core/equivalence.hpp"
#include "routing/batch_router.hpp"
#include "routing/deflection.hpp"
#include "routing/multicast.hpp"
#include "routing/pipelined_baseline.hpp"
#include "routing/topology_greedy.hpp"
#include "util/assert.hpp"

namespace routesim {

SchemeRegistry& SchemeRegistry::instance() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    // Built-in schemes register themselves next to their simulators.
    register_hypercube_greedy_scheme(*r);
    register_butterfly_greedy_scheme(*r);
    register_network_q_schemes(*r);
    register_pipelined_baseline_scheme(*r);
    register_valiant_mixing_scheme(*r);
    register_deflection_scheme(*r);
    register_batch_greedy_scheme(*r);
    register_multicast_scheme(*r);
    return r;
  }();
  return *registry;
}

namespace {

bool lists(const std::vector<std::string>& column, const std::string& value) {
  return std::ranges::find(column, value) != column.end();
}

std::string joined(const std::vector<std::string>& column) {
  std::string out;
  for (const auto& entry : column) out += out.empty() ? entry : ", " + entry;
  return out;
}

}  // namespace

const std::vector<std::string>& SchemeRegistry::scheme_keys() {
  static const std::vector<std::string> keys{
      "tau",        "buffers",    "fanout",       "unicast_baseline",
      "discipline", "ttl",        "storm_rate",   "storm_radius",
      "storm_duration",           "fault_policy"};
  return keys;
}

void SchemeRegistry::SchemeInfo::check(const Scenario& s) const {
  const auto unsupported = [&](const std::string& what) {
    return ScenarioError("scheme '" + name + "' does not support " + what);
  };
  RS_EXPECTS(!topologies.empty());
  const std::string& family =
      s.topology == "native" ? topologies.front() : s.topology;
  if (!lists(topologies, family)) {
    throw unsupported("topology '" + s.topology +
                      "' (supported: native, " + joined(topologies) + ")");
  }
  const bool generic = s.uses_generic_topology();

  if (s.faults_active()) {
    if (fault_policies.empty() || generic) {
      throw unsupported(
          "fault injection" + (generic ? " on topology=" + family : "") +
          " (clear fault_rate, node_fault_rate, fault_mtbf, fault_mttr, "
          "storm_rate and storm_duration)");
    }
    if ((s.faults.mtbf > 0.0) != (s.faults.mttr > 0.0)) {
      throw ScenarioError(
          "dynamic faults need both fault_mtbf and fault_mttr > 0 (got mtbf=" +
          std::to_string(s.faults.mtbf) + ", mttr=" +
          std::to_string(s.faults.mttr) + ")");
    }
    if ((s.faults.storm_rate > 0.0) != (s.faults.storm_duration > 0.0)) {
      throw ScenarioError(
          "fault storms need both storm_rate and storm_duration > 0 (got "
          "storm_rate=" + fmt_shortest(s.faults.storm_rate) + ", storm_duration=" +
          fmt_shortest(s.faults.storm_duration) + ") — did you mean to also set " +
          (s.faults.storm_rate > 0.0 ? "storm_duration" : "storm_rate") + "?");
    }
    if (!lists(fault_policies, s.fault_policy)) {
      throw unsupported("fault_policy '" + s.fault_policy +
                        "' (supported: " + joined(fault_policies) + ")");
    }
  }

  static const Scenario kDefaults;
  // Each scheme-specific row with its default value, rendered once.
  struct SchemeKeyDefault {
    const ScenarioKey* row;
    std::optional<std::string> fallback;
  };
  static const std::vector<SchemeKeyDefault> kSchemeKeyDefaults = [] {
    std::vector<SchemeKeyDefault> table;
    for (const ScenarioKey& row : Scenario::keys()) {
      if (!lists(scheme_keys(), row.name)) continue;
      table.push_back({&row, row.get(kDefaults)});
    }
    return table;
  }();
  for (const auto& [row, fallback] : kSchemeKeyDefaults) {
    if (lists(keys, row->name)) continue;
    const std::optional<std::string> value = row->get(s);
    if (value == fallback) continue;
    if (row->name == "storm_rate" || row->name == "storm_duration") {
      std::vector<std::string> hosts;
      for (const auto& [host, info] : instance().schemes_) {
        if (lists(info.keys, "storm_rate")) hosts.push_back(host);
      }
      throw unsupported(
          "fault storms (clear storm_rate/storm_duration; storms are "
          "available on " + joined(hosts) + ")");
    }
    throw unsupported(row->name + "=" + value.value_or("") + " (leave " +
                      row->name + " at its default " + fallback.value_or("") +
                      ")");
  }
  if (!s.ring_chords.empty() && family != "ring") {
    throw unsupported("ring_chords=" + s.ring_chords + " on topology=" +
                      family + " (ring_chords is read only on topology=ring)");
  }
  if (s.torus_dims != kDefaults.torus_dims && family != "torus" &&
      family != "mesh") {
    throw unsupported("torus_dims=" + s.torus_dims + " on topology=" + family +
                      " (torus_dims is read only on topology=torus|mesh)");
  }

  if (generic && s.workload != "uniform" &&
      !(s.workload == "permutation" && family == "ring")) {
    throw unsupported("workload '" + s.workload + "' on topology=" + family +
                      " (ring, torus and mesh take workload=uniform, plus "
                      "permutation on the ring, whose 2^d nodes it indexes)");
  }
  if (!lists(workloads, s.workload)) {
    throw unsupported("workload '" + s.workload + "' (supported: " +
                      joined(workloads) + ")");
  }

  if (generic) (void)s.compiled_topology();  // size errors as ScenarioError
}

void SchemeRegistry::add(SchemeInfo info) {
  auto name = info.name;
  schemes_[std::move(name)] = std::move(info);
}

const SchemeRegistry::SchemeInfo* SchemeRegistry::find(
    const std::string& name) const {
  const auto it = schemes_.find(name);
  return it == schemes_.end() ? nullptr : &it->second;
}

const SchemeRegistry::SchemeInfo& SchemeRegistry::check(
    const Scenario& s) const {
  const SchemeInfo* info = find(s.scheme);
  if (info == nullptr) {
    throw ScenarioError("unknown scheme '" + s.scheme + "' (known: " +
                        joined(names()) + ")");
  }
  info->check(s);
  return *info;
}

std::vector<std::string> SchemeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(schemes_.size());
  for (const auto& [name, info] : schemes_) out.push_back(name);
  return out;
}

}  // namespace routesim
