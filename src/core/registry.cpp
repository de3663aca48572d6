#include "core/registry.hpp"

#include <utility>

#include "core/equivalence.hpp"
#include "routing/batch_router.hpp"
#include "routing/deflection.hpp"
#include "routing/multicast.hpp"
#include "routing/pipelined_baseline.hpp"
#include "routing/topology_greedy.hpp"

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

void SchemeRegistry::add(SchemeInfo info) {
  auto name = info.name;
  schemes_[std::move(name)] = std::move(info);
}

const SchemeRegistry::SchemeInfo* SchemeRegistry::find(
    const std::string& name) const {
  const auto it = schemes_.find(name);
  return it == schemes_.end() ? nullptr : &it->second;
}

std::vector<std::string> SchemeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(schemes_.size());
  for (const auto& [name, info] : schemes_) out.push_back(name);
  return out;
}

}  // namespace routesim
