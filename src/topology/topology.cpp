#include "topology/topology.hpp"

#include <algorithm>
#include <stdexcept>

#include "topology/ring.hpp"
#include "topology/torus.hpp"
#include "util/assert.hpp"

namespace routesim {

namespace {

[[noreturn]] void unknown_topology(const std::string& name) {
  std::string known;
  for (const std::string& candidate : topology_names()) {
    known += known.empty() ? candidate : ", " + candidate;
  }
  throw std::invalid_argument("unknown topology '" + name +
                              "' (known: " + known + ")");
}

}  // namespace

const std::vector<std::string>& topology_names() {
  static const std::vector<std::string> kNames = {"hypercube", "butterfly",
                                                  "ring", "torus", "mesh"};
  return kNames;
}

const std::string& topology_summary(const std::string& name) {
  static const std::vector<std::string> kSummaries = {
      "the paper's d-cube: 2^d nodes, d*2^d arcs, greedy crosses required "
      "dimensions lowest-first",
      "the unfolded d-cube: (d+1) levels of 2^d rows; packets descend "
      "levels (a DAG, so metric() is partial)",
      "2^d nodes on a bidirectional cycle; ring_chords= adds symmetric "
      "chord strides or the papillon doubling ladder",
      "k-ary torus from torus_dims= (2 or 3 wrapped dimensions); "
      "dimension-ordered greedy takes the shorter way around",
      "torus_dims= grid without wraparound; dimension-ordered greedy "
      "moves straight toward the destination"};
  const std::vector<std::string>& names = topology_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return kSummaries[i];
    }
  }
  unknown_topology(name);
}

std::unique_ptr<const Topology> make_topology(const TopologySpec& spec) {
  if (spec.name == "hypercube" || spec.name == "butterfly") {
    if (spec.d < kMinDimension || spec.d > kMaxDimension) {
      throw std::invalid_argument(
          "topology=" + spec.name + " needs d in [" +
          std::to_string(kMinDimension) + ", " + std::to_string(kMaxDimension) +
          "], got d=" + std::to_string(spec.d));
    }
    if (spec.name == "hypercube") {
      return std::make_unique<HypercubeTopology>(spec.d);
    }
    return std::make_unique<ButterflyTopology>(spec.d);
  }
  if (spec.name == "ring") {
    return std::make_unique<RingTopology>(
        spec.d, parse_ring_chords(spec.ring_chords, spec.d));
  }
  if (spec.name == "torus" || spec.name == "mesh") {
    return std::make_unique<TorusTopology>(parse_torus_dims(spec.torus_dims),
                                           /*wrap=*/spec.name == "torus");
  }
  unknown_topology(spec.name);
}

}  // namespace routesim
