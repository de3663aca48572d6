// Scenario-catalog tests: the catalog must cover the live registry and key
// list exactly, render to valid JSON/Markdown, and the committed
// docs/SCENARIO_REFERENCE.md must match the generated text byte for byte
// (the same drift guard the CI docs job applies via tools/gen_docs).

#include "core/catalog.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "topology/topology.hpp"
#include "workload/permutation.hpp"

namespace routesim {
namespace {

TEST(Catalog, CoversRegistryAndKeysExactly) {
  const ScenarioCatalog catalog = scenario_catalog();

  const auto names = SchemeRegistry::instance().names();
  ASSERT_EQ(catalog.schemes.size(), names.size());
  ASSERT_EQ(catalog.capabilities.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(catalog.schemes[i].name, names[i]);
    EXPECT_FALSE(catalog.schemes[i].summary.empty());
    const auto& info = *SchemeRegistry::instance().find(names[i]);
    const CapabilityRow& row = catalog.capabilities[i];
    EXPECT_EQ(row.scheme, names[i]);
    ASSERT_EQ(row.columns.size(), std::size(kCapabilityColumns));
    EXPECT_EQ(row.columns[0], info.topologies);
    EXPECT_EQ(row.columns[1], info.workloads);
    EXPECT_EQ(row.columns[2], info.fault_policies);
    EXPECT_EQ(row.columns[3], info.keys);
  }

  const auto& keys = Scenario::keys();
  ASSERT_EQ(catalog.set_keys.size(), keys.size());
  std::vector<std::string> sweepable;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(catalog.set_keys[i].name, keys[i].name);
    EXPECT_EQ(catalog.set_keys[i].doc, keys[i].doc);
    if (keys[i].sweepable) sweepable.push_back(keys[i].name);
  }
  EXPECT_EQ(catalog.sweep_keys, sweepable);

  ASSERT_EQ(catalog.permutations.size(), Permutation::names().size());
  for (std::size_t i = 0; i < catalog.permutations.size(); ++i) {
    EXPECT_EQ(catalog.permutations[i].name, Permutation::names()[i]);
  }

  ASSERT_EQ(catalog.topologies.size(), topology_names().size());
  for (std::size_t i = 0; i < catalog.topologies.size(); ++i) {
    EXPECT_EQ(catalog.topologies[i].name, topology_names()[i]);
    EXPECT_FALSE(catalog.topologies[i].summary.empty());
  }

  // Every documented workload parses: set(workload, ...) accepts anything,
  // so the real check is that make_destinations()/permutation_table() knows
  // each name (trace and permutation excepted from the law check).
  std::set<std::string> workloads;
  for (const auto& workload : catalog.workloads) workloads.insert(workload.name);
  EXPECT_EQ(workloads, (std::set<std::string>{"bit_flip", "uniform", "general",
                                              "trace", "permutation"}));
}

TEST(Catalog, RenderersEmitAllSections) {
  const ScenarioCatalog catalog = scenario_catalog();

  const std::string json = catalog_json(catalog);
  for (const auto* needle :
       {"\"schemes\"", "\"capabilities\"", "\"set_keys\"", "\"topologies\"", "\"workloads\"",
        "\"permutations\"",
        "\"fault_policies\"", "\"sweep_keys\"", "\"cli_flags\"",
        "\"hypercube_greedy\"", "\"bit_reversal\"", "\"hotspot_frac\"",
        "\"ring_chords\"", "\"torus_dims\"",
        "\"--grid key=a:b[:s]\"", "\"--jsonl PATH\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  const std::string markdown = catalog_markdown(catalog);
  for (const auto* needle :
       {"# Scenario reference", "## Schemes", "## Capability matrix",
       "## `--set` keys",
        "## Topologies", "## Workloads", "## Permutation families",
        "## Fault policies",
        "## Sweep keys", "## Campaign CLI", "`valiant_mixing`",
        "`random_permutation`", "`--grid key=a:b[:s]`", "`--cells`"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos) << needle;
  }

  const std::string text = catalog_text(catalog);
  EXPECT_NE(text.find("registered schemes:"), std::string::npos);
  EXPECT_NE(text.find("capability matrix"), std::string::npos);
  EXPECT_NE(text.find("permutation families"), std::string::npos);
  EXPECT_NE(text.find("routesim_bench flags:"), std::string::npos);
  EXPECT_FALSE(catalog.cli_flags.empty());
}

TEST(Catalog, CommittedScenarioReferenceMatchesGenerated) {
#ifndef ROUTESIM_SOURCE_DIR
  GTEST_SKIP() << "ROUTESIM_SOURCE_DIR not defined";
#else
  const std::string path =
      std::string(ROUTESIM_SOURCE_DIR) + "/docs/SCENARIO_REFERENCE.md";
  std::ifstream file(path);
  ASSERT_TRUE(file) << "missing " << path;
  std::ostringstream committed;
  committed << file.rdbuf();
  EXPECT_EQ(committed.str(), catalog_markdown(scenario_catalog()))
      << "docs/SCENARIO_REFERENCE.md drifted from the registry — regenerate "
         "with build/tools/tool_gen_docs docs/SCENARIO_REFERENCE.md";
#endif
}

}  // namespace
}  // namespace routesim
