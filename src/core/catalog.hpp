#pragma once
/// \file catalog.hpp
/// \brief The self-describing scenario catalog: every scheme, `--set` key,
///        workload, permutation family, fault policy and sweep key, with
///        one-line documentation, assembled *from the live registry* so
///        generated docs can never drift from the code.
///
/// Three renderers share one data source:
///   - `routesim_bench --list` prints the human-readable form;
///   - `routesim_bench --list --json PATH` writes catalog_json();
///   - `tools/gen_docs` writes catalog_markdown() to
///     docs/SCENARIO_REFERENCE.md (the CI docs job and
///     tests/test_catalog.cpp fail when the committed copy differs).
///
/// The `--set` and sweep-key sections are the Scenario::keys() table
/// itself, so a key cannot exist without its documentation; the capability
/// matrix is the registry's SchemeInfo columns, the data the engine checks
/// scenarios against.

#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace routesim {

/// One documented name (a scheme, workload, permutation or policy).
struct CatalogEntry {
  std::string name;
  std::string summary;  ///< one line, no trailing period required
};

/// One scheme's row of the capability matrix: SchemeInfo's topologies,
/// workloads, fault_policies and keys columns, in kCapabilityColumns order.
struct CapabilityRow {
  std::string scheme;
  std::vector<std::vector<std::string>> columns;
};

inline constexpr const char* kCapabilityColumns[] = {
    "topologies", "workloads", "fault_policies", "keys"};

/// The full catalog; see scenario_catalog().
struct ScenarioCatalog {
  std::vector<CatalogEntry> schemes;         ///< from SchemeRegistry (live)
  std::vector<CapabilityRow> capabilities;   ///< one row per scheme (live)
  std::vector<ScenarioKey> set_keys;         ///< Scenario::keys(), in order
  std::vector<CatalogEntry> topologies;      ///< topology= values (live)
  std::vector<CatalogEntry> workloads;       ///< workload= values
  std::vector<CatalogEntry> permutations;    ///< permutation= values (live)
  std::vector<CatalogEntry> fault_policies;  ///< fault_policy= values
  std::vector<std::string> sweep_keys;       ///< names of the sweepable set_keys
  std::vector<CatalogEntry> cli_flags;       ///< routesim_bench flags
  std::vector<CatalogEntry> serve_flags;     ///< routesim_serve daemon flags
};

/// Assembles the catalog from the live registry, Scenario::keys() and
/// Permutation::names().
[[nodiscard]] ScenarioCatalog scenario_catalog();

/// The catalog as a JSON document (schemes/keys/workloads/permutations/
/// fault_policies/sweep_keys arrays of {name, ...} objects).
[[nodiscard]] std::string catalog_json(const ScenarioCatalog& catalog);

/// The catalog as the Markdown scenario reference
/// (docs/SCENARIO_REFERENCE.md) — regenerate with tools/gen_docs.
[[nodiscard]] std::string catalog_markdown(const ScenarioCatalog& catalog);

/// The human-readable --list text.
[[nodiscard]] std::string catalog_text(const ScenarioCatalog& catalog);

}  // namespace routesim
