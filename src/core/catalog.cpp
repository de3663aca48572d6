#include "core/catalog.hpp"

#include <iterator>
#include <sstream>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "topology/topology.hpp"
#include "util/json.hpp"
#include "workload/permutation.hpp"

namespace routesim {

namespace {

const std::vector<CatalogEntry>& workload_docs() {
  static const std::vector<CatalogEntry> workloads{
      {"bit_flip",
       "law (1) with parameter p: each identity bit of the origin flips "
       "independently with probability p"},
      {"uniform", "uniform destinations over all 2^d nodes (p = 1/2)"},
      {"general",
       "arbitrary translation-invariant law P[dest = origin XOR y] = "
       "mask_pmf[y]"},
      {"trace",
       "equal-seed scenarios regenerate the identical packet trace — the "
       "coupled scheme-comparison workload; with trace_file= an external "
       "recorded JSONL trace is replayed verbatim instead"},
      {"permutation",
       "adversarial deterministic per-source destinations pi(x) (see the "
       "permutation table); greedy has no averaging to hide behind"},
  };
  return workloads;
}

/// The routesim_bench CLI surface, one line per flag.  Unlike set_keys and
/// sweep_keys (sourced from the live key table), this table is maintained by
/// hand: keep it in sync with the argument parser in
/// bench/routesim_bench.cpp when adding or renaming a flag.
const std::vector<CatalogEntry>& cli_flag_docs() {
  static const std::vector<CatalogEntry> flags{
      {"--scenario SCHEME", "the base scenario: any registered scheme name"},
      {"--set key=value",
       "apply one scenario setting to the base (repeatable; see the --set "
       "key table)"},
      {"--grid key=a:b[:s]",
       "one campaign axis (repeatable); all axes cross-multiply into a "
       "cell grid run on the shared scheduler"},
      {"--sweep key=a:b[:s]",
       "alias of --grid, kept for the historic one-axis sweep form"},
      {"--cells",
       "preview the campaign (index, label, scenario per cell) without "
       "running it"},
      {"--jsonl PATH",
       "stream one JSON line per finished cell (incremental results for "
       "long campaigns); fsync'd per record, so a killed run leaves a "
       "valid --resume prefix"},
      {"--append", "open the --jsonl stream in append mode instead of truncating"},
      {"--store PATH",
       "durable result store (JSONL): finished cells are appended + "
       "fsync'd, already-stored cells are served without recomputation, "
       "and SIGINT/SIGTERM checkpoint the campaign for a later rerun"},
      {"--resume PATH",
       "replay a prior --jsonl stream or store file into the in-process "
       "cache before scheduling, so finished cells never recompute"},
      {"--trace PATH",
       "record the run as Chrome trace-event JSON (campaign, replication "
       "and kernel spans; load in Perfetto) — written on normal exit and "
       "after a SIGINT checkpoint; never changes results "
       "(docs/OBSERVABILITY.md)"},
      {"--record-trace PATH",
       "write the base scenario's replication-0 packet trace as JSONL "
       "(the trace_file= format) and exit without simulating; captures "
       "any sampled workload for later workload=trace replay"},
      {"--progress",
       "rate-limited stderr heartbeat for long campaigns: cells "
       "done/total, worker utilization, ETA from completed-cell wall "
       "times; active only when stderr is a TTY (--progress=force: "
       "always, one line per beat)"},
      {"--json PATH", "write the final table + acceptance checks as JSON"},
      {"--list", "print this catalog (--list --json PATH: machine-readable)"},
  };
  return flags;
}

/// The routesim_serve daemon CLI surface (tools/routesim_serve.cpp) —
/// hand-maintained like cli_flag_docs; docs/SERVE.md documents the wire
/// protocol itself.
const std::vector<CatalogEntry>& serve_flag_docs() {
  static const std::vector<CatalogEntry> flags{
      {"--store PATH",
       "persistent result store shared with routesim_bench --store; "
       "answers survive daemon restarts"},
      {"--socket PATH", "serve a Unix-domain socket instead of stdin/stdout"},
      {"--port N",
       "serve TCP on 127.0.0.1:N (0 = pick a free port, printed on stderr)"},
      {"--threads N", "engine worker-pool width per computation (0 = auto)"},
      {"--compact",
       "fold duplicate store records (append-only history) before serving"},
  };
  return flags;
}

const std::vector<CatalogEntry>& fault_policy_docs() {
  static const std::vector<CatalogEntry> policies{
      {"drop", "lose packets whose next arc is dead (all fault-aware schemes)"},
      {"skip_dim",
       "hypercube family: the first live metric-descending out-arc (a "
       "surviving unresolved dimension), else a random live "
       "non-descending detour; TTL-bounded"},
      {"deflect", "hypercube family: uniformly random live out-arc"},
      {"twin_detour",
       "butterfly: cross the level on its other arc; the packet exits "
       "misrouted (counted as a fault drop)"},
      {"adaptive",
       "hypercube family: one-hop lookahead over live metric-descending "
       "out-arcs, preferring one whose head has a live descending "
       "continuation; else skip_dim's detour; TTL-bounded"},
  };
  return policies;
}

}  // namespace

ScenarioCatalog scenario_catalog() {
  ScenarioCatalog catalog;

  const auto& registry = SchemeRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto& info = *registry.find(name);
    catalog.schemes.push_back({name, info.summary});
    catalog.capabilities.push_back(
        {name,
         {info.topologies, info.workloads, info.fault_policies,
          info.keys}});
  }

  catalog.set_keys = Scenario::keys();
  for (const ScenarioKey& key : catalog.set_keys) {
    if (key.sweepable) catalog.sweep_keys.push_back(key.name);
  }

  for (const auto& name : topology_names()) {
    catalog.topologies.push_back({name, topology_summary(name)});
  }
  catalog.workloads = workload_docs();
  for (const auto& name : Permutation::names()) {
    catalog.permutations.push_back({name, Permutation::summary(name)});
  }
  catalog.fault_policies = fault_policy_docs();
  catalog.cli_flags = cli_flag_docs();
  catalog.serve_flags = serve_flag_docs();
  return catalog;
}

namespace {

/// "a, b, c", or "—" for an empty column.
std::string listed(const std::vector<std::string>& column) {
  std::string out;
  for (const auto& entry : column) out += out.empty() ? entry : ", " + entry;
  return out.empty() ? "—" : out;
}

void json_entries(std::ostringstream& os, const char* section,
                  const std::vector<CatalogEntry>& entries) {
  os << "  \"" << section << "\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \""
       << json_escape(entries[i].name) << "\", \"summary\": \""
       << json_escape(entries[i].summary) << "\"}";
  }
  os << (entries.empty() ? "]" : "\n  ]");
}

}  // namespace

std::string catalog_json(const ScenarioCatalog& catalog) {
  std::ostringstream os;
  os << "{\n";
  json_entries(os, "schemes", catalog.schemes);
  os << ",\n  \"capabilities\": [";
  for (std::size_t i = 0; i < catalog.capabilities.size(); ++i) {
    const CapabilityRow& row = catalog.capabilities[i];
    os << (i == 0 ? "" : ",") << "\n    {\"scheme\": \"" << json_escape(row.scheme)
       << '"';
    for (std::size_t c = 0; c < row.columns.size(); ++c) {
      os << ", \"" << kCapabilityColumns[c] << "\": [";
      for (std::size_t v = 0; v < row.columns[c].size(); ++v) {
        os << (v == 0 ? "\"" : ", \"") << json_escape(row.columns[c][v]) << '"';
      }
      os << ']';
    }
    os << '}';
  }
  os << "\n  ],\n  \"set_keys\": [";
  for (std::size_t i = 0; i < catalog.set_keys.size(); ++i) {
    const ScenarioKey& key = catalog.set_keys[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << json_escape(key.name)
       << "\", \"type\": \"" << json_escape(key.type) << "\", \"doc\": \""
       << json_escape(key.doc) << "\"}";
  }
  os << "\n  ],\n";
  json_entries(os, "topologies", catalog.topologies);
  os << ",\n";
  json_entries(os, "workloads", catalog.workloads);
  os << ",\n";
  json_entries(os, "permutations", catalog.permutations);
  os << ",\n";
  json_entries(os, "fault_policies", catalog.fault_policies);
  os << ",\n  \"sweep_keys\": [";
  for (std::size_t i = 0; i < catalog.sweep_keys.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << json_escape(catalog.sweep_keys[i])
       << '"';
  }
  os << "],\n";
  json_entries(os, "cli_flags", catalog.cli_flags);
  os << ",\n";
  json_entries(os, "serve_flags", catalog.serve_flags);
  os << "\n}\n";
  return os.str();
}

namespace {

/// Escapes '|' so free-text cells cannot break the table syntax.
std::string md_cell(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '|') out += '\\';
    out += c;
  }
  return out;
}

void markdown_table(std::ostringstream& os, const char* left,
                    const std::vector<CatalogEntry>& entries) {
  os << "| " << left << " | description |\n|---|---|\n";
  for (const auto& entry : entries) {
    os << "| `" << entry.name << "` | " << md_cell(entry.summary) << " |\n";
  }
  os << '\n';
}

}  // namespace

std::string catalog_markdown(const ScenarioCatalog& catalog) {
  std::ostringstream os;
  os << "# Scenario reference\n\n"
        "<!-- GENERATED FILE — do not edit by hand.\n"
        "     Regenerate with: build/tools/tool_gen_docs "
        "docs/SCENARIO_REFERENCE.md\n"
        "     CI and tests/test_catalog.cpp fail when this file drifts from\n"
        "     the registry (src/core/catalog.cpp). -->\n\n"
        "Every experiment is a `routesim::Scenario`: a scheme name plus\n"
        "`key=value` settings, runnable from C++ (`routesim::run`) or the\n"
        "CLI (`routesim_bench --scenario SCHEME --set key=value ...`).\n"
        "This catalog is generated from the live `SchemeRegistry` and\n"
        "the `Scenario::keys()` table.\n\n";

  os << "## Schemes\n\n";
  markdown_table(os, "scheme", catalog.schemes);

  os << "## Capability matrix\n\n"
        "What each scheme accepts.  The engine checks every scenario against\n"
        "its scheme's row before compiling it, and rejects anything else\n"
        "with a `ScenarioError` naming the key and the scheme.\n"
        "`topology=native` is the first family listed.  Fault policies\n"
        "apply under active faults; none listed means no fault support.\n"
        "`keys` are the scheme-specific keys the scheme reads, out of\n"
        "`" << listed(SchemeRegistry::scheme_keys()) << "`;\n"
        "every other one must stay at its default.  On top of the rows:\n"
        "ring, torus and mesh take `workload=uniform` (plus `permutation` on\n"
        "the ring) and no faults; `ring_chords` is read only on the ring\n"
        "and `torus_dims` only on the torus and the mesh.\n\n"
        "| scheme |";
  for (const char* column : kCapabilityColumns) os << ' ' << column << " |";
  os << "\n|---|";
  for (std::size_t c = 0; c < std::size(kCapabilityColumns); ++c) os << "---|";
  os << '\n';
  for (const CapabilityRow& row : catalog.capabilities) {
    os << "| `" << row.scheme << "` |";
    for (const auto& column : row.columns) os << ' ' << listed(column) << " |";
    os << '\n';
  }
  os << '\n';

  os << "## `--set` keys\n\n| key | type | description |\n|---|---|---|\n";
  for (const auto& key : catalog.set_keys) {
    os << "| `" << key.name << "` | " << key.type << " | " << md_cell(key.doc)
       << " |\n";
  }
  os << '\n';

  os << "## Topologies (`topology=`)\n\n"
        "The capability matrix lists the families each scheme runs;\n"
        "`topology=native` (the default) means the scheme's own network.\n"
        "See docs/TOPOLOGIES.md for the concept contract and closed forms.\n\n";
  markdown_table(os, "topology", catalog.topologies);

  os << "## Workloads (`workload=`)\n\n";
  markdown_table(os, "workload", catalog.workloads);

  os << "## Permutation families (`permutation=`, with "
        "`workload=permutation`)\n\n";
  markdown_table(os, "permutation", catalog.permutations);

  os << "## Fault policies (`fault_policy=`)\n\n";
  markdown_table(os, "policy", catalog.fault_policies);

  os << "## Sweep keys (`--grid` / `--sweep key=start:stop[:step]`)\n\n";
  for (std::size_t i = 0; i < catalog.sweep_keys.size(); ++i) {
    os << (i == 0 ? "`" : ", `") << catalog.sweep_keys[i] << '`';
  }
  os << "\n\n";

  os << "## Campaign CLI (`routesim_bench`)\n\n"
        "Repeatable `--grid` axes cross-multiply into a cell grid — a\n"
        "`routesim::Campaign` — whose replications are scheduled onto one\n"
        "shared worker pool (see docs/CAMPAIGNS.md for the C++ API).\n\n";
  markdown_table(os, "flag", catalog.cli_flags);

  os << "## Service daemon (`routesim_serve`)\n\n"
        "The long-running scenario-answering daemon: line-delimited JSON\n"
        "over stdio, a Unix socket, or loopback TCP, answering from the\n"
        "persistent store when it can and scheduling engine runs when it\n"
        "cannot (see docs/SERVE.md for the protocol and the store format).\n\n";
  markdown_table(os, "flag", catalog.serve_flags);
  return os.str();
}

std::string catalog_text(const ScenarioCatalog& catalog) {
  std::ostringstream os;
  os << "registered schemes:\n";
  for (const auto& scheme : catalog.schemes) {
    os << "  " << scheme.name << "\n      " << scheme.summary << '\n';
  }
  os << "\ncapability matrix (anything else is a ScenarioError; "
        "topology=native is the first family):\n";
  for (const CapabilityRow& row : catalog.capabilities) {
    os << "  " << row.scheme << '\n';
    for (std::size_t c = 0; c < row.columns.size(); ++c) {
      os << "      " << kCapabilityColumns[c] << ": " << listed(row.columns[c])
         << '\n';
    }
  }
  os << "\nrecognized --set keys:\n";
  for (const auto& key : catalog.set_keys) {
    os << "  " << key.name << " (" << key.type << "): " << key.doc << '\n';
  }
  os << "\ntopologies (topology=..., default native):\n";
  for (const auto& topology : catalog.topologies) {
    os << "  " << topology.name << ": " << topology.summary << '\n';
  }
  os << "\nworkloads:\n";
  for (const auto& workload : catalog.workloads) {
    os << "  " << workload.name << ": " << workload.summary << '\n';
  }
  os << "\npermutation families (workload=permutation, permutation=...):\n";
  for (const auto& perm : catalog.permutations) {
    os << "  " << perm.name << ": " << perm.summary << '\n';
  }
  os << "\nfault policies (fault_policy=..., active when fault_rate,\n"
        "node_fault_rate, fault_mtbf/fault_mttr or storm_rate is set):\n";
  for (const auto& policy : catalog.fault_policies) {
    os << "  " << policy.name << ": " << policy.summary << '\n';
  }
  os << "\nsweep keys (--grid / --sweep):";
  for (const auto& key : catalog.sweep_keys) os << ' ' << key;
  os << '\n';
  os << "\nroutesim_bench flags:\n";
  for (const auto& flag : catalog.cli_flags) {
    os << "  " << flag.name << ": " << flag.summary << '\n';
  }
  os << "\nroutesim_serve flags (daemon; protocol in docs/SERVE.md):\n";
  for (const auto& flag : catalog.serve_flags) {
    os << "  " << flag.name << ": " << flag.summary << '\n';
  }
  return os.str();
}

}  // namespace routesim
