// routesim_bench — the generic scenario runner: any registered scheme, any
// parameter point, sweep, or multi-axis campaign grid, straight from the
// command line.
//
//   routesim_bench --list
//   routesim_bench --list --json catalog.json   (machine-readable catalog)
//   routesim_bench --scenario hypercube_greedy --set d=8 --set rho=0.6
//   routesim_bench --scenario hypercube_greedy --sweep rho=0.1:0.9 --json out.json
//   routesim_bench --scenario hypercube_greedy
//       --grid rho=0.2:0.8:0.2 --grid d=4:8:2 --jsonl out.jsonl
//   routesim_bench --scenario hypercube_greedy --grid d=4:8:2 --cells
//   routesim_bench --scenario hypercube_greedy --grid d=4:8:2 --store results.jsonl
//
// Repeatable --grid (and --sweep, its one-axis alias) axes cross-multiply
// into a routesim::Campaign whose replications are scheduled onto one
// shared worker pool (core/campaign.hpp); --cells previews the grid
// without running it, and --jsonl streams one JSON line per finished cell.
// Every row is one cell: simulated delay with a 95% CI between the
// paper's bounds (when the scheme has them), throughput, the Little's-law
// self check, and any scheme-specific extra metrics.  Exit code 0 iff the
// standard acceptance checks (bracket containment + Little consistency)
// pass for every row.
//
// Production mode (docs/SERVE.md): --store PATH keeps a durable result
// store — every finished cell is appended + fsync'd, and cells already in
// the store are served without recomputation, so rerunning an interrupted
// campaign *resumes* it.  SIGINT/SIGTERM stop admitting replications,
// drain in-flight work, flush the store, and exit 130 with a
// "N cells checkpointed" report.  --resume PATH replays a prior --jsonl
// stream (or store file) into the in-process cache for the same effect
// without a writable store.
//
// Observability (docs/OBSERVABILITY.md): --trace PATH records the run as
// Chrome trace-event JSON (campaign/replication/kernel spans; load in
// Perfetto), written on normal exit *and* after a SIGINT checkpoint.
// --progress prints a rate-limited stderr heartbeat (cells done/total,
// worker utilization, ETA) when stderr is a TTY; --progress=force prints
// it unconditionally, one line per beat.  Neither perturbs results.

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/driver.hpp"
#include "common/table.hpp"
#include "core/campaign.hpp"
#include "core/catalog.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "store/result_store.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace {

/// Set by SIGINT/SIGTERM; the engine's workers poll it between
/// replications (EngineOptions::stop), so a signal checkpoints instead of
/// killing jthreads mid-cell.
std::atomic<bool> g_stop_requested{false};

extern "C" void handle_stop_signal(int) { g_stop_requested.store(true); }

/// --list: the full scheme/key/workload/permutation/policy/CLI catalog,
/// assembled live from the registry (core/catalog.hpp).  With --json PATH
/// the same catalog is written as JSON (the input of tools/gen_docs).
int list_schemes(int argc, char** argv) {
  const routesim::ScenarioCatalog catalog = routesim::scenario_catalog();
  const std::string json_path = benchtab::json_path_from_args(argc, argv);
  if (!json_path.empty()) {
    // Atomic whole-file replacement: a kill mid-write must never leave a
    // half catalog that still parses.
    if (!routesim::write_file_atomic(json_path, routesim::catalog_json(catalog))) {
      std::cerr << "cannot write catalog JSON to " << json_path << '\n';
      return 1;
    }
    std::cout << "catalog JSON written to " << json_path << '\n';
    return 0;
  }
  std::cout << routesim::catalog_text(catalog);
  return 0;
}

int usage(const char* argv0) {
  std::cout
      << "usage: " << argv0
      << " --scenario SCHEME [--set key=value ...]\n"
         "       [--grid key=a:b[:step] ...] [--sweep key=a:b[:step] ...]\n"
         "       [--cells] [--jsonl PATH [--append]] [--json PATH]\n"
         "       [--store PATH] [--resume PATH] [--trace PATH]\n"
         "       [--record-trace PATH] [--progress[=force]] [--list]\n\n"
         // Key names come straight from the key table --list documents,
         // so --help cannot drift from it.
         "keys:";
  for (const auto& key : routesim::Scenario::keys()) std::cout << ' ' << key.name;
  std::cout << "\ngrid/sweep keys:";
  for (const auto& key : routesim::Scenario::keys()) {
    if (key.sweepable) std::cout << ' ' << key.name;
  }
  std::cout << "\nrepeatable --grid axes cross-multiply into a campaign grid\n"
               "run on one shared worker pool; --cells previews it, --jsonl\n"
               "streams one JSON line per finished cell (--append keeps an\n"
               "existing stream).  --store PATH makes results durable and\n"
               "reruns resume instead of recompute; SIGINT checkpoints.\n"
               "--resume PATH replays a prior --jsonl/store file.\n"
               "--trace PATH records Chrome trace-event JSON (Perfetto);\n"
               "--progress prints a stderr heartbeat (TTY only; =force\n"
               "always).  Neither changes results.\n"
               "--record-trace PATH writes the base scenario's\n"
               "replication-0 packet trace as JSONL (the trace_file=\n"
               "format) and exits without simulating.\n"
               "(per-key docs, workloads, permutation families and fault\n"
               "policies: --list)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheme;
  std::vector<std::string> settings;
  std::vector<std::string> axis_texts;
  std::string jsonl_path;
  std::string store_path;
  std::string resume_path;
  std::string trace_path;
  std::string record_trace_path;
  bool append_jsonl = false;
  bool preview_cells = false;
  bool progress_requested = false;
  bool progress_forced = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") return list_schemes(argc, argv);
    if (arg == "--help" || arg == "-h") return usage(argv[0]);
    if (arg == "--scenario" && i + 1 < argc) {
      scheme = argv[++i];
    } else if (arg == "--set" && i + 1 < argc) {
      settings.emplace_back(argv[++i]);
    } else if ((arg == "--grid" || arg == "--sweep") && i + 1 < argc) {
      axis_texts.emplace_back(argv[++i]);
    } else if (arg == "--jsonl" && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--record-trace" && i + 1 < argc) {
      record_trace_path = argv[++i];
    } else if (arg == "--progress") {
      progress_requested = true;
    } else if (arg == "--progress=force") {
      progress_requested = true;
      progress_forced = true;
    } else if (arg == "--append") {
      append_jsonl = true;
    } else if (arg == "--cells") {
      preview_cells = true;
    } else if (arg == "--json" && i + 1 < argc) {
      ++i;  // consumed by Suite::finish
    } else if (arg.rfind("--json=", 0) == 0) {
      // consumed by Suite::finish
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0]);
    }
  }
  if (scheme.empty()) {
    std::cerr << "missing --scenario SCHEME (try --list)\n";
    return usage(argv[0]);
  }

  try {
    std::vector<std::string> scenario_args{scheme};
    scenario_args.insert(scenario_args.end(), settings.begin(), settings.end());
    const routesim::Scenario base = routesim::Scenario::parse(scenario_args);

    if (!record_trace_path.empty()) {
      // Record, don't simulate: write the packet stream replication 0 of
      // this scenario would consume, in the trace_file= JSONL format.  A
      // trace recorded from workload=trace replays bit-identically under
      // workload=trace trace_file=PATH (pinned by test_kernel_parity).
      const routesim::Scenario rec = base.resolved();
      const routesim::Window window = rec.resolved_window();
      const std::uint64_t seed0 = routesim::derive_stream(rec.plan.base_seed, 0);
      routesim::PacketTrace trace;
      if (rec.workload == "permutation") {
        trace = routesim::generate_fixed_destination_trace(
            rec.d, rec.lambda, rec.permutation_table(), window.horizon, seed0);
      } else {
        trace = routesim::generate_hypercube_trace(
            rec.d, rec.lambda, rec.make_destinations(), window.horizon, seed0);
      }
      routesim::save_trace_jsonl(trace, record_trace_path);
      std::cout << "recorded " << trace.size() << " packets (d=" << rec.d
                << ", horizon=" << window.horizon << ") to "
                << record_trace_path << '\n';
      return 0;
    }

    std::vector<routesim::SweepSpec> axes;
    axes.reserve(axis_texts.size());
    for (const auto& text : axis_texts) {
      axes.push_back(routesim::SweepSpec::parse(text));
    }
    routesim::Campaign campaign("routesim_bench");
    campaign.grid(base, axes);  // no axes => the single base cell

    if (preview_cells) {
      for (const auto& cell : campaign.cells()) {
        std::cout << "cell " << (&cell - campaign.cells().data()) << ": "
                  << cell.label << " — "
                  << cell.scenario.resolved().to_string() << '\n';
      }
      std::cout << campaign.size() << " cells\n";
      return 0;
    }

    // Production wiring, all before the first shared_engine() use (the
    // engine snapshots its options once): durable store, stop token for
    // SIGINT/SIGTERM checkpointing, and any --resume replay.
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    benchdrive::attach_stop(&g_stop_requested);

    std::unique_ptr<routesim::obs::TraceSession> trace;
    if (!trace_path.empty()) {
      trace = std::make_unique<routesim::obs::TraceSession>();
      benchdrive::attach_trace(trace.get());
    }
    // Exported once the campaign quiesced — after a SIGINT checkpoint too,
    // so an interrupted run still leaves a loadable trace.
    const auto write_trace = [&]() -> bool {
      if (trace == nullptr) return true;
      if (!trace->write_file(trace_path)) {
        std::cerr << "cannot write trace to " << trace_path << '\n';
        return false;
      }
      std::cout << "trace written to " << trace_path << " ("
                << trace->event_count() << " events)\n";
      return true;
    };

    std::unique_ptr<routesim::ResultStore> store;
    if (!store_path.empty()) {
      store = std::make_unique<routesim::ResultStore>(store_path);
      if (!store->ok()) {
        std::cerr << "error: " << store->error() << '\n';
        return 1;
      }
      benchdrive::attach_store(store.get());
      if (store->size() > 0) {
        std::cout << "store '" << store_path << "': " << store->size()
                  << " finished cells on disk will be reused\n";
      }
    }
    if (!resume_path.empty()) {
      {
        std::ifstream probe(resume_path);
        if (!probe) {
          std::cerr << "error: cannot read --resume file " << resume_path
                    << '\n';
          return 1;
        }
      }
      // Replay a prior run's --jsonl stream (or a store file) into the
      // in-process cache; cells it covers are served without recomputing.
      routesim::ResultCache* cache = benchdrive::shared_engine().options().cache;
      const std::size_t replayed = routesim::replay_results(
          resume_path, [&](const std::string& key, const routesim::Scenario&,
                           const routesim::RunResult& result) {
            cache->insert(key, result);
          });
      std::cout << "resumed " << replayed << " finished cells from "
                << resume_path << '\n';
    }

    std::vector<routesim::ResultSink*> sinks;
    std::unique_ptr<routesim::JsonlSink> jsonl;
    if (!jsonl_path.empty()) {
      jsonl = std::make_unique<routesim::JsonlSink>(jsonl_path, append_jsonl);
      if (!jsonl->ok()) {
        std::cerr << "cannot write JSONL to " << jsonl_path << '\n';
        return 1;
      }
      sinks.push_back(jsonl.get());
    }
    std::unique_ptr<routesim::obs::ProgressMeter> progress;
    if (progress_requested) {
      progress = std::make_unique<routesim::obs::ProgressMeter>(progress_forced);
      // Inactive (stderr not a TTY, no =force) meters are not registered
      // at all, so piped runs stay byte-clean.
      if (progress->active()) sinks.push_back(progress.get());
    }

    benchdrive::Suite suite("routesim_bench",
                            "routesim_bench: " + base.to_string(),
                            {"delivery_ratio", "mean_stretch", "delay_p99"});
    // The Little's-law self check compares the sojourn of *delivered*
    // packets against the rate of *all* arrivals, so it only applies when
    // nothing is dropped by faults.
    const std::vector<routesim::CellResult> cells = suite.add_campaign(
        campaign,
        [](benchdrive::Case& spec) {
          spec.check_little = !spec.scenario.faults_active();
        },
        sinks);

    std::size_t finished = 0;
    for (const auto& cell : cells) finished += cell.completed ? 1 : 0;
    if (finished < cells.size()) {
      // Interrupted: every *finished* cell is already durable (store
      // fsync'd per record, JSONL flushed per line); report how to pick
      // the campaign back up and exit with the conventional SIGINT code.
      std::cout << "\ninterrupted: " << finished << " of " << cells.size()
                << " cells checkpointed";
      if (!store_path.empty()) {
        std::cout << ", resume with --store " << store_path;
      } else if (!jsonl_path.empty()) {
        std::cout << ", resume with --resume " << jsonl_path;
      } else {
        std::cout << " (in-memory only: rerun with --store PATH to make "
                     "checkpoints durable)";
      }
      std::cout << '\n';
      (void)write_trace();
      return 130;
    }
    const int exit_code = suite.finish(argc, argv);
    if (!write_trace() && exit_code == 0) return 1;
    return exit_code;
  } catch (const std::exception& error) {
    // ScenarioError for bad input; contract violations from invalid
    // parameter combinations also surface here instead of terminating.
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
