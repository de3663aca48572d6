#pragma once
/// \file campaign.hpp
/// \brief The batch execution API: a `Campaign` is a named set of cells
///        (labelled `Scenario`s, built one by one or as sweep-grid cross
///        products), executed by an `Engine` that schedules *replications*
///        from every cell onto one shared worker pool.
///
/// The paper's results are tables and curves — dozens of (scheme, d, rho,
/// workload) cells — and the single-shot `run(Scenario)` loop re-spins a
/// worker pool per cell, draining it at every cell boundary.  The Engine
/// instead flattens all cells into one replication-level task list, so
/// every core stays busy until the whole campaign's tail.  Per-cell
/// results stay bit-identical to `run()`: each cell still aggregates its
/// own `derive_stream(base_seed, rep)` replications in replication order,
/// regardless of which worker ran which replication (pinned by
/// tests/test_campaign.cpp).
///
/// Long campaigns report incrementally through `ResultSink`s (a progress
/// callback, a JSONL stream, an in-memory collector), and an optional
/// in-process `ResultCache` — keyed by the canonical textual form of the
/// resolved scenario — makes repeated cells free, within a campaign and
/// across campaigns sharing the cache.  `run(Scenario)` itself is a
/// one-cell campaign, so every existing bench binary and the legacy shim
/// get this scheduler without source changes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scenario.hpp"

namespace routesim {

namespace obs {
class TraceSession;  // obs/trace.hpp — EngineOptions::trace
}

/// A scenario resolved once (a pending rho target solved to lambda) and
/// keyed once (ResultCache::key, a trace file's fingerprint included).
/// Only admit() builds one, so the key always belongs to the scenario.
/// It is not checked against its scheme's row: the engine checks every
/// cell before any lookup or compile.
class KeyedScenario {
 public:
  /// Throws the ScenarioError Scenario::resolved() throws.
  [[nodiscard]] static KeyedScenario admit(const Scenario& scenario);

  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] const std::string& key() const& noexcept { return key_; }
  [[nodiscard]] std::string key() && noexcept { return std::move(key_); }

 private:
  KeyedScenario(Scenario scenario, std::string key)
      : scenario_(std::move(scenario)), key_(std::move(key)) {}

  Scenario scenario_;
  std::string key_;
};

/// One cell of a campaign: a labelled experiment point.
struct CampaignCell {
  std::string label;
  Scenario scenario;
  /// Set when the cell was added admitted (serve's leader hands over the
  /// form it keyed): the engine uses it instead of admitting `scenario`.
  std::optional<KeyedScenario> keyed = std::nullopt;
};

/// A named, ordered set of cells.  Build with add() (one cell at a time)
/// and/or grid() (the cross product of sweep axes over a base scenario);
/// execute with Engine::run().
class Campaign {
 public:
  explicit Campaign(std::string name = "campaign") : name_(std::move(name)) {}

  /// Appends one cell; the label defaults to the scheme name.
  Campaign& add(Scenario scenario);
  Campaign& add(std::string label, Scenario scenario);
  /// Appends an admitted cell, labelled by its scheme name.
  Campaign& add(KeyedScenario keyed);

  /// Appends the full cross product of the axes' values applied to `base`
  /// (first axis slowest-varying, so rows group naturally in tables).
  /// Labels are "key=value key=value ..."; values are applied through
  /// apply_sweep_value(), so rho axes defer to compile-time lambda
  /// resolution like `--set rho=` does.  An empty axis list adds `base`
  /// itself as a single cell.  Throws ScenarioError on conflicting axes
  /// (two axes over one key, or rho with lambda) — they would silently
  /// overwrite each other per cell.
  Campaign& grid(const Scenario& base, const std::vector<SweepSpec>& axes);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<CampaignCell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

 private:
  std::string name_;
  std::vector<CampaignCell> cells_;
};

/// One finished cell: its index/label, the *resolved* scenario actually
/// executed (pending rho targets solved to lambda), its RunResult, and
/// whether it was served without computing (result cache, persistent
/// store, or a duplicate of another cell in the same campaign).
struct CellResult {
  std::size_t index = 0;
  std::string label;
  Scenario scenario;
  RunResult result;
  /// True when the cell was served without recomputation: an in-process
  /// cache hit, a persistent-store hit, or an in-campaign duplicate.
  bool from_cache = false;
  /// True when the serving tier was specifically the persistent store.
  bool from_store = false;
  /// False when a cooperative stop (EngineOptions::stop) cancelled this
  /// cell before all its replications ran — `result` is then default and
  /// no sink saw the cell; rerunning the campaign resumes it.
  bool completed = true;
  /// Wall-clock compute cost of this cell in seconds: the summed wall
  /// time of its replication tasks (across however many workers ran
  /// them).  0 for cells served from the cache or store — their cost was
  /// paid by an earlier run; in-campaign duplicates repeat the shared
  /// job's cost.  Telemetry only: never part of RunResult, the cache key,
  /// or store records, which stay bit-identical across runs.
  double wall_time_s = 0.0;
  /// Which tier served the cell: "store" (persistent), "cache"
  /// (in-process hit or in-campaign duplicate), or "computed".
  [[nodiscard]] const char* tier() const noexcept {
    return from_store ? "store" : from_cache ? "cache" : "computed";
  }
};

/// Streaming consumer of campaign progress.  The engine serialises all
/// sink calls (one mutex across every registered sink), so implementations
/// need no locking of their own.  on_cell() fires in *completion* order,
/// which is nondeterministic under parallel scheduling — use
/// CellResult::index to reorder; the vector Engine::run() returns is
/// always in cell order.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void on_begin(const Campaign& campaign) { (void)campaign; }
  virtual void on_cell(const CellResult& cell) = 0;
  virtual void on_end(const Campaign& campaign) { (void)campaign; }
};

/// Adapts a plain callback (progress bars, log lines) to the sink API.
class ProgressSink final : public ResultSink {
 public:
  explicit ProgressSink(std::function<void(const CellResult&)> callback)
      : callback_(std::move(callback)) {}
  void on_cell(const CellResult& cell) override { callback_(cell); }

 private:
  std::function<void(const CellResult&)> callback_;
};

/// Collects every CellResult as it completes (completion order).
class MemorySink final : public ResultSink {
 public:
  void on_cell(const CellResult& cell) override { results_.push_back(cell); }
  [[nodiscard]] const std::vector<CellResult>& results() const noexcept {
    return results_;
  }

 private:
  std::vector<CellResult> results_;
};

/// Appends `result`'s fields as JSON members, without enclosing braces.
/// `exact` is the store's round-trip form (non-finite values as
/// "nan"/"inf"/"-inf", bounds always written); otherwise non-finite values
/// are null and the bounds appear only under has_bounds (JsonlSink).
void append_result_fields(std::string& out, const RunResult& result,
                          bool exact);

/// Streams one self-contained JSON object per finished cell — the
/// machine-readable incremental form behind `routesim_bench --jsonl PATH`.
/// Schema (tests/test_campaign.cpp round-trips it): campaign, cell, label,
/// scenario (Scenario::parse-able one-liner), from_cache, from_store,
/// tier ("cache"/"store"/"computed"), wall_time_s (per-cell compute cost;
/// both absent from v1 records, which readers tolerate), rho,
/// the three interval metrics as *_mean/*_half_width, mean_hops,
/// max_little_error, mean_final_backlog, has_bounds (+ lower_bound/
/// upper_bound), and an extras object of {mean, half_width} per
/// scheme-specific metric.  Non-finite numbers are emitted as null.
///
/// Two construction modes: an ostream (caller owns buffering/lifetime,
/// flushed per record), or a file path with durability options — append
/// instead of truncate, and fsync after every record so a killed process
/// always leaves a valid resumable prefix (`--resume` replays it).
class JsonlSink final : public ResultSink {
 public:
  struct FileOptions {
    bool append = false;      ///< open O_APPEND instead of truncating
    bool fsync_each = true;   ///< fsync(2) after every record
  };

  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  JsonlSink(const std::string& path, FileOptions options);
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;
  ~JsonlSink() override;

  /// False when the file-path constructor could not open its target.
  [[nodiscard]] bool ok() const noexcept { return out_ != nullptr || file_ != nullptr; }

  void on_begin(const Campaign& campaign) override;
  void on_cell(const CellResult& cell) override;

  /// One cell as a single JSON line (no trailing newline).
  [[nodiscard]] static std::string to_json(const std::string& campaign,
                                           const CellResult& cell);

 private:
  std::ostream* out_ = nullptr;   ///< ostream mode (not owned)
  std::FILE* file_ = nullptr;     ///< file mode (owned)
  FileOptions file_options_{};
  std::string campaign_ = "campaign";
};

/// In-process result memoisation, shared across campaigns (and across
/// Suite instances in a bench binary).  Thread-safe.  The key is the
/// canonical textual form of the resolved scenario with the legacy backend
/// spelling normalised out — both values run the kernel's one drive loop,
/// so scalar and soa_batch runs share an entry; seeds and replication
/// counts stay in the key because they *do* change results.
class ResultCache {
 public:
  [[nodiscard]] static std::string key(const Scenario& scenario);

  /// Copies the entry for `key` into `*out` and counts a hit; returns
  /// false (counting a miss) when absent.
  [[nodiscard]] bool lookup(const std::string& key, RunResult* out) const;
  void insert(const std::string& key, const RunResult& result);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, RunResult> entries_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

/// Durable key->result tier behind the in-process ResultCache: the engine
/// consults it (after the cache) before scheduling a cell and persists
/// every newly computed cell into it.  The disk implementation is
/// store/result_store.hpp's ResultStore; this seam keeps the core layer
/// free of file formats.  Implementations must be thread-safe — persist()
/// is called from worker threads.
class ResultBackend {
 public:
  virtual ~ResultBackend() = default;
  /// Copies the stored result for `key` into `*out`; false when absent.
  [[nodiscard]] virtual bool fetch(const std::string& key, RunResult* out) = 0;
  /// Durably records `result` under `key` (scenario is the resolved form,
  /// kept alongside for human/tooling consumption of the store file).
  virtual void persist(const std::string& key, const Scenario& scenario,
                       const RunResult& result) = 0;
};

struct EngineOptions {
  /// Width of the shared worker pool, capped by the campaign's
  /// replication count; 0 = hardware concurrency.  The only pool-width
  /// setting: it never changes results, so no scenario carries it.
  int threads = 0;
  ResultCache* cache = nullptr;        ///< optional, not owned
  ResultBackend* store = nullptr;      ///< optional durable tier, not owned
  std::vector<ResultSink*> sinks{};    ///< optional, not owned
  /// Cooperative cancellation: when set and it becomes true, workers stop
  /// *admitting* replications but drain the one in flight, finished cells
  /// flush to sinks/cache/store as usual, and unfinished cells come back
  /// with CellResult::completed == false — the checkpoint/resume
  /// contract behind `routesim_bench`'s SIGINT handling.
  const std::atomic<bool>* stop = nullptr;  ///< optional, not owned
  /// Optional execution tracer (obs/trace.hpp): the engine records
  /// campaign/replication/assemble/sink spans and cache/store instants
  /// into it, and installs it as the ambient thread_trace() on every
  /// worker so kernel-level spans land in the same file.  Tracing never
  /// perturbs results (no RNG, no reordering) — `routesim_bench --trace
  /// PATH` exports the session as Chrome trace-event JSON.
  obs::TraceSession* trace = nullptr;  ///< optional, not owned
};

/// The campaign executor.  Scheduling never changes numbers: results are
/// bit-identical to a serial `run()` per cell for equal seeds and plans,
/// for any thread count.
class Engine {
 public:
  Engine() = default;
  explicit Engine(EngineOptions options) : options_(std::move(options)) {}

  /// Resolves, checks (SchemeRegistry::SchemeInfo::check) and compiles
  /// every cell (ScenarioError surfaces here, before any worker starts),
  /// serves cache and store hits and in-campaign duplicates without
  /// recomputation, then runs all remaining replications on one shared
  /// pool.  Returns the results in cell order; CellResult::tier() names
  /// the tier that answered each cell.
  [[nodiscard]] std::vector<CellResult> run(const Campaign& campaign) const;

  /// One scenario as a one-cell campaign — the engine behind
  /// routesim::run().
  [[nodiscard]] RunResult run_one(const Scenario& scenario) const;

  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

 private:
  EngineOptions options_{};
};

}  // namespace routesim
