#include "core/campaign.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/experiment.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace routesim {

Campaign& Campaign::add(Scenario scenario) {
  std::string label = scenario.scheme;
  return add(std::move(label), std::move(scenario));
}

Campaign& Campaign::add(std::string label, Scenario scenario) {
  cells_.push_back({std::move(label), std::move(scenario)});
  return *this;
}

namespace {

/// Display form for grid labels: short %g, so an index-generated
/// 0.6000000000000001 reads "0.6" (the cell's *scenario* keeps the exact
/// value — labels are presentation only).
std::string label_value(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

}  // namespace

Campaign& Campaign::grid(const Scenario& base,
                         const std::vector<SweepSpec>& axes) {
  if (axes.empty()) return add(base);
  // rho and lambda set the same underlying quantity (rho is a deferred
  // lambda solve), so axes over both would silently cancel each other —
  // whichever applies last per cell wins and one whole axis becomes a
  // no-op of duplicate cells.  Reject the combination, and duplicate axes
  // over any single key for the same reason.
  for (std::size_t a = 0; a < axes.size(); ++a) {
    for (std::size_t b = a + 1; b < axes.size(); ++b) {
      const bool same_key = axes[a].key == axes[b].key;
      const bool load_clash =
          (axes[a].key == "rho" && axes[b].key == "lambda") ||
          (axes[a].key == "lambda" && axes[b].key == "rho");
      if (same_key || load_clash) {
        throw ScenarioError("conflicting grid axes '" + axes[a].key +
                            "' and '" + axes[b].key +
                            "' set the same quantity — one would silently "
                            "overwrite the other");
      }
    }
  }
  std::vector<std::vector<double>> values;
  values.reserve(axes.size());
  for (const SweepSpec& axis : axes) values.push_back(axis.values());

  // Odometer over the axes, last axis fastest (first slowest-varying).
  std::vector<std::size_t> index(axes.size(), 0);
  for (bool done = false; !done;) {
    Scenario cell = base;
    std::string label;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      apply_sweep_value(cell, axes[a].key, values[a][index[a]]);
      if (!label.empty()) label += ' ';
      label += axes[a].key + "=" + label_value(values[a][index[a]]);
    }
    add(std::move(label), std::move(cell));
    done = true;
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++index[a] < values[a].size()) {
        done = false;
        break;
      }
      index[a] = 0;
    }
  }
  return *this;
}

// ------------------------------------------------------------------- cache

std::string ResultCache::key(const Scenario& scenario) {
  Scenario canonical = scenario.resolved();
  // Keys that never change results (thread count, backend spelling) are
  // written at their defaults, so such runs share one entry.
  static const Scenario defaults;
  for (const ScenarioKey& row : Scenario::keys()) {
    if (row.result_neutral) row.set(canonical, *row.get(defaults));
  }
  std::string key = canonical.to_string();
  if (!canonical.trace_file.empty()) {
    // A trace path names mutable content: hash the bytes into the key so
    // a rewritten file misses the cache instead of returning stale rows
    // (fingerprint 0 — unreadable — still keys consistently; the load
    // itself reports the real error at compile time).
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, " trace_hash=%016llx",
                  static_cast<unsigned long long>(
                      trace_file_fingerprint(canonical.trace_file)));
    key += fingerprint;
  }
  return key;
}

bool ResultCache::lookup(const std::string& key, RunResult* out) const {
  RS_EXPECTS(out != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  *out = it->second;
  return true;
}

void ResultCache::insert(const std::string& key, const RunResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.insert_or_assign(key, result);
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

// -------------------------------------------------------------- JSONL sink

namespace {

/// JSON has no NaN/Inf literals; emit null for them.
void json_number(std::ostringstream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
  } else {
    os << fmt_shortest(value);
  }
}

void json_interval(std::ostringstream& os, const char* name,
                   const ConfidenceInterval& interval) {
  os << "\"" << name << "_mean\":";
  json_number(os, interval.mean);
  os << ",\"" << name << "_half_width\":";
  json_number(os, interval.half_width);
}

}  // namespace

JsonlSink::JsonlSink(const std::string& path, FileOptions options)
    : file_(std::fopen(path.c_str(), options.append ? "ab" : "wb")),
      file_options_(options) {}

JsonlSink::~JsonlSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlSink::on_begin(const Campaign& campaign) {
  campaign_ = campaign.name();
}

void JsonlSink::on_cell(const CellResult& cell) {
  const std::string line = to_json(campaign_, cell);
  if (file_ != nullptr) {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
    // Durability, not just visibility: a record either survives a kill
    // entirely or is a truncated tail the store loader tolerates.
    if (file_options_.fsync_each) ::fsync(fileno(file_));
    return;
  }
  *out_ << line << '\n';
  out_->flush();  // the point of JSONL is incremental consumption
}

std::string JsonlSink::to_json(const std::string& campaign,
                               const CellResult& cell) {
  const RunResult& r = cell.result;
  std::ostringstream os;
  os << "{\"campaign\":\"" << json_escape(campaign) << "\",\"cell\":"
     << cell.index << ",\"label\":\"" << json_escape(cell.label)
     << "\",\"scenario\":\"" << json_escape(cell.scenario.to_string())
     << "\",\"from_cache\":" << (cell.from_cache ? "true" : "false")
     << ",\"from_store\":" << (cell.from_store ? "true" : "false")
     << ",\"tier\":\"" << cell.tier() << "\",\"wall_time_s\":";
  json_number(os, cell.wall_time_s);
  os << ",\"rho\":";
  json_number(os, r.rho);
  os << ',';
  json_interval(os, "delay", r.delay);
  os << ',';
  json_interval(os, "population", r.population);
  os << ',';
  json_interval(os, "throughput", r.throughput);
  os << ",\"mean_hops\":";
  json_number(os, r.mean_hops);
  os << ",\"max_little_error\":";
  json_number(os, r.max_little_error);
  os << ",\"mean_final_backlog\":";
  json_number(os, r.mean_final_backlog);
  os << ",\"has_bounds\":" << (r.has_bounds ? "true" : "false");
  if (r.has_bounds) {
    os << ",\"lower_bound\":";
    json_number(os, r.lower_bound);
    os << ",\"upper_bound\":";
    json_number(os, r.upper_bound);
  }
  os << ",\"extras\":{";
  for (std::size_t i = 0; i < r.extras.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\"" << json_escape(r.extras[i].first)
       << "\":{\"mean\":";
    json_number(os, r.extras[i].second.mean);
    os << ",\"half_width\":";
    json_number(os, r.extras[i].second.half_width);
    os << '}';
  }
  os << "}}";
  return os.str();
}

// ------------------------------------------------------------------ engine

namespace {

/// One unit of compute: every cell sharing a cache key funnels into one
/// job, whose replication rows are filled by the shared pool and
/// aggregated exactly once.
struct CellJob {
  std::vector<std::size_t> cell_indices;  ///< front() computed, rest copies
  Scenario scenario;                      ///< resolved form
  std::string key;
  CompiledScenario compiled;
  std::vector<std::vector<double>> rows;
  std::atomic<int> remaining{0};
  /// Summed wall time of this job's replication tasks (telemetry only —
  /// reported as CellResult::wall_time_s, never part of the result).
  std::atomic<double> compute_seconds{0.0};
};

/// Handles into the process-wide registry, resolved once — engine
/// increments are then single relaxed RMWs on pre-registered metrics.
struct EngineMetrics {
  obs::Counter& cells_cache;
  obs::Counter& cells_store;
  obs::Counter& cells_computed;
  obs::Counter& tasks;
  obs::Counter& task_seconds;
  obs::Counter& worker_seconds;
  obs::Gauge& busy_workers;
  obs::Gauge& pool_workers;

  static EngineMetrics& get() {
    auto& registry = obs::global_metrics();
    static EngineMetrics metrics{
        registry.counter("routesim_engine_cells_cache_total"),
        registry.counter("routesim_engine_cells_store_total"),
        registry.counter("routesim_engine_cells_computed_total"),
        registry.counter("routesim_engine_tasks_total"),
        registry.counter("routesim_engine_task_seconds_total"),
        registry.counter("routesim_engine_worker_seconds_total"),
        registry.gauge("routesim_engine_busy_workers"),
        registry.gauge("routesim_engine_pool_workers")};
    return metrics;
  }
};

/// `{"cell":N}` (with `,"rep":R` when rep >= 0) span args, built only when
/// a session is live: an untraced campaign renders none.
std::string cell_args(const obs::TraceSession* trace, std::size_t cell,
                      int rep = -1) {
  if (trace == nullptr) return {};
  return "{\"cell\":" + std::to_string(cell) +
         (rep >= 0 ? ",\"rep\":" + std::to_string(rep) : std::string()) + "}";
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// run()'s aggregation, replication order, one code path for the serial
/// and the campaign-scheduled case — hence bit-identical results.
RunResult assemble(const Scenario& resolved, const CompiledScenario& compiled,
                   const std::vector<std::vector<double>>& rows) {
  const std::size_t metrics = rows.front().size();
  for (const auto& row : rows) {
    RS_ENSURES(row.size() == metrics);
  }
  const auto intervals = replication_intervals(rows);
  const auto summaries = summarize_replications(rows);
  RS_ENSURES(intervals.size() == metric::kCount + compiled.extra_metrics.size());

  RunResult result;
  result.delay = intervals[metric::kDelay];
  result.population = intervals[metric::kPopulation];
  result.throughput = intervals[metric::kThroughput];
  result.mean_hops = summaries[metric::kHops].mean();
  result.max_little_error = summaries[metric::kLittle].max();
  result.mean_final_backlog = summaries[metric::kBacklog].mean();
  result.has_bounds = compiled.has_bounds;
  result.lower_bound = compiled.lower_bound;
  result.upper_bound = compiled.upper_bound;
  for (std::size_t i = 0; i < compiled.extra_metrics.size(); ++i) {
    result.extras.emplace_back(compiled.extra_metrics[i],
                               intervals[metric::kCount + i]);
  }
  result.rho = resolved.rho();
  return result;
}

}  // namespace

std::vector<CellResult> Engine::run(const Campaign& campaign) const {
  obs::TraceSession* const trace = options_.trace;
  EngineMetrics& metrics = EngineMetrics::get();
  obs::ThreadTraceScope run_trace_scope(trace);
  obs::TraceSpan campaign_span(
      trace, "campaign.run", "engine",
      trace != nullptr ? "{\"campaign\":\"" + json_escape(campaign.name()) +
                             "\",\"cells\":" +
                             std::to_string(campaign.size()) + "}"
                       : std::string());

  for (ResultSink* sink : options_.sinks) {
    if (sink != nullptr) sink->on_begin(campaign);
  }

  std::vector<CellResult> out(campaign.size());
  enum class Slot : std::uint8_t { kCached, kDuplicate, kScheduled };
  std::vector<Slot> status(campaign.size(), Slot::kScheduled);

  // Phase 1 (this thread): resolve every cell and check it against its
  // scheme's capability row (SchemeInfo::check) before any lookup, so a
  // record stored under a knob the row now rejects is never answered;
  // serve cache and persistent-store hits, coalesce in-campaign
  // duplicates into one job per distinct key and compile the rest, so
  // any ScenarioError surfaces before a single worker starts.  The store
  // lookup is what makes a rerun of an interrupted campaign a *resume*:
  // finished cells never reschedule.
  std::vector<std::unique_ptr<CellJob>> jobs;
  std::unordered_map<std::string, CellJob*> job_by_key;
  std::optional<obs::TraceSpan> compile_span(std::in_place, trace,
                                             "campaign.compile", "engine");
  for (std::size_t i = 0; i < campaign.size(); ++i) {
    // One span per cell, so a trace shows whose set-up (a trace file's
    // load, a topology's build) holds the pool back.
    obs::TraceSpan cell_span(trace, "cell.compile", "engine",
                             cell_args(trace, i));
    const CampaignCell& cell = campaign.cells()[i];
    Scenario resolved = cell.scenario.resolved();
    const auto& info = SchemeRegistry::instance().check(resolved);
    const std::string key = ResultCache::key(resolved);
    out[i].index = i;
    out[i].label = cell.label;
    out[i].scenario = resolved;

    if (options_.cache != nullptr && options_.cache->lookup(key, &out[i].result)) {
      out[i].from_cache = true;
      status[i] = Slot::kCached;
      metrics.cells_cache.add();
      if (trace != nullptr) {
        trace->instant("cache.hit", "engine", cell_args(trace, i));
      }
      continue;
    }
    if (options_.store != nullptr && options_.store->fetch(key, &out[i].result)) {
      out[i].from_cache = true;
      out[i].from_store = true;
      status[i] = Slot::kCached;
      metrics.cells_store.add();
      if (trace != nullptr) {
        trace->instant("store.hit", "engine", cell_args(trace, i));
      }
      // Promote into the in-process cache so repeated lookups in this
      // process skip the store's mutex.
      if (options_.cache != nullptr) options_.cache->insert(key, out[i].result);
      continue;
    }
    if (const auto it = job_by_key.find(key); it != job_by_key.end()) {
      it->second->cell_indices.push_back(i);
      out[i].from_cache = true;  // shares another cell's computation
      status[i] = Slot::kDuplicate;
      continue;
    }
    RS_EXPECTS(resolved.plan.replications >= 1);
    auto job = std::make_unique<CellJob>();
    job->cell_indices = {i};
    job->scenario = std::move(resolved);
    job->key = key;
    job->compiled = info.compile(job->scenario);
    job->rows.resize(static_cast<std::size_t>(job->scenario.plan.replications));
    job->remaining.store(job->scenario.plan.replications,
                         std::memory_order_relaxed);
    job_by_key.emplace(job->key, job.get());
    jobs.push_back(std::move(job));
  }

  compile_span.reset();

  // Cache hits are final already: emit them up front, in cell order (no
  // worker is running yet, so no lock is needed).
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (status[i] != Slot::kCached) continue;
    for (ResultSink* sink : options_.sinks) {
      if (sink != nullptr) sink->on_cell(out[i]);
    }
  }

  // Phase 2: one flat (job, rep) task list for all remaining cells — the
  // shared pool crosses cell boundaries instead of draining per cell.
  struct Task {
    CellJob* job;
    int rep;
  };
  std::vector<Task> tasks;
  for (const auto& job : jobs) {
    for (int rep = 0; rep < job->scenario.plan.replications; ++rep) {
      tasks.push_back({job.get(), rep});
    }
  }

  std::mutex sink_mutex;
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<bool> abort{false};
  std::atomic<std::size_t> next{0};

  const auto finish_job = [&](CellJob& job) {
    // Last replication of this job: aggregate once (replication order),
    // publish durably (store first, so no sink ever reports a cell the
    // store could lose), then to the cache, then fan out to every cell
    // sharing the key.
    RunResult result;
    {
      obs::TraceSpan assemble_span(trace, "cell.assemble", "engine",
                                   cell_args(trace, job.cell_indices.front()));
      result = assemble(job.scenario, job.compiled, job.rows);
    }
    if (options_.store != nullptr) {
      obs::TraceSpan persist_span(obs::thread_trace(), "store.persist",
                                  "engine");
      options_.store->persist(job.key, job.scenario, result);
    }
    if (options_.cache != nullptr) options_.cache->insert(job.key, result);
    metrics.cells_computed.add(static_cast<double>(job.cell_indices.size()));
    const double wall = job.compute_seconds.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sink_mutex);
    obs::TraceSpan flush_span(obs::thread_trace(), "sink.flush", "engine");
    for (const std::size_t cell_index : job.cell_indices) {
      out[cell_index].result = result;
      out[cell_index].wall_time_s = wall;
      for (ResultSink* sink : options_.sinks) {
        if (sink != nullptr) sink->on_cell(out[cell_index]);
      }
    }
  };

  const auto work = [&]() {
    // Workers get the campaign's trace session as their ambient
    // thread_trace(), so replication spans and the kernel's drive spans
    // land in the same per-thread buffers.
    obs::ThreadTraceScope worker_trace_scope(trace);
    obs::TraceSpan worker_span(trace, "worker", "engine");
    const auto worker_start = std::chrono::steady_clock::now();
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) break;
      // Cooperative stop: cease *admitting* replications (the one in
      // flight was allowed to finish), so every job either completes —
      // and flushes durably — or stays wholly pending for a resume.
      if (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed)) {
        break;
      }
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) break;
      CellJob& job = *tasks[t].job;
      const int rep = tasks[t].rep;
      metrics.busy_workers.add(1.0);
      const auto task_start = std::chrono::steady_clock::now();
      try {
        {
          obs::TraceSpan replication_span(
              trace, "replication", "engine",
              cell_args(trace, job.cell_indices.front(), rep));
          job.rows[static_cast<std::size_t>(rep)] = job.compiled.replicate(
              derive_stream(job.scenario.plan.base_seed,
                            static_cast<std::uint64_t>(rep)),
              rep);
        }
        const double task_seconds = seconds_since(task_start);
        obs::atomic_add(job.compute_seconds, task_seconds);
        metrics.tasks.add();
        metrics.task_seconds.add(task_seconds);
        metrics.busy_workers.add(-1.0);
        // acq_rel: the final decrement observes every worker's row writes.
        if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          finish_job(job);
        }
      } catch (...) {
        metrics.busy_workers.add(-1.0);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
    }
    metrics.worker_seconds.add(seconds_since(worker_start));
  };

  // An all-hit campaign (every serve store touch is one) starts no pool.
  if (!tasks.empty()) {
    const int requested =
        options_.threads > 0
            ? options_.threads
            : static_cast<int>(std::thread::hardware_concurrency());
    const int workers = std::max(
        1, std::min<int>(requested, static_cast<int>(tasks.size())));
    metrics.pool_workers.set(static_cast<double>(workers));
    if (workers <= 1) {
      work();
    } else {
      std::vector<std::jthread> pool;
      pool.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) pool.emplace_back(work);
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // A cooperative stop leaves jobs with unadmitted replications; their
  // cells (including duplicates funnelled into them) report
  // completed == false so callers can count checkpointed vs pending work.
  for (const auto& job : jobs) {
    if (job->remaining.load(std::memory_order_acquire) == 0) continue;
    for (const std::size_t cell_index : job->cell_indices) {
      out[cell_index].completed = false;
      out[cell_index].from_cache = false;
    }
  }

  for (ResultSink* sink : options_.sinks) {
    if (sink != nullptr) sink->on_end(campaign);
  }
  return out;
}

RunResult Engine::run_one(const Scenario& scenario) const {
  Campaign single("run");
  single.add(scenario);
  auto results = run(single);
  RS_ENSURES(results.size() == 1);
  return std::move(results.front().result);
}

}  // namespace routesim
