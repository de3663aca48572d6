#include "core/campaign.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
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

Campaign& Campaign::add(KeyedScenario keyed) {
  cells_.push_back({keyed.scenario().scheme, keyed.scenario(), std::move(keyed)});
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
  return KeyedScenario::admit(scenario).key();
}

KeyedScenario KeyedScenario::admit(const Scenario& scenario) {
  Scenario resolved = scenario.resolved();
  // Keys that never change results (the backend spelling) are written at
  // their defaults, so such runs share one entry.
  static const Scenario defaults;
  Scenario canonical = resolved;
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
  return {std::move(resolved), std::move(key)};
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

void append_result_fields(std::string& out, const RunResult& result,
                          bool exact) {
  // JSON has no NaN/Inf literals: null, or strings the reader maps back.
  const auto number = [&](double value) {
    if (std::isfinite(value)) {
      out += fmt_shortest(value);
    } else if (!exact) {
      out += "null";
    } else {
      out += std::isnan(value) ? "\"nan\"" : value > 0 ? "\"inf\"" : "\"-inf\"";
    }
  };
  const auto member = [&](const char* prefix, double value) {
    out += prefix;
    number(value);
  };
  member("\"rho\":", result.rho);
  member(",\"delay_mean\":", result.delay.mean);
  member(",\"delay_half_width\":", result.delay.half_width);
  member(",\"population_mean\":", result.population.mean);
  member(",\"population_half_width\":", result.population.half_width);
  member(",\"throughput_mean\":", result.throughput.mean);
  member(",\"throughput_half_width\":", result.throughput.half_width);
  member(",\"mean_hops\":", result.mean_hops);
  member(",\"max_little_error\":", result.max_little_error);
  member(",\"mean_final_backlog\":", result.mean_final_backlog);
  out += result.has_bounds ? ",\"has_bounds\":true" : ",\"has_bounds\":false";
  if (exact || result.has_bounds) {
    member(",\"lower_bound\":", result.lower_bound);
    member(",\"upper_bound\":", result.upper_bound);
  }
  out += ",\"extras\":{";
  for (std::size_t i = 0; i < result.extras.size(); ++i) {
    out += i == 0 ? "\"" : ",\"";
    out += json_escape(result.extras[i].first);
    member("\":{\"mean\":", result.extras[i].second.mean);
    member(",\"half_width\":", result.extras[i].second.half_width);
    out += '}';
  }
  out += '}';
}

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
  std::ostringstream os;
  os << "{\"campaign\":\"" << json_escape(campaign) << "\",\"cell\":"
     << cell.index << ",\"label\":\"" << json_escape(cell.label)
     << "\",\"scenario\":\"" << json_escape(cell.scenario.to_string())
     << "\",\"from_cache\":" << (cell.from_cache ? "true" : "false")
     << ",\"from_store\":" << (cell.from_store ? "true" : "false")
     << ",\"tier\":\"" << cell.tier() << "\",\"wall_time_s\":"
     << (std::isfinite(cell.wall_time_s) ? fmt_shortest(cell.wall_time_s)
                                         : "null")
     << ',';
  std::string line = os.str();
  append_result_fields(line, cell.result, /*exact=*/false);
  line += '}';
  return line;
}

// ------------------------------------------------------------------ engine

namespace {

/// One unit of compute: every cell sharing a cache key funnels into one
/// job, whose replication rows are filled by the shared pool and
/// aggregated exactly once.
struct CellJob {
  explicit CellJob(KeyedScenario admitted) : cell(std::move(admitted)) {}

  std::vector<std::size_t> cell_indices;  ///< front() computed, rest copies
  KeyedScenario cell;
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

  // Phase 1 (this thread): admit each cell (unless it came admitted) and
  // check it against its scheme's capability row (SchemeInfo::check)
  // before any lookup, so a record stored under a knob the row rejects is
  // never answered; serve cache and store hits, coalesce in-campaign
  // duplicates into one job per distinct key and compile the rest, so any
  // ScenarioError surfaces before a single worker starts.  The store
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
    KeyedScenario keyed =
        cell.keyed ? *cell.keyed : KeyedScenario::admit(cell.scenario);
    const auto& info = SchemeRegistry::instance().check(keyed.scenario());
    const std::string& key = keyed.key();
    out[i].index = i;
    out[i].label = cell.label;
    out[i].scenario = keyed.scenario();

    if (options_.cache != nullptr && options_.cache->lookup(key, &out[i].result)) {
      out[i].from_cache = true;
      if (trace != nullptr) {
        trace->instant("cache.hit", "engine", cell_args(trace, i));
      }
      continue;
    }
    if (options_.store != nullptr && options_.store->fetch(key, &out[i].result)) {
      out[i].from_cache = true;
      out[i].from_store = true;
      if (trace != nullptr) {
        trace->instant("store.hit", "engine", cell_args(trace, i));
      }
      // Promote into the in-process cache so repeated lookups in this
      // process skip the store's mutex.
      if (options_.cache != nullptr) options_.cache->insert(key, out[i].result);
      continue;
    }
    if (const auto it = job_by_key.find(key); it != job_by_key.end()) {
      it->second->cell_indices.push_back(i);  // from_cache once it finishes
      continue;
    }
    const int replications = keyed.scenario().plan.replications;
    RS_EXPECTS(replications >= 1);
    auto job = std::make_unique<CellJob>(std::move(keyed));
    job->cell_indices = {i};
    job->compiled = info.compile(job->cell.scenario());
    job->rows.resize(static_cast<std::size_t>(replications));
    job->remaining.store(replications, std::memory_order_relaxed);
    job_by_key.emplace(job->cell.key(), job.get());
    jobs.push_back(std::move(job));
  }

  compile_span.reset();

  // Cache hits are final already: emit them up front, in cell order (no
  // worker is running yet, so no lock is needed).
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].from_cache) continue;
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
    for (int rep = 0; rep < job->cell.scenario().plan.replications; ++rep) {
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
    // sharing the key (all but the first are served from_cache).
    RunResult result;
    {
      obs::TraceSpan assemble_span(trace, "cell.assemble", "engine",
                                   cell_args(trace, job.cell_indices.front()));
      result = assemble(job.cell.scenario(), job.compiled, job.rows);
    }
    if (options_.store != nullptr) {
      obs::TraceSpan persist_span(obs::thread_trace(), "store.persist",
                                  "engine");
      options_.store->persist(job.cell.key(), job.cell.scenario(), result);
    }
    if (options_.cache != nullptr) options_.cache->insert(job.cell.key(), result);
    const double wall = job.compute_seconds.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sink_mutex);
    obs::TraceSpan flush_span(obs::thread_trace(), "sink.flush", "engine");
    for (const std::size_t cell_index : job.cell_indices) {
      out[cell_index].from_cache = cell_index != job.cell_indices.front();
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
              derive_stream(job.cell.scenario().plan.base_seed,
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

  // A cooperative stop (or a failed replication) leaves jobs with
  // unadmitted replications; their cells (including duplicates funnelled
  // into them) report completed == false so callers can count
  // checkpointed vs pending work.  Every finished cell is counted once,
  // under the tier its CellResult names.
  for (const auto& job : jobs) {
    if (job->remaining.load(std::memory_order_acquire) == 0) continue;
    for (const std::size_t cell_index : job->cell_indices) {
      out[cell_index].completed = false;
    }
  }
  for (const CellResult& cell : out) {
    if (!cell.completed) continue;
    const std::string_view tier = cell.tier();
    (tier == "store"   ? metrics.cells_store
     : tier == "cache" ? metrics.cells_cache
                       : metrics.cells_computed).add();
  }
  if (first_error) std::rethrow_exception(first_error);

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
