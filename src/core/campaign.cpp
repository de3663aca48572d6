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
  std::string text = resolved.to_string();
  // Keys that never change results (the backend spelling) are written at
  // their defaults, so such runs share one entry; with every such key at
  // its default already, the key is the text.
  static const Scenario defaults;
  std::optional<Scenario> canonical;
  for (const ScenarioKey& row : Scenario::keys()) {
    if (!row.result_neutral) continue;
    const std::optional<std::string> fallback = row.get(defaults);
    if (row.get(resolved) == fallback) continue;
    if (!canonical) canonical = resolved;
    row.set(*canonical, *fallback);
  }
  // Empty: the key is the text (KeyedScenario keeps one copy).
  std::string key = canonical ? canonical->to_string() : std::string();
  if (!resolved.trace_file.empty()) {
    if (key.empty()) key = text;
    // A trace path names mutable content: hash the bytes into the key so
    // a rewritten file misses the cache instead of returning stale rows
    // (fingerprint 0 — unreadable — still keys consistently; the load
    // itself reports the real error at compile time).
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, " trace_hash=%016llx",
                  static_cast<unsigned long long>(
                      trace_file_fingerprint(resolved.trace_file)));
    key += fingerprint;
  }
  return {std::move(resolved), std::move(text), std::move(key)};
}

std::shared_ptr<const RenderedResult> ResultCache::lookup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::shared_ptr<const RenderedResult> ResultCache::insert(
    const std::string& key, RunResult result) {
  std::string json = result_to_json(result);
  auto entry = std::make_shared<const RenderedResult>(
      RenderedResult{std::move(result), std::move(json)});
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.insert_or_assign(key, entry);
  return entry;
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
      append_shortest(out, value);
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

std::string result_to_json(const RunResult& result) {
  std::string out = "{";
  append_result_fields(out, result, /*exact=*/true);
  out += '}';
  return out;
}

JsonlSink::JsonlSink(const std::string& path, bool append)
    : file_(std::fopen(path.c_str(), append ? "ab" : "wb")) {}

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
    ::fsync(fileno(file_));
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

}  // namespace

void Engine::register_metrics() { (void)EngineMetrics::get(); }

namespace {

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

/// One unit of compute: every cell sharing a cache key funnels into one
/// job, whose replication rows are filled by whichever threads join the
/// run and aggregated exactly once.
struct EngineRun::Job {
  explicit Job(KeyedScenario admitted) : cell(std::move(admitted)) {}

  std::vector<std::size_t> cell_indices;  ///< front() computed, rest copies
  KeyedScenario cell;
  CompiledScenario compiled;
  std::vector<std::vector<double>> rows;
  std::atomic<int> remaining{0};
  /// Summed wall time of this job's replication tasks (telemetry only —
  /// reported as CellResult::wall_time_s, never part of the result).
  std::atomic<double> compute_seconds{0.0};
};

EngineRun::EngineRun(const Campaign& campaign, EngineOptions options)
    : campaign_(&campaign),
      options_(std::move(options)),
      out_(campaign.size()) {}

EngineRun::~EngineRun() = default;

std::vector<CellResult> Engine::run(const Campaign& campaign) const {
  obs::TraceSession* const trace = options_.trace;
  obs::TraceSpan campaign_span(
      trace, "campaign.run", "engine",
      trace != nullptr ? "{\"campaign\":\"" + json_escape(campaign.name()) +
                             "\",\"cells\":" +
                             std::to_string(campaign.size()) + "}"
                       : std::string());
  const std::shared_ptr<EngineRun> started = start(campaign);
  started->join_pool();
  return started->finish();
}

std::shared_ptr<EngineRun> Engine::start(const Campaign& campaign) const {
  obs::TraceSession* const trace = options_.trace;
  obs::ThreadTraceScope start_trace_scope(trace);
  std::shared_ptr<EngineRun> run(new EngineRun(campaign, options_));
  std::vector<CellResult>& out = run->out_;

  for (ResultSink* sink : options_.sinks) {
    if (sink != nullptr) sink->on_begin(campaign);
  }

  // Phase 1 (this thread): admit each cell (unless it came admitted) and
  // check it against its scheme's capability row (SchemeInfo::check)
  // before any lookup, so a record stored under a knob the row rejects is
  // never answered; serve cache and store hits, coalesce in-campaign
  // duplicates into one job per distinct key and compile the rest, so any
  // ScenarioError surfaces before a single task is taken.  The store
  // lookup is what makes a rerun of an interrupted campaign a *resume*:
  // finished cells never reschedule.
  std::unordered_map<std::string, EngineRun::Job*> job_by_key;
  std::optional<obs::TraceSpan> compile_span(std::in_place, trace,
                                             "campaign.compile", "engine");
  for (std::size_t i = 0; i < campaign.size(); ++i) {
    // One span per cell, so a trace shows whose set-up (a trace file's
    // load, a topology's build) holds the pool back.
    obs::TraceSpan cell_span(trace, "cell.compile", "engine",
                             cell_args(trace, i));
    const CampaignCell& cell = campaign.cells()[i];
    std::optional<KeyedScenario> admitted;
    const KeyedScenario& keyed =
        cell.keyed ? *cell.keyed
                   : admitted.emplace(KeyedScenario::admit(cell.scenario));
    const auto& info = SchemeRegistry::instance().check(keyed.scenario());
    const std::string& key = keyed.key();
    out[i].index = i;
    out[i].label = cell.label;
    out[i].scenario = keyed.scenario();

    if (auto entry = options_.cache != nullptr ? options_.cache->lookup(key)
                                               : nullptr) {
      out[i].result = entry->result;
      out[i].cached = std::move(entry);
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
      if (options_.cache != nullptr) {
        out[i].cached = options_.cache->insert(key, out[i].result);
      }
      continue;
    }
    if (const auto it = job_by_key.find(key); it != job_by_key.end()) {
      it->second->cell_indices.push_back(i);  // from_cache once it finishes
      continue;
    }
    const int replications = keyed.scenario().plan.replications;
    RS_EXPECTS(replications >= 1);
    auto job = admitted ? std::make_unique<EngineRun::Job>(std::move(*admitted))
                        : std::make_unique<EngineRun::Job>(keyed);
    job->cell_indices = {i};
    job->compiled = info.compile(job->cell.scenario());
    job->rows.resize(static_cast<std::size_t>(replications));
    job->remaining.store(replications, std::memory_order_relaxed);
    job_by_key.emplace(job->cell.key(), job.get());
    run->jobs_.push_back(std::move(job));
  }

  compile_span.reset();

  // Cache hits are final already: emit them up front, in cell order (no
  // task has been taken yet, so no lock is needed).
  for (const CellResult& cell : out) {
    if (!cell.from_cache) continue;
    for (ResultSink* sink : options_.sinks) {
      if (sink != nullptr) sink->on_cell(cell);
    }
  }

  // One flat (job, rep) task list for all remaining cells: the joining
  // threads cross cell boundaries instead of draining per cell.
  for (const auto& job : run->jobs_) {
    for (int rep = 0; rep < job->cell.scenario().plan.replications; ++rep) {
      run->tasks_.push_back({job.get(), rep});
    }
  }
  return run;
}

void EngineRun::finish_job(Job& job) {
  // Last replication of this job: aggregate once (replication order),
  // publish durably (store first, so no sink ever reports a cell the store
  // could lose), then to the cache, then fan out to every cell sharing the
  // key (all but the first are served from_cache).
  obs::TraceSession* const trace = options_.trace;
  RunResult result;
  {
    obs::TraceSpan assemble_span(trace, "cell.assemble", "engine",
                                 cell_args(trace, job.cell_indices.front()));
    result = assemble(job.cell.scenario(), job.compiled, job.rows);
  }
  if (options_.store != nullptr) {
    obs::TraceSpan persist_span(trace, "store.persist", "engine");
    options_.store->persist(job.cell.key(), job.cell.scenario(), result);
  }
  const std::shared_ptr<const RenderedResult> cached =
      options_.cache != nullptr ? options_.cache->insert(job.cell.key(), result)
                                : nullptr;
  const double wall = job.compute_seconds.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sink_mutex_);
  obs::TraceSpan flush_span(trace, "sink.flush", "engine");
  for (const std::size_t cell_index : job.cell_indices) {
    out_[cell_index].from_cache = cell_index != job.cell_indices.front();
    out_[cell_index].result = result;
    out_[cell_index].cached = cached;
    out_[cell_index].wall_time_s = wall;
    for (ResultSink* sink : options_.sinks) {
      if (sink != nullptr) sink->on_cell(out_[cell_index]);
    }
  }
}

void EngineRun::run_task(const Task& task) {
  obs::TraceSession* const trace = options_.trace;
  EngineMetrics& metrics = EngineMetrics::get();
  Job& job = *task.job;
  metrics.busy_workers.add(1.0);
  const auto task_start = std::chrono::steady_clock::now();
  try {
    {
      obs::TraceSpan replication_span(
          trace, "replication", "engine",
          cell_args(trace, job.cell_indices.front(), task.rep));
      job.rows[static_cast<std::size_t>(task.rep)] = job.compiled.replicate(
          derive_stream(job.cell.scenario().plan.base_seed,
                        static_cast<std::uint64_t>(task.rep)),
          task.rep);
    }
    const double task_seconds = seconds_since(task_start);
    obs::atomic_add(job.compute_seconds, task_seconds);
    metrics.tasks.add();
    metrics.task_seconds.add(task_seconds);
    metrics.busy_workers.add(-1.0);
    // acq_rel: the final decrement observes every thread's row writes.
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_job(job);
    }
  } catch (...) {
    metrics.busy_workers.add(-1.0);
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }
}

void EngineRun::join() {
  // A joining thread gets the campaign's trace session as its ambient
  // thread_trace(), so replication spans and the kernel's drive spans land
  // in the same per-thread buffers.
  obs::TraceSession* const trace = options_.trace;
  obs::ThreadTraceScope worker_trace_scope(trace);
  obs::TraceSpan worker_span(trace, "worker", "engine");
  const auto worker_start = std::chrono::steady_clock::now();
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) break;
    // Cooperative stop: cease *taking* replications (the one in flight
    // was allowed to finish), so every job either completes — and flushes
    // durably — or stays wholly pending for a resume.
    if (options_.stop != nullptr &&
        options_.stop->load(std::memory_order_relaxed)) {
      break;
    }
    const std::size_t t = next_.fetch_add(1, std::memory_order_relaxed);
    if (t >= tasks_.size()) break;
    run_task(tasks_[t]);
    // release: finish() reads the rows, cells and error this task wrote.
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_all();
  }
  EngineMetrics::get().worker_seconds.add(seconds_since(worker_start));
}

void EngineRun::join_pool() {
  // An all-hit campaign (every serve store touch is one) starts no pool.
  if (tasks_.empty()) return;
  const int requested = options_.threads > 0
                            ? options_.threads
                            : static_cast<int>(std::thread::hardware_concurrency());
  const int workers =
      std::max(1, std::min<int>(requested, static_cast<int>(tasks_.size())));
  EngineMetrics::get().pool_workers.set(static_cast<double>(workers));
  std::vector<std::jthread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back([this] { join(); });
  join();  // the calling thread is the pool's last worker
}

std::vector<CellResult> EngineRun::finish() {
  // Close the task list (a later fetch_add reads past its end), then wait
  // for every task taken before that, whichever thread runs it.
  const std::size_t taken =
      std::min(next_.exchange(tasks_.size(), std::memory_order_relaxed),
               tasks_.size());
  for (std::size_t done = done_.load(std::memory_order_acquire); done < taken;
       done = done_.load(std::memory_order_acquire)) {
    done_.wait(done, std::memory_order_acquire);
  }

  // A cooperative stop (or a failed replication) leaves jobs with untaken
  // replications; their cells (including duplicates funnelled into them)
  // report completed == false so callers can count checkpointed vs
  // pending work.  Every finished cell is counted once, under the tier its
  // CellResult names.
  EngineMetrics& metrics = EngineMetrics::get();
  for (const auto& job : jobs_) {
    if (job->remaining.load(std::memory_order_acquire) == 0) continue;
    for (const std::size_t cell_index : job->cell_indices) {
      out_[cell_index].completed = false;
    }
  }
  for (const CellResult& cell : out_) {
    if (!cell.completed) continue;
    const std::string_view tier = cell.tier();
    (tier == "store"   ? metrics.cells_store
     : tier == "cache" ? metrics.cells_cache
                       : metrics.cells_computed).add();
  }
  if (first_error_) std::rethrow_exception(first_error_);

  for (ResultSink* sink : options_.sinks) {
    if (sink != nullptr) sink->on_end(*campaign_);
  }
  return std::move(out_);
}

RunResult Engine::run_one(const Scenario& scenario) const {
  Campaign single("run");
  single.add(scenario);
  auto results = run(single);
  RS_ENSURES(results.size() == 1);
  return std::move(results.front().result);
}

}  // namespace routesim
