#include "serve/service.hpp"

#include <chrono>
#include <exception>
#include <sstream>
#include <vector>

#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace routesim::serve {

namespace {

/// Handles into the process-wide registry (obs/metrics.hpp), resolved
/// once.  Touching get() registers every serve metric, so a `metrics`
/// scrape shows all tiers (zero-valued) even before the first query.
struct ServeMetrics {
  obs::Counter& queries;
  obs::Counter& cache_hits;
  obs::Counter& store_hits;
  obs::Counter& computed;
  obs::Counter& coalesced;
  obs::Counter& errors;
  obs::HistogramMetric& cache_seconds;
  obs::HistogramMetric& store_seconds;
  obs::HistogramMetric& computed_seconds;
  obs::HistogramMetric& inflight_seconds;

  static ServeMetrics& get() {
    auto& registry = obs::global_metrics();
    static ServeMetrics metrics{
        registry.counter("routesim_serve_queries_total"),
        registry.counter("routesim_serve_cache_hits_total"),
        registry.counter("routesim_serve_store_hits_total"),
        registry.counter("routesim_serve_computed_total"),
        registry.counter("routesim_serve_coalesced_total"),
        registry.counter("routesim_serve_errors_total"),
        registry.histogram("routesim_serve_query_seconds_cache"),
        registry.histogram("routesim_serve_query_seconds_store"),
        registry.histogram("routesim_serve_query_seconds_computed"),
        registry.histogram("routesim_serve_query_seconds_inflight")};
    return metrics;
  }
};

}  // namespace

EngineOptions QueryService::engine_options() {
  EngineOptions options;
  options.threads = options_.threads;
  options.cache = &cache_;
  options.store = options_.store;
  return options;
}

QueryService::QueryResult QueryService::query_text(
    const std::string& scenario_text) {
  try {
    return query(Scenario::parse_text(scenario_text));
  } catch (const std::exception& error) {
    ServeMetrics& metrics = ServeMetrics::get();
    metrics.queries.add();
    metrics.errors.add();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    ++stats_.errors;
    QueryResult result;
    result.error = error.what();
    return result;
  }
}

QueryService::QueryResult QueryService::query(const Scenario& scenario) {
  ServeMetrics& metrics = ServeMetrics::get();
  const auto start = std::chrono::steady_clock::now();
  QueryResult qr = query_impl(scenario);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  metrics.queries.add();
  if (!qr.ok) {
    metrics.errors.add();
  } else if (qr.source == "cache") {
    metrics.cache_hits.add();
    metrics.cache_seconds.observe(seconds);
  } else if (qr.source == "store") {
    metrics.store_hits.add();
    metrics.store_seconds.observe(seconds);
  } else if (qr.source == "inflight") {
    metrics.coalesced.add();
    metrics.inflight_seconds.observe(seconds);
  } else {
    metrics.computed.add();
    metrics.computed_seconds.observe(seconds);
  }
  return qr;
}

QueryService::QueryResult QueryService::query_impl(const Scenario& scenario) {
  QueryResult qr;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
  }
  try {
    qr.scenario = scenario.resolved();
  } catch (const std::exception& error) {
    qr.error = error.what();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
    return qr;
  }
  qr.key = ResultCache::key(qr.scenario);

  // Cache hits need no check: every entry came from a checked computation
  // or a checked store hit below.
  if (cache_.lookup(qr.key, &qr.result)) {
    qr.ok = true;
    qr.source = "cache";
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.cache_hits;
    return qr;
  }
  // A stored record may predate a capability row that now rejects its
  // knobs: check before answering from the store.
  try {
    SchemeRegistry::instance().check(qr.scenario);
  } catch (const std::exception& error) {
    qr.error = error.what();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
    return qr;
  }
  if (options_.store != nullptr && options_.store->fetch(qr.key, &qr.result)) {
    cache_.insert(qr.key, qr.result);
    qr.ok = true;
    qr.source = "store";
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.store_hits;
    return qr;
  }

  // Miss on both tiers: join (or become) the one in-flight computation for
  // this key, so N concurrent clients asking the same scenario fund one
  // engine run.
  std::shared_ptr<Inflight> entry;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(qr.key);
    if (it != inflight_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<Inflight>();
      inflight_.emplace(qr.key, entry);
      leader = true;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> wait_lock(entry->mutex);
    entry->cv.wait(wait_lock, [&] { return entry->done; });
    qr.ok = entry->ok;
    qr.error = entry->error;
    qr.result = entry->result;
    qr.source = "inflight";
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.coalesced;
    if (!qr.ok) ++stats_.errors;
    return qr;
  }

  bool ok = false;
  std::string error;
  RunResult result;
  try {
    // run_one inserts into the cache and persists to the store itself
    // (finish_job), so followers and future processes see the result.
    result = Engine(engine_options()).run_one(qr.scenario);
    ok = true;
  } catch (const std::exception& compute_error) {
    error = compute_error.what();
  }
  {
    std::lock_guard<std::mutex> publish_lock(entry->mutex);
    entry->done = true;
    entry->ok = ok;
    entry->error = error;
    entry->result = result;
  }
  entry->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(qr.key);
  }
  qr.ok = ok;
  qr.error = error;
  qr.result = result;
  qr.source = "computed";
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (ok) {
    ++stats_.computed;
  } else {
    ++stats_.errors;
  }
  return qr;
}

QueryService::Stats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

// ---------------------------------------------------------------- protocol

namespace {

/// The request's "id" member re-serialised for echoing (numbers and
/// strings supported; anything else is omitted).  Returns ',"id":<...>'
/// or an empty string.
std::string id_echo(const json::Value& request) {
  const json::Value* id = request.find("id");
  if (id == nullptr) return "";
  if (id->is_number()) return ",\"id\":" + fmt_shortest(id->number);
  if (id->is_string()) return ",\"id\":\"" + json_escape(id->string) + "\"";
  return "";
}

std::string error_response(const std::string& op, const std::string& id,
                           const std::string& message) {
  return "{\"op\":\"" + json_escape(op) + "\"" + id +
         ",\"ok\":false,\"error\":\"" + json_escape(message) + "\"}";
}

std::string query_response(const std::string& id,
                           const QueryService::QueryResult& qr) {
  if (!qr.ok) return error_response("query", id, qr.error);
  std::ostringstream os;
  os << "{\"op\":\"query\"" << id << ",\"ok\":true,\"source\":\"" << qr.source
     << "\",\"key\":\"" << json_escape(qr.key) << "\",\"scenario\":\""
     << json_escape(qr.scenario.to_string())
     << "\",\"result\":" << result_to_json(qr.result) << '}';
  return os.str();
}

void handle_grid(QueryService& service, const json::Value& request,
                 const std::string& id,
                 const std::function<void(const std::string&)>& emit) {
  const json::Value* scenario_text = request.find("scenario");
  if (scenario_text == nullptr || !scenario_text->is_string()) {
    emit(error_response("grid", id, "grid request needs a \"scenario\" string"));
    return;
  }
  try {
    const Scenario base = Scenario::parse_text(scenario_text->string);
    std::vector<SweepSpec> axes;
    if (const json::Value* axis_list = request.find("axes");
        axis_list != nullptr) {
      if (!axis_list->is_array()) {
        throw ScenarioError("\"axes\" must be an array of key=a:b[:s] strings");
      }
      for (const json::Value& axis : axis_list->array) {
        if (!axis.is_string()) {
          throw ScenarioError("\"axes\" must be an array of key=a:b[:s] strings");
        }
        axes.push_back(SweepSpec::parse(axis.string));
      }
    }
    Campaign campaign("serve_grid");
    campaign.grid(base, axes);

    std::size_t computed = 0;
    std::size_t from_store = 0;
    std::size_t from_cache = 0;
    ProgressSink stream([&](const CellResult& cell) {
      if (cell.from_store) {
        ++from_store;
      } else if (cell.from_cache) {
        ++from_cache;
      } else {
        ++computed;
      }
      std::ostringstream os;
      os << "{\"op\":\"cell\"" << id << ",\"cell\":" << cell.index
         << ",\"label\":\"" << json_escape(cell.label) << "\",\"source\":\""
         << (cell.from_store ? "store" : cell.from_cache ? "cache" : "computed")
         << "\",\"scenario\":\"" << json_escape(cell.scenario.to_string())
         << "\",\"result\":" << result_to_json(cell.result) << '}';
      emit(os.str());
    });
    EngineOptions options = service.engine_options();
    options.sinks.push_back(&stream);
    const auto cells = Engine(options).run(campaign);
    std::ostringstream os;
    os << "{\"op\":\"grid\"" << id << ",\"ok\":true,\"cells\":" << cells.size()
       << ",\"computed\":" << computed << ",\"from_cache\":" << from_cache
       << ",\"from_store\":" << from_store << '}';
    emit(os.str());
  } catch (const std::exception& error) {
    emit(error_response("grid", id, error.what()));
  }
}

}  // namespace

bool handle_request(QueryService& service, const std::string& line,
                    const std::function<void(const std::string&)>& emit) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return true;
  json::Value request;
  std::string parse_error;
  if (!json::parse(line, &request, &parse_error) || !request.is_object()) {
    emit(error_response("", "", "malformed request: " + parse_error));
    return true;
  }
  const std::string id = id_echo(request);
  const json::Value* op = request.find("op");
  if (op == nullptr || !op->is_string()) {
    emit(error_response("", id, "request needs an \"op\" string"));
    return true;
  }

  if (op->string == "ping") {
    emit("{\"op\":\"ping\"" + id + ",\"ok\":true}");
    return true;
  }
  if (op->string == "shutdown") {
    emit("{\"op\":\"shutdown\"" + id + ",\"ok\":true}");
    return false;
  }
  if (op->string == "stats") {
    const QueryService::Stats stats = service.stats();
    std::ostringstream os;
    os << "{\"op\":\"stats\"" << id << ",\"ok\":true,\"queries\":"
       << stats.queries << ",\"cache_hits\":" << stats.cache_hits
       << ",\"store_hits\":" << stats.store_hits << ",\"computed\":"
       << stats.computed << ",\"coalesced\":" << stats.coalesced
       << ",\"errors\":" << stats.errors;
    if (const ResultStore* store = service.options().store; store != nullptr) {
      os << ",\"store_records\":" << store->size() << ",\"store_path\":\""
         << json_escape(store->path()) << '"';
    }
    os << '}';
    emit(os.str());
    return true;
  }
  if (op->string == "metrics") {
    // Prometheus text exposition of the process-wide registry, JSON-
    // escaped into one field — a scraper unescapes "metrics" and has the
    // standard format.  Touching the handles first guarantees every serve
    // metric (all tiers) is present even on a fresh daemon.
    ServeMetrics::get();
    const std::string text = obs::global_metrics().snapshot().prometheus_text();
    emit("{\"op\":\"metrics\"" + id +
         ",\"ok\":true,\"format\":\"prometheus\",\"metrics\":\"" +
         json_escape(text) + "\"}");
    return true;
  }
  if (op->string == "query") {
    const json::Value* scenario_text = request.find("scenario");
    if (scenario_text == nullptr || !scenario_text->is_string()) {
      emit(error_response("query", id,
                          "query request needs a \"scenario\" string"));
      return true;
    }
    emit(query_response(id, service.query_text(scenario_text->string)));
    return true;
  }
  if (op->string == "grid") {
    handle_grid(service, request, id, emit);
    return true;
  }
  emit(error_response(
      op->string, id,
      "unknown op (known: query, grid, stats, metrics, ping, shutdown)"));
  return true;
}

}  // namespace routesim::serve
