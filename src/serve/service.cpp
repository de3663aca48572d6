#include "serve/service.hpp"

#include <array>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace routesim::serve {

namespace {

/// Handles into the process-wide registry (obs/metrics.hpp), resolved
/// once.  Touching get() registers every serve metric, so a `metrics`
/// scrape shows all tiers (zero-valued) even before the first query.
struct ServeMetrics {
  /// One answer tier: its QueryResult::source, its Stats tally, its
  /// counter and its latency histogram.
  struct Tier {
    std::string_view source;
    std::uint64_t QueryService::Stats::*tally;
    obs::Counter& answers;
    obs::HistogramMetric& seconds;
  };
  obs::Counter& queries;
  obs::Counter& errors;
  std::array<Tier, 4> tiers;

  static ServeMetrics& get() {
    using Stats = QueryService::Stats;
    auto& r = obs::global_metrics();
    static ServeMetrics metrics{
        r.counter("routesim_serve_queries_total"),
        r.counter("routesim_serve_errors_total"),
        {{{"cache", &Stats::cache_hits,
           r.counter("routesim_serve_cache_hits_total"),
           r.histogram("routesim_serve_query_seconds_cache")},
          {"store", &Stats::store_hits,
           r.counter("routesim_serve_store_hits_total"),
           r.histogram("routesim_serve_query_seconds_store")},
          {"computed", &Stats::computed,
           r.counter("routesim_serve_computed_total"),
           r.histogram("routesim_serve_query_seconds_computed")},
          {"inflight", &Stats::coalesced,
           r.counter("routesim_serve_coalesced_total"),
           r.histogram("routesim_serve_query_seconds_inflight")}}}};
    return metrics;
  }
};

}  // namespace

EngineOptions QueryService::engine_options() {
  return {.threads = options_.threads, .cache = &cache_, .store = options_.store};
}

QueryService::QueryResult QueryService::query_text(
    const std::string& scenario_text) {
  std::optional<Scenario> scenario;
  try {
    scenario.emplace(Scenario::parse_text(scenario_text));
  } catch (const std::exception& error) {
    QueryResult qr;
    qr.error = error.what();
    count(qr, 0.0);
    return qr;
  }
  return query(*scenario);
}

QueryService::QueryResult QueryService::query(const Scenario& scenario) {
  const auto start = std::chrono::steady_clock::now();
  QueryResult qr = answer(scenario);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  count(qr, elapsed.count());
  return qr;
}

void QueryService::count(const QueryResult& answered, double seconds) {
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.queries.add();
  std::uint64_t Stats::*tally = &Stats::errors;
  for (ServeMetrics::Tier& tier : metrics.tiers) {
    if (!answered.ok || tier.source != answered.source) continue;
    tally = tier.tally;
    tier.answers.add();
    tier.seconds.observe(seconds);
  }
  if (!answered.ok) metrics.errors.add();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.queries;
  ++(stats_.*tally);
}

QueryService::QueryResult QueryService::answer(const Scenario& scenario) {
  QueryResult qr;
  try {
    qr.cell.emplace(KeyedScenario::admit(scenario));
  } catch (const std::exception& error) {
    qr.error = error.what();
    return qr;
  }
  const std::string& key = qr.cell->key();

  // Cache hits need no check: every entry came from the engine, which
  // checks a cell before it looks the cell up or computes it.
  if ((qr.answer = cache_.lookup(key))) {
    qr.ok = true;
    qr.source = "cache";
    return qr;
  }

  // Join (or become) the one in-flight answer for this key, so N
  // concurrent clients asking the same scenario fund one engine run.
  std::promise<std::shared_ptr<EngineRun>> starting;
  std::promise<std::shared_ptr<const RenderedResult>> leading;
  InFlight led;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto [it, leader] = inflight_.try_emplace(
        key, InFlight{starting.get_future().share(), leading.get_future().share()});
    if (!leader) led = it->second;
  }
  if (led.answer.valid()) {
    // A follower runs the leader's remaining replications instead of
    // blocking (waiting first for phase 1 to hand out the task list), then
    // takes the answer the leader publishes.  Which thread runs a
    // replication never changes a number.
    qr.source = "inflight";
    try {
      if (const std::shared_ptr<EngineRun> run = led.run.get()) run->join();
      qr.answer = led.answer.get();
      qr.ok = true;
    } catch (const std::exception& error) {
      qr.error = error.what();
    }
    return qr;
  }

  // The engine takes the cell as keyed here, checks it against its
  // scheme's row, then answers it from the cache (another client may have
  // just filled it), the store, or a computation it persists and caches;
  // either way the answer is the cache entry it read or inserted.
  try {
    Campaign single("serve");
    single.add(*qr.cell);
    std::shared_ptr<EngineRun> run;
    try {
      run = Engine(engine_options()).start(single);
    } catch (...) {
      starting.set_value(nullptr);  // nothing to join: followers take the error
      throw;
    }
    starting.set_value(run);
    run->join_pool();
    CellResult cell = std::move(run->finish().front());
    qr.answer = std::move(cell.cached);
    RS_ENSURES(qr.answer != nullptr);  // the engine runs with cache_
    qr.source = cell.tier();
    qr.ok = true;
    leading.set_value(qr.answer);
  } catch (const std::exception& error) {
    qr.error = error.what();
    leading.set_exception(std::current_exception());
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
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

/// One answer line, built in one string: the key is escaped into it in
/// one scan (and that span reused as the scenario text when the two are
/// equal, as they are unless a result-neutral key is off its default or a
/// trace file is hashed in), and the result is the cache entry's
/// pre-rendered JSON.
std::string query_response(const std::string& id,
                           const QueryService::QueryResult& qr) {
  if (!qr.ok) return error_response("query", id, qr.error);
  const KeyedScenario& cell = *qr.cell;
  const bool same = cell.text() == cell.key();
  const std::string& result = qr.answer->json;
  std::string out;
  out.reserve(64 + id.size() + cell.key().size() + cell.text().size() +
              result.size());
  out.append("{\"op\":\"query\"").append(id)
      .append(",\"ok\":true,\"source\":\"").append(qr.source)
      .append("\",\"key\":\"");
  const std::size_t key_begin = out.size();
  append_json_escaped(out, cell.key());
  const std::size_t key_size = out.size() - key_begin;
  out.append("\",\"scenario\":\"");
  if (same) {
    out.append(out, key_begin, key_size);
  } else {
    append_json_escaped(out, cell.text());
  }
  out.append("\",\"result\":").append(result).append("}");
  return out;
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

    std::map<std::string_view, std::size_t> by_tier;
    ProgressSink stream([&](const CellResult& cell) {
      ++by_tier[cell.tier()];
      std::ostringstream os;
      os << "{\"op\":\"cell\"" << id << ",\"cell\":" << cell.index
         << ",\"label\":\"" << json_escape(cell.label) << "\",\"source\":\""
         << cell.tier() << "\",\"scenario\":\""
         << json_escape(cell.scenario.to_string())
         << "\",\"result\":" << cell.cached->json << '}';
      emit(os.str());
    });
    EngineOptions options = service.engine_options();
    options.sinks.push_back(&stream);
    const auto cells = Engine(options).run(campaign);
    std::ostringstream os;
    os << "{\"op\":\"grid\"" << id << ",\"ok\":true,\"cells\":" << cells.size()
       << ",\"computed\":" << by_tier["computed"]
       << ",\"from_cache\":" << by_tier["cache"]
       << ",\"from_store\":" << by_tier["store"] << '}';
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
    // metric (all tiers) and every engine metric is present even on a
    // fresh daemon.
    ServeMetrics::get();
    Engine::register_metrics();
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
