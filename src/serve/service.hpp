#pragma once
/// \file service.hpp
/// \brief The query service behind the `routesim_serve` daemon: many
///        concurrent clients against one warm engine.  A query is
///        answered from the in-process cache, else by joining an identical
///        in-flight query, else by a one-cell `Engine::run` (check, store,
///        compute), so identical concurrent queries fund exactly one
///        computation.
///
/// This is the "millions of users" story of the ROADMAP made concrete:
/// the daemon process stays warm, the `ResultStore` makes its answers
/// durable across restarts, and `QueryService::query()` is safe to call
/// from any number of transport threads (stdio, Unix socket, TCP — see
/// tools/routesim_serve.cpp).  The wire protocol is line-delimited JSON;
/// handle_request() implements it transport-agnostically so tests can
/// drive the protocol without a socket (tests/test_serve.cpp) and the
/// production harness can drive it black-box (tools/production_test.py).
///
/// Protocol (one JSON object per line, documented in docs/SERVE.md):
///   {"op":"query","scenario":"hypercube_greedy d=6 ...","id":1}
///   {"op":"grid","scenario":"<base>","axes":["rho=0.1:0.9:0.2"],"id":2}
///   {"op":"stats"} | {"op":"metrics"} | {"op":"ping"} | {"op":"shutdown"}
/// Responses echo `id` and carry ok/source/result; grid streams one
/// "cell" line per finished cell before its summary line.  "metrics"
/// returns the process-wide registry (obs/metrics.hpp) as Prometheus text
/// exposition — per-tier query counters and latency histograms
/// (routesim_serve_*) plus the engine/kernel metrics; docs/OBSERVABILITY.md
/// catalogs the names.

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "store/result_store.hpp"

namespace routesim::serve {

struct ServiceOptions {
  /// Engine worker-pool width per computation (EngineOptions::threads);
  /// 0 = hardware concurrency.
  int threads = 0;
  /// Durable tier, shared with other processes via its file; optional.
  ResultStore* store = nullptr;
};

/// Thread-safe scenario-query front end over the campaign engine.
class QueryService {
 public:
  explicit QueryService(ServiceOptions options) : options_(options) {}

  struct QueryResult {
    bool ok = false;
    std::string error;        ///< set when !ok
    /// Which tier answered: "cache" (in-process), "store" (persistent,
    /// incl. records another process wrote), "computed" (this call's
    /// engine run computed it) — these three are CellResult::tier() —
    /// or "inflight" (coalesced onto a concurrent identical query).
    std::string source;
    std::string key;          ///< ResultCache::key, the store key
    Scenario scenario;        ///< resolved form actually answered
    RunResult result;
  };

  /// Answers one scenario; never throws (errors come back in the result).
  /// Also feeds the serve metrics (routesim_serve_* counters and the
  /// per-tier latency histogram matching QueryResult::source).
  [[nodiscard]] QueryResult query(const Scenario& scenario);
  /// Same, from the textual "scheme key=value ..." form.
  [[nodiscard]] QueryResult query_text(const std::string& scenario_text);

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t computed = 0;
    std::uint64_t coalesced = 0;  ///< waited on another client's computation
    std::uint64_t errors = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  /// Engine options wired to this service's cache + store: the engine
  /// behind every cache miss and every grid request.
  [[nodiscard]] EngineOptions engine_options();

 private:
  /// The answer path: cache, else in-flight, else the engine.
  [[nodiscard]] QueryResult answer(const Scenario& scenario);
  /// Counts one answer in stats_ and the serve metrics, by its source.
  void count(const QueryResult& answered, double seconds);

  ServiceOptions options_;
  ResultCache cache_;
  mutable std::mutex stats_mutex_;
  Stats stats_{};
  std::mutex inflight_mutex_;
  /// The leader's answer per key being answered, for coalesced followers.
  std::unordered_map<std::string, std::shared_future<QueryResult>> inflight_;
};

/// Executes one protocol line against `service`, emitting zero or more
/// response lines (without trailing newline) through `emit`.  Returns
/// false exactly when the request was a valid "shutdown" — the transport
/// should stop its loop.  Malformed requests produce one ok:false
/// response and return true.
bool handle_request(QueryService& service, const std::string& line,
                    const std::function<void(const std::string&)>& emit);

}  // namespace routesim::serve
