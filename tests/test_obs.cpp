// Observability tests: metrics registry exactness under concurrent
// increments, Prometheus text exposition, Chrome trace-event JSON shape
// (balanced B/E per thread, monotone timestamps, instant scoping), the
// hard never-perturb-results guarantee (a traced campaign is
// bit-identical to an untraced one, and store records never grow
// telemetry fields), the JsonlSink tier/wall_time_s schema additions,
// and the serve daemon's `metrics` op round trip.

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "serve/service.hpp"
#include "store/result_store.hpp"
#include "util/json_parse.hpp"

namespace routesim {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, ConcurrentCounterAddsAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("hits_total");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&hits] {
        for (int i = 0; i < kAddsPerThread; ++i) hits.add();
      });
    }
  }
  // atomic_add is a CAS loop per shard, so no increment is ever lost.
  EXPECT_DOUBLE_EQ(hits.value(), double(kThreads) * kAddsPerThread);

  // Same name returns the same instance; a different name does not.
  EXPECT_EQ(&registry.counter("hits_total"), &hits);
  EXPECT_NE(&registry.counter("misses_total"), &hits);
}

TEST(Metrics, GaugeSetAndAdjust) {
  obs::MetricsRegistry registry;
  obs::Gauge& busy = registry.gauge("busy_workers");
  EXPECT_DOUBLE_EQ(busy.value(), 0.0);
  busy.set(4.0);
  busy.add(1.0);
  busy.add(-2.0);
  EXPECT_DOUBLE_EQ(busy.value(), 3.0);
}

TEST(Metrics, HistogramBucketsAndSnapshotCumulative) {
  obs::MetricsRegistry registry;
  obs::HistogramMetric& latency =
      registry.histogram("latency_seconds", {0.001, 0.01, 0.1});
  latency.observe(0.0005);  // le 0.001
  latency.observe(0.005);   // le 0.01
  latency.observe(0.005);   // le 0.01
  latency.observe(0.05);    // le 0.1
  latency.observe(5.0);     // +Inf overflow

  const auto totals = latency.totals();
  ASSERT_EQ(totals.bucket_counts.size(), 4u);
  EXPECT_EQ(totals.bucket_counts[0], 1u);
  EXPECT_EQ(totals.bucket_counts[1], 2u);
  EXPECT_EQ(totals.bucket_counts[2], 1u);
  EXPECT_EQ(totals.bucket_counts[3], 1u);
  EXPECT_EQ(totals.count, 5u);
  EXPECT_NEAR(totals.sum, 0.0005 + 0.005 + 0.005 + 0.05 + 5.0, 1e-12);

  const auto snapshot = registry.snapshot();
  const auto* item = snapshot.find("latency_seconds");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->kind, obs::MetricsSnapshot::Kind::kHistogram);
  // Snapshot counts are cumulative (Prometheus `le`): last bucket == count.
  ASSERT_EQ(item->cumulative.size(), 4u);
  EXPECT_EQ(item->cumulative[0], 1u);
  EXPECT_EQ(item->cumulative[1], 3u);
  EXPECT_EQ(item->cumulative[2], 4u);
  EXPECT_EQ(item->cumulative[3], 5u);
  EXPECT_EQ(item->cumulative.back(), item->count);
}

TEST(Metrics, PrometheusTextExposition) {
  obs::MetricsRegistry registry;
  registry.counter("requests_total").add(3.0);
  registry.gauge("pool_workers").set(2.0);
  registry.histogram("wait_seconds", {0.5}).observe(0.25);

  const std::string text = registry.snapshot().prometheus_text();
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pool_workers gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wait_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"0.5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("wait_seconds_sum 0.25"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_count 1"), std::string::npos);
}

// ------------------------------------------------------------------ trace

/// Parses a session's export and checks the Chrome trace-event contract:
/// per-tid stack-balanced B/E with matching names, per-tid monotone
/// non-decreasing ts, instants carrying the scope field.  Returns the
/// parsed events for further inspection.
std::vector<json::Value> check_trace_contract(const obs::TraceSession& session) {
  json::Value doc;
  std::string error;
  EXPECT_TRUE(json::parse(session.to_json(), &doc, &error)) << error;
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    ADD_FAILURE() << "traceEvents missing or not an array";
    return {};
  }
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  for (const json::Value& event : events->array) {
    const std::string name = event.find("name")->string;
    const std::string ph = event.find("ph")->string;
    const int tid = static_cast<int>(event.find("tid")->number);
    const double ts = event.find("ts")->number;
    EXPECT_GE(ts, 0.0);
    auto [it, inserted] = last_ts.try_emplace(tid, ts);
    if (!inserted) {
      EXPECT_GE(ts, it->second) << "ts regressed on tid " << tid;
      it->second = ts;
    }
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else if (ph == "E") {
      if (stacks[tid].empty()) {
        ADD_FAILURE() << "E without B: " << name;
        continue;
      }
      EXPECT_EQ(stacks[tid].back(), name);
      stacks[tid].pop_back();
    } else {
      EXPECT_EQ(ph, "i") << name;
      const json::Value* scope = event.find("s");
      if (scope == nullptr) {
        ADD_FAILURE() << "instant missing scope: " << name;
        continue;
      }
      EXPECT_EQ(scope->string, "t");
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  return events->array;
}

bool has_event(const std::vector<json::Value>& events,
               const std::string& name) {
  for (const json::Value& event : events) {
    if (event.find("name")->string == name) return true;
  }
  return false;
}

TEST(Trace, MultiThreadSpansBalanceAndTimestampsAreMonotone) {
  obs::TraceSession session;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&session] {
        for (int i = 0; i < 50; ++i) {
          obs::TraceSpan outer(&session, "outer", "test");
          obs::TraceSpan inner(&session, "inner", "test", "{\"i\":1}");
        }
        session.instant("tick", "test");
      });
    }
  }
  EXPECT_EQ(session.event_count(), 4u * (50u * 4u + 1u));
  const auto events = check_trace_contract(session);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(has_event(events, "outer"));
  EXPECT_TRUE(has_event(events, "tick"));
  // Four worker threads -> four distinct tids, numbered from 0.
  std::map<int, int> per_tid;
  for (const json::Value& event : events) {
    ++per_tid[static_cast<int>(event.find("tid")->number)];
  }
  EXPECT_EQ(per_tid.size(), 4u);
  for (const auto& [tid, count] : per_tid) {
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, 4);
    EXPECT_EQ(count, 50 * 4 + 1);
  }
}

TEST(Trace, NullSessionHelpersAreNoOps) {
  obs::ThreadTraceScope off(nullptr);
  EXPECT_EQ(obs::thread_trace(), nullptr);
  obs::TraceSpan span(obs::thread_trace(), "ghost", "test");  // must not crash
}

TEST(Trace, ArgsLandInTheExportedJson) {
  obs::TraceSession session;
  {
    obs::TraceSpan span(&session, "replication", "engine",
                        "{\"cell\":3,\"rep\":1}");
  }
  session.instant("cache.hit", "engine", "{\"cell\":7}");
  const auto events = check_trace_contract(session);
  ASSERT_EQ(events.size(), 3u);
  const json::Value* args = events[0].find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->find("cell"), nullptr);
  EXPECT_DOUBLE_EQ(args->find("cell")->number, 3.0);
  EXPECT_DOUBLE_EQ(events[2].find("args")->find("cell")->number, 7.0);
}

// ------------------------------------------- tracing never perturbs results

/// A cheap campaign covering the continuous and slotted kernel and the
/// butterfly shape — the surfaces tracing instruments.
Campaign traced_parity_campaign() {
  Campaign campaign("traced_parity");
  for (const char* text :
       {"hypercube_greedy d=5 rho=0.6 measure=200 reps=3 seed=31",
        "hypercube_greedy d=4 rho=0.5 tau=1 measure=200 reps=2 seed=32",
        "butterfly_greedy d=4 rho=0.4 measure=200 reps=2 seed=33",
        "valiant_mixing d=4 rho=0.3 measure=200 reps=2 seed=34"}) {
    campaign.add(Scenario::parse_text(text));
  }
  return campaign;
}

TEST(Trace, TracedCampaignIsBitIdenticalToUntraced) {
  const Campaign campaign = traced_parity_campaign();

  EngineOptions plain_options;
  plain_options.threads = 2;
  const auto plain = Engine(plain_options).run(campaign);

  obs::TraceSession session;
  EngineOptions traced_options;
  traced_options.threads = 2;
  traced_options.trace = &session;
  const auto traced = Engine(traced_options).run(campaign);

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE(campaign.cells()[i].label);
    // Bit-identity through the exact serialisation the store uses.
    EXPECT_EQ(result_to_json(traced[i].result),
              result_to_json(plain[i].result));
  }

  // The traced run actually recorded the engine and kernel span taxonomy.
  const auto events = check_trace_contract(session);
  ASSERT_FALSE(events.empty());
  for (const char* name : {"campaign.run", "campaign.compile", "cell.compile",
                           "worker", "replication", "cell.assemble",
                           "kernel.drive"}) {
    EXPECT_TRUE(has_event(events, name)) << name;
  }
}

// The pipelined baseline drives the kernel once per round; its trace still
// shows one kernel.drive span per replication, however many rounds the
// window holds.
TEST(Trace, PipelinedBaselineRecordsOneDriveSpanPerReplication) {
  for (const char* measure : {"500", "2000"}) {
    SCOPED_TRACE(measure);
    Campaign campaign("pipelined");
    campaign.add(Scenario::parse_text(
        std::string("pipelined_baseline d=6 lambda=0.01 reps=2 measure=") +
        measure));
    obs::TraceSession session;
    EngineOptions options;
    options.threads = 2;
    options.trace = &session;
    (void)Engine(options).run(campaign);
    std::size_t drives = 0;
    for (const json::Value& event : check_trace_contract(session)) {
      drives += event.find("name")->string == "kernel.drive" &&
                event.find("ph")->string == "B";
    }
    EXPECT_EQ(drives, 2u);
  }
}

TEST(Trace, EngineRecordsCacheAndStoreInstants) {
  const std::string path = ::testing::TempDir() + "obs_store_instants.jsonl";
  std::remove(path.c_str());

  Campaign campaign("instants");
  const Scenario cell =
      Scenario::parse_text("hypercube_greedy d=4 rho=0.5 measure=100 reps=2 seed=41");
  campaign.add("a", cell);
  campaign.add("b", cell);  // in-campaign duplicate -> served without recompute

  ResultStore store(path);
  ASSERT_TRUE(store.ok()) << store.error();
  {  // Cold run populates the store.
    EngineOptions options;
    options.threads = 1;
    options.store = &store;
    (void)Engine(options).run(campaign);
  }

  obs::TraceSession session;
  ResultCache cache;
  EngineOptions options;
  options.threads = 1;
  options.cache = &cache;
  options.store = &store;
  options.trace = &session;
  const auto cells = Engine(options).run(campaign);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0].from_store);
  EXPECT_STREQ(cells[0].tier(), "store");
  EXPECT_STREQ(cells[1].tier(), "cache");

  const auto events = check_trace_contract(session);
  EXPECT_TRUE(has_event(events, "store.hit"));
  EXPECT_TRUE(has_event(events, "cache.hit"));

  // The store file itself must never grow telemetry fields: records stay
  // bit-identical whether or not the producing run was traced/timed.
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.find("wall_time_s"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"tier\""), std::string::npos) << line;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- JsonlSink schema v2

TEST(JsonlSink, CellLinesCarryTierAndWallTime) {
  Campaign campaign("schema");
  campaign.add(
      Scenario::parse_text("hypercube_greedy d=4 rho=0.5 measure=100 reps=2 seed=51"));

  MemorySink memory;
  EngineOptions options;
  options.threads = 1;
  options.sinks = {&memory};
  (void)Engine(options).run(campaign);
  ASSERT_EQ(memory.results().size(), 1u);
  const CellResult& cell = memory.results()[0];
  EXPECT_STREQ(cell.tier(), "computed");
  EXPECT_GT(cell.wall_time_s, 0.0);

  const std::string line = JsonlSink::to_json("schema", cell);
  json::Value record;
  std::string error;
  ASSERT_TRUE(json::parse(line, &record, &error)) << error;
  ASSERT_NE(record.find("tier"), nullptr);
  EXPECT_EQ(record.find("tier")->string, "computed");
  ASSERT_NE(record.find("wall_time_s"), nullptr);
  EXPECT_DOUBLE_EQ(record.find("wall_time_s")->number, cell.wall_time_s);

  // v1 tolerance: a reader of the documented schema still works on lines
  // without the new fields — find() simply reports them absent, and every
  // pre-existing field is untouched.
  const std::string::size_type tier_at = line.find(",\"tier\"");
  const std::string::size_type rho_at = line.find(",\"rho\"");
  ASSERT_NE(tier_at, std::string::npos);
  ASSERT_NE(rho_at, std::string::npos);
  const std::string v1_line =
      line.substr(0, tier_at) + line.substr(rho_at);  // drop tier+wall_time_s
  json::Value v1;
  ASSERT_TRUE(json::parse(v1_line, &v1, &error)) << error;
  EXPECT_EQ(v1.find("tier"), nullptr);
  EXPECT_EQ(v1.find("wall_time_s"), nullptr);
  ASSERT_NE(v1.find("scenario"), nullptr);
  EXPECT_EQ(v1.find("scenario")->string, record.find("scenario")->string);
  EXPECT_DOUBLE_EQ(v1.find("rho")->number, record.find("rho")->number);
}

// ------------------------------------------------------- serve metrics op

TEST(ServeMetrics, MetricsOpReturnsPrometheusTextWithTierHistograms) {
  serve::QueryService service({0, nullptr});
  // One computed query, one cache hit -> both tiers have observations.
  const char* tiny = "hypercube_greedy d=4 rho=0.5 measure=100 reps=2 seed=61";
  ASSERT_TRUE(service.query_text(tiny).ok);
  ASSERT_TRUE(service.query_text(tiny).ok);

  std::vector<std::string> responses;
  EXPECT_TRUE(serve::handle_request(
      service, R"({"op":"metrics","id":9})",
      [&](const std::string& text) { responses.push_back(text); }));
  ASSERT_EQ(responses.size(), 1u);

  json::Value reply;
  std::string error;
  ASSERT_TRUE(json::parse(responses[0], &reply, &error)) << error;
  EXPECT_TRUE(reply.find("ok")->boolean);
  EXPECT_DOUBLE_EQ(reply.find("id")->number, 9.0);
  EXPECT_EQ(reply.find("format")->string, "prometheus");

  const std::string& text = reply.find("metrics")->string;
  for (const char* name :
       {"routesim_serve_queries_total", "routesim_serve_cache_hits_total",
        "routesim_serve_computed_total",
        "routesim_serve_query_seconds_cache_bucket",
        "routesim_serve_query_seconds_store_bucket",
        "routesim_serve_query_seconds_computed_bucket",
        "routesim_engine_cells_computed_total"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // The process-wide registry is shared state, so assert floors, not
  // exact values (other tests in this binary also query/compute).
  const auto snapshot = obs::global_metrics().snapshot();
  const auto* queries = snapshot.find("routesim_serve_queries_total");
  ASSERT_NE(queries, nullptr);
  EXPECT_GE(queries->value, 2.0);
  const auto* cache_hist =
      snapshot.find("routesim_serve_query_seconds_cache");
  ASSERT_NE(cache_hist, nullptr);
  EXPECT_GE(cache_hist->count, 1u);
}

}  // namespace
}  // namespace routesim
