// Query-service tests: the three-tier answer path (cache -> store ->
// compute), in-flight coalescing of concurrent identical queries,
// store-backed answers across a service "restart", and the line-delimited
// JSON protocol driven transport-free through handle_request().

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "store/result_store.hpp"
#include "util/json_parse.hpp"
#include "workload/destination.hpp"
#include "workload/trace.hpp"

namespace routesim {
namespace {

using serve::QueryService;

/// Cheap scenario in its textual protocol form.
const char* kTinyText =
    "hypercube_greedy d=4 rho=0.5 measure=100 reps=2 seed=5";

std::string temp_store(const std::string& name) {
  const std::string path = ::testing::TempDir() + "serve_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(QueryService, ComputesThenServesFromCache) {
  QueryService service({0, nullptr});

  const auto first = service.query_text(kTinyText);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.source, "computed");
  EXPECT_FALSE(first.key.empty());

  const auto second = service.query_text(kTinyText);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.source, "cache");
  EXPECT_EQ(second.key, first.key);
  EXPECT_EQ(result_to_json(second.result), result_to_json(first.result));

  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(QueryService, BadScenarioTextIsAnErrorNotAThrow) {
  QueryService service({0, nullptr});
  const auto qr = service.query_text("no_such_scheme d=4");
  EXPECT_FALSE(qr.ok);
  EXPECT_FALSE(qr.error.empty());
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(QueryService, StoreAnswersAcrossRestart) {
  const std::string path = temp_store("restart.jsonl");
  std::string key;
  std::string result_json;
  {
    ResultStore store(path);
    ASSERT_TRUE(store.ok()) << store.error();
    QueryService service({0, &store});
    const auto computed = service.query_text(kTinyText);
    ASSERT_TRUE(computed.ok) << computed.error;
    EXPECT_EQ(computed.source, "computed");
    key = computed.key;
    result_json = result_to_json(computed.result);
    EXPECT_TRUE(store.contains(key));  // run_one persisted through the seam
  }

  // A fresh store + service (a daemon restart): the answer comes from
  // disk, bit-identical, without recomputation.
  ResultStore store(path);
  ASSERT_TRUE(store.ok());
  QueryService service({0, &store});
  const auto from_disk = service.query_text(kTinyText);
  ASSERT_TRUE(from_disk.ok);
  EXPECT_EQ(from_disk.source, "store");
  EXPECT_EQ(from_disk.key, key);
  EXPECT_EQ(result_to_json(from_disk.result), result_json);

  // The store hit was promoted into the in-process cache.
  EXPECT_EQ(service.query_text(kTinyText).source, "cache");
  const auto stats = service.stats();
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.computed, 0u);
}

// A record stored under a knob its scheme's capability row rejects
// (fanout on hypercube_greedy, say from an older build) is never answered:
// the engine and the query service check a scenario before they fetch it.
TEST(QueryService, StoreRecordsAreCheckedBeforeTheyAreAnswered) {
  const std::string path = temp_store("rejected.jsonl");
  const std::string text = std::string(kTinyText) + " fanout=2";
  {
    // A record the row rejects, as an older build could have written it:
    // put() refuses it, so plant it through the raw append.
    ResultStore store(path);
    ASSERT_TRUE(store.ok()) << store.error();
    const Scenario rejected = Scenario::parse_text(text).resolved();
    store.persist(ResultCache::key(rejected), rejected,
                  run(Scenario::parse_text(kTinyText)));
  }
  ResultStore store(path);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store.size(), 1u);

  EngineOptions options;
  options.store = &store;
  try {
    (void)Engine(options).run_one(Scenario::parse_text(text));
    FAIL() << "the engine answered a rejected scenario from the store";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("fanout"), std::string::npos)
        << error.what();
  }

  // The service's leader hands the engine the cell it keyed; the engine
  // still checks it before the store lookup.
  QueryService service({0, &store});
  const auto qr = service.query_text(text);
  EXPECT_FALSE(qr.ok);
  EXPECT_NE(qr.error.find("fanout"), std::string::npos) << qr.error;
  EXPECT_EQ(service.stats().store_hits, 0u);
  EXPECT_EQ(service.stats().errors, 1u);

  // Concurrent clients: whether a client leads the query or is coalesced
  // onto another client's, it gets the leader's error, never the record.
  constexpr int kClients = 8;
  std::vector<QueryService::QueryResult> results(kClients);
  {
    std::vector<std::jthread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] { results[i] = service.query_text(text); });
    }
  }
  for (const auto& client : results) {
    EXPECT_FALSE(client.ok);
    EXPECT_EQ(client.error, qr.error);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.store_hits, 0u);
  EXPECT_EQ(stats.errors, 1u + kClients);
  EXPECT_EQ(store.hits(), 0u);
}

// The key a query reports is the key the engine persisted it under: the
// leader's keyed cell reaches the engine as is, so a rho target is solved
// and a trace file fingerprinted once for both.
TEST(QueryService, AnswerKeyIsTheKeyTheEnginePersists) {
  const std::string trace_path = temp_store("key_trace.jsonl");
  save_trace_jsonl(generate_hypercube_trace(
                       4, 0.5, DestinationDistribution::uniform(4), 300.0, 9),
                   trace_path);
  const std::string store_path = temp_store("one_key.jsonl");
  ResultStore store(store_path);
  ASSERT_TRUE(store.ok()) << store.error();
  QueryService service({0, &store});

  const std::vector<std::string> texts{
      kTinyText,  // a rho= target
      "hypercube_greedy d=4 workload=trace trace_file=" + trace_path +
          " warmup=50 horizon=250 reps=2 seed=5"};
  for (std::size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE(texts[i]);
    const auto qr = service.query_text(texts[i]);
    ASSERT_TRUE(qr.ok) << qr.error;
    EXPECT_EQ(qr.source, "computed");
    const std::vector<std::string> keys = store.keys();
    ASSERT_EQ(keys.size(), i + 1);
    EXPECT_EQ(keys.back(), qr.key);
    EXPECT_EQ(qr.key, ResultCache::key(Scenario::parse_text(texts[i])));
  }
  EXPECT_NE(store.keys().back().find(" trace_hash="), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(ResultCacheKey, TraceFileContentIsHashedIntoTheKey) {
  const std::string path = temp_store("trace_key.jsonl");
  {
    std::ofstream out(path);
    out << "{\"t\":0.5,\"src\":0,\"dst\":1}\n";
  }
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 4;
  scenario.set("workload", "trace");
  scenario.set("trace_file", path);

  const std::string first = ResultCache::key(scenario);
  EXPECT_NE(first.find("trace_hash="), std::string::npos) << first;

  // Same scenario text, different file bytes: the key must change, so a
  // rewritten trace can never hit a stale stored result.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"t\":0.5,\"src\":0,\"dst\":2}\n";
  }
  const std::string second = ResultCache::key(scenario);
  EXPECT_NE(second, first);
  EXPECT_NE(second.find("trace_hash="), std::string::npos) << second;

  // Scenarios without a trace file keep their plain canonical-text keys.
  Scenario plain;
  EXPECT_EQ(ResultCache::key(plain).find("trace_hash="), std::string::npos);
  std::remove(path.c_str());
}

TEST(ResultCacheKey, StormKnobsArePartOfTheKey) {
  Scenario base;
  base.scheme = "hypercube_greedy";
  base.d = 5;
  base.set("fault_policy", "adaptive");

  Scenario stormy = base;
  stormy.set("storm_rate", "0.05");
  stormy.set("storm_duration", "20");
  EXPECT_NE(ResultCache::key(stormy), ResultCache::key(base));

  Scenario wider = stormy;
  wider.set("storm_radius", "2");
  EXPECT_NE(ResultCache::key(wider), ResultCache::key(stormy));

  // The key is the canonical textual form: it parses back to the same
  // scenario, storms and all.
  const std::string key = ResultCache::key(wider);
  const std::string text_key = key.substr(0, key.find(" trace_hash="));
  std::vector<std::string> args;
  std::string token;
  for (const char c : text_key) {
    if (c == ' ') {
      if (!token.empty()) args.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) args.push_back(token);
  Scenario canonical = wider.resolved();
  canonical.backend = "scalar";  // the key normalizes the spelling out
  EXPECT_EQ(Scenario::parse(args), canonical);
}

TEST(QueryService, ConcurrentIdenticalQueriesFundOneComputation) {
  QueryService service({0, nullptr});
  constexpr int kClients = 8;
  std::vector<QueryService::QueryResult> results(kClients);
  {
    std::vector<std::jthread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back(
          [&, i] { results[i] = service.query_text(kTinyText); });
    }
  }
  const std::string expected = result_to_json(results[0].result);
  for (const auto& qr : results) {
    ASSERT_TRUE(qr.ok) << qr.error;
    EXPECT_EQ(result_to_json(qr.result), expected);
  }
  // Exactly one engine run; every other client either coalesced onto it
  // or arrived after it finished and hit the cache.
  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.coalesced + stats.cache_hits,
            static_cast<std::uint64_t>(kClients - 1));
}

// ---------------------------------------------------------------- protocol

/// Runs one protocol line, returning the emitted responses (parsed).
std::vector<json::Value> roundtrip(QueryService& service,
                                   const std::string& line,
                                   bool* keep_going = nullptr) {
  std::vector<json::Value> responses;
  const bool going =
      serve::handle_request(service, line, [&](const std::string& text) {
        json::Value value;
        ASSERT_TRUE(json::parse(text, &value)) << text;
        responses.push_back(std::move(value));
      });
  if (keep_going != nullptr) *keep_going = going;
  return responses;
}

const json::Value* field(const json::Value& object, const std::string& name) {
  const json::Value* value = object.find(name);
  EXPECT_NE(value, nullptr) << "missing field " << name;
  return value;
}

TEST(ServeProtocol, PingEchoesIdAndShutdownStopsTheLoop) {
  QueryService service({0, nullptr});
  const auto pong = roundtrip(service, R"({"op":"ping","id":41})");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_TRUE(field(pong[0], "ok")->boolean);
  EXPECT_EQ(field(pong[0], "id")->number, 41.0);

  bool keep_going = true;
  const auto bye =
      roundtrip(service, R"({"op":"shutdown","id":"last"})", &keep_going);
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_TRUE(field(bye[0], "ok")->boolean);
  EXPECT_EQ(field(bye[0], "id")->string, "last");
  EXPECT_FALSE(keep_going);
}

TEST(ServeProtocol, MalformedRequestsAnswerOkFalseAndKeepServing) {
  QueryService service({0, nullptr});
  for (const char* bad : {"{not json", "[1,2,3]", R"({"scenario":"x"})",
                          R"({"op":"frobnicate"})",
                          R"({"op":"query","id":9})"}) {
    SCOPED_TRACE(bad);
    bool keep_going = false;
    const auto responses = roundtrip(service, bad, &keep_going);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(field(responses[0], "ok")->boolean);
    EXPECT_FALSE(field(responses[0], "error")->string.empty());
    EXPECT_TRUE(keep_going);
  }
  // Blank lines are keep-alive noise, not errors.
  EXPECT_TRUE(roundtrip(service, "   ").empty());
}

TEST(ServeProtocol, QueryCarriesSourceKeyAndExactResult) {
  QueryService service({0, nullptr});
  const std::string request =
      std::string(R"({"op":"query","id":1,"scenario":")") + kTinyText + "\"}";
  const auto first = roundtrip(service, request);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(field(first[0], "ok")->boolean);
  EXPECT_EQ(field(first[0], "source")->string, "computed");

  const auto again = roundtrip(service, request);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(field(again[0], "source")->string, "cache");
  EXPECT_EQ(field(again[0], "key")->string, field(first[0], "key")->string);

  // The result object is the store's exact serialisation: parsing it back
  // and re-serialising is the identity.
  RunResult result;
  ASSERT_TRUE(result_from_json(*field(first[0], "result"), &result));
  EXPECT_EQ(field(again[0], "result")->type, json::Value::Type::kObject);

  const auto stats = roundtrip(service, R"({"op":"stats"})");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(field(stats[0], "queries")->number, 2.0);
  EXPECT_EQ(field(stats[0], "computed")->number, 1.0);
  EXPECT_EQ(field(stats[0], "cache_hits")->number, 1.0);
}

TEST(ServeProtocol, GridStreamsOneCellLinePerCellThenASummary) {
  QueryService service({0, nullptr});
  const auto responses = roundtrip(
      service,
      R"({"op":"grid","id":3,"scenario":"hypercube_greedy d=4 measure=100 reps=2",)"
      R"("axes":["rho=0.2:0.4:0.2"]})");
  ASSERT_EQ(responses.size(), 3u);  // 2 cells + 1 summary
  EXPECT_EQ(field(responses[0], "op")->string, "cell");
  EXPECT_EQ(field(responses[1], "op")->string, "cell");
  const json::Value& summary = responses[2];
  EXPECT_EQ(field(summary, "op")->string, "grid");
  EXPECT_TRUE(field(summary, "ok")->boolean);
  EXPECT_EQ(field(summary, "cells")->number, 2.0);
  EXPECT_EQ(field(summary, "computed")->number, 2.0);

  // Rerunning the same grid is all cache hits.
  const auto warm = roundtrip(
      service,
      R"({"op":"grid","scenario":"hypercube_greedy d=4 measure=100 reps=2",)"
      R"("axes":["rho=0.2:0.4:0.2"]})");
  ASSERT_EQ(warm.size(), 3u);
  EXPECT_EQ(field(warm[2], "from_cache")->number, 2.0);
  EXPECT_EQ(field(warm[2], "computed")->number, 0.0);
}

TEST(ServeProtocol, StatsReportsTheStoreWhenAttached) {
  const std::string path = temp_store("stats.jsonl");
  ResultStore store(path);
  QueryService service({0, &store});
  const auto stats = roundtrip(service, R"({"op":"stats"})");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(field(stats[0], "store_records")->number, 0.0);
  EXPECT_EQ(field(stats[0], "store_path")->string, path);
}

}  // namespace
}  // namespace routesim
