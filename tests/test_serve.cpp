// Query-service tests: the three-tier answer path (cache -> store ->
// compute), in-flight coalescing of concurrent identical queries,
// store-backed answers across a service "restart", and the line-delimited
// JSON protocol driven transport-free through handle_request().

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "store/result_store.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
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

// First in this binary, so no engine has run yet: the metrics op still
// lists every engine series, reading 0 rather than leaving it out.
TEST(ServeProtocol, MetricsListEveryEngineSeriesBeforeAnyRun) {
  QueryService service({1, nullptr});
  std::string reply;
  ASSERT_TRUE(serve::handle_request(service, R"({"op":"metrics"})",
                                    [&](const std::string& text) { reply = text; }));
  json::Value parsed;
  ASSERT_TRUE(json::parse(reply, &parsed)) << reply;
  const std::string text = "\n" + parsed.find("metrics")->string;
  for (const char* name :
       {"routesim_engine_cells_cache_total", "routesim_engine_cells_store_total",
        "routesim_engine_cells_computed_total", "routesim_engine_tasks_total",
        "routesim_engine_task_seconds_total",
        "routesim_engine_worker_seconds_total", "routesim_engine_busy_workers",
        "routesim_engine_pool_workers"}) {
    const std::string line_start = std::string("\n").append(name).append(" ");
    EXPECT_NE(text.find(line_start), std::string::npos) << name;
  }
}

TEST(QueryService, ComputesThenServesFromCache) {
  QueryService service({0, nullptr});

  const auto first = service.query_text(kTinyText);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.source, "computed");
  EXPECT_FALSE(first.cell->key().empty());

  const auto second = service.query_text(kTinyText);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.source, "cache");
  EXPECT_EQ(second.cell->key(), first.cell->key());
  EXPECT_EQ(result_to_json(second.answer->result), result_to_json(first.answer->result));

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
    key = computed.cell->key();
    result_json = result_to_json(computed.answer->result);
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
  EXPECT_EQ(from_disk.cell->key(), key);
  EXPECT_EQ(result_to_json(from_disk.answer->result), result_json);

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
    EXPECT_EQ(keys.back(), qr.cell->key());
    EXPECT_EQ(qr.cell->key(), ResultCache::key(Scenario::parse_text(texts[i])));
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

// admit() renders the resolved scenario once; the key reuses that text
// unless a result-neutral key is off its default, and a trace file's
// fingerprint is appended to it either way.
TEST(KeyedScenario, TextIsRenderedOnceAndTheKeyReusesIt) {
  const Scenario plain = Scenario::parse_text(kTinyText);
  const KeyedScenario defaults = KeyedScenario::admit(plain);
  EXPECT_EQ(defaults.text(), defaults.scenario().to_string());
  EXPECT_EQ(defaults.key(), defaults.text());

  Scenario respelled = plain;
  respelled.set("backend", "soa_batch");
  const KeyedScenario legacy = KeyedScenario::admit(respelled);
  EXPECT_EQ(legacy.text(), legacy.scenario().to_string());
  EXPECT_NE(legacy.text().find("backend=soa_batch"), std::string::npos);
  EXPECT_NE(legacy.key(), legacy.text());
  EXPECT_EQ(legacy.key(), defaults.key());

  const std::string path = temp_store("keyed_trace.jsonl");
  {
    std::ofstream out(path);
    out << "{\"t\":0.5,\"src\":0,\"dst\":1}\n";
  }
  Scenario traced = plain;
  traced.set("workload", "trace");
  traced.set("trace_file", path);
  const KeyedScenario from_file = KeyedScenario::admit(traced);
  EXPECT_EQ(from_file.text(), from_file.scenario().to_string());
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, " trace_hash=%016llx",
                static_cast<unsigned long long>(trace_file_fingerprint(path)));
  EXPECT_EQ(from_file.key(), from_file.text() + fingerprint);
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
  const std::string expected = result_to_json(results[0].answer->result);
  for (const auto& qr : results) {
    ASSERT_TRUE(qr.ok) << qr.error;
    EXPECT_EQ(result_to_json(qr.answer->result), expected);
  }
  // Exactly one engine run; every other client either coalesced onto it
  // or arrived after it finished and hit the cache.
  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.coalesced + stats.cache_hits,
            static_cast<std::uint64_t>(kClients - 1));
}

// -------------------------------------------- coalesced followers compute

/// A one-shot gate: wait() blocks until open().
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Records the thread each replication of the probe scheme ran on, and
/// holds each replication until `quorum` threads are inside one (or 10 s
/// pass): a cell of `quorum` replications then completes in time only
/// when that many threads run it side by side.
class Rendezvous {
 public:
  explicit Rendezvous(int quorum) : quorum_(quorum) {}

  void arrive(int rep) {
    std::unique_lock<std::mutex> lock(mutex_);
    runs_[rep].push_back(std::this_thread::get_id());
    ++arrived_;
    cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return arrived_ >= quorum_; })) {
      timed_out_ = true;
    }
  }
  /// The threads that ran each replication, by replication.
  std::map<int, std::vector<std::thread::id>> runs() {
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_;
  }
  bool timed_out() {
    std::lock_guard<std::mutex> lock(mutex_);
    return timed_out_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const int quorum_;
  int arrived_ = 0;
  bool timed_out_ = false;
  std::map<int, std::vector<std::thread::id>> runs_;
};

/// What the probe scheme's compile and replications do; set by each test
/// before any thread starts.
struct Probe {
  Gate* entered = nullptr;  ///< opened when compile starts
  Gate* release = nullptr;  ///< compile waits on it when set
  bool compile_throws = false;
  Rendezvous* meet = nullptr;
};
Probe probe;

/// A toy scheme whose replications return numbers drawn from their seed,
/// so a result depends on every replication's seed and nothing else.
Scenario probe_cell(int reps, std::uint64_t seed) {
  SchemeRegistry::instance().add(
      {"test_serve_probe", "serve coalescing probe", [](const Scenario&) {
         if (probe.entered != nullptr) probe.entered->open();
         if (probe.release != nullptr) probe.release->wait();
         if (probe.compile_throws) throw ScenarioError("probe compile failed");
         CompiledScenario compiled;
         compiled.replicate = [](std::uint64_t stream, int rep) {
           if (probe.meet != nullptr) probe.meet->arrive(rep);
           Rng rng(stream);
           return std::vector<double>{rng.uniform(), rng.uniform(), rng.uniform(),
                                      static_cast<double>(rep), 0.0, 0.0};
         };
         return compiled;
       }});
  Scenario scenario;
  scenario.scheme = "test_serve_probe";
  scenario.d = 4;
  scenario.plan = {reps, seed};
  return scenario;
}

/// `clients` threads ask `cell` of `service` at once.
std::vector<QueryService::QueryResult> ask_together(QueryService& service,
                                                    const Scenario& cell,
                                                    int clients) {
  std::vector<QueryService::QueryResult> results(static_cast<std::size_t>(clients));
  std::vector<std::jthread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] { results[i] = service.query(cell); });
  }
  return results;
}

TEST(QueryService, CoalescedFollowersRunTheLeadersReplications) {
  constexpr int kClients = 4;
  const Scenario cell = probe_cell(kClients, 301);
  Rendezvous meet(kClients);
  probe = {.meet = &meet};
  // One pool thread per computation: the leader alone could run one
  // replication at a time, so the quorum is met only by its followers.
  QueryService service({1, nullptr});
  const auto results = ask_together(service, cell, kClients);

  EXPECT_FALSE(meet.timed_out()) << "the followers did not join the leader's run";
  std::set<std::thread::id> threads;
  const auto runs = meet.runs();
  ASSERT_EQ(runs.size(), static_cast<std::size_t>(kClients));
  for (const auto& [rep, ran_on] : runs) {
    EXPECT_EQ(ran_on.size(), 1u) << "replication " << rep << " ran more than once";
    threads.insert(ran_on.begin(), ran_on.end());
  }
  EXPECT_EQ(threads.size(), static_cast<std::size_t>(kClients));

  Rendezvous alone(1);
  probe = {.meet = &alone};
  const std::string direct = result_to_json(Engine().run_one(cell));
  std::map<std::string, int> sources;
  for (const auto& qr : results) {
    ASSERT_TRUE(qr.ok) << qr.error;
    ++sources[qr.source];
    EXPECT_EQ(qr.answer->json, direct);
  }
  EXPECT_EQ(sources["computed"], 1);
  EXPECT_EQ(sources["inflight"], kClients - 1);
  probe = {};
}

TEST(QueryService, FollowersArrivingDuringCompileWaitForTheTaskList) {
  constexpr int kClients = 3;
  const Scenario cell = probe_cell(kClients, 302);
  Gate entered;
  Gate release;
  Rendezvous meet(kClients);
  probe = {.entered = &entered, .release = &release, .meet = &meet};
  QueryService service({1, nullptr});
  std::vector<QueryService::QueryResult> results(kClients);
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] { results[0] = service.query(cell); });
    entered.wait();  // the leader is in phase 1 and holds the key
    for (int i = 1; i < kClients; ++i) {
      threads.emplace_back([&, i] { results[i] = service.query(cell); });
    }
    // Let the followers reach the in-flight entry before the task list
    // exists; one that comes later joins the same way.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release.open();
  }
  EXPECT_FALSE(meet.timed_out()) << "a follower skipped helping";
  EXPECT_EQ(results[0].source, "computed");
  for (const auto& qr : results) {
    ASSERT_TRUE(qr.ok) << qr.error;
    EXPECT_EQ(qr.answer->json, results[0].answer->json);
  }
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(results[i].source, "inflight");
  probe = {};
}

TEST(QueryService, APhaseOneErrorReleasesEveryFollower) {
  constexpr int kClients = 4;
  const Scenario cell = probe_cell(2, 303);
  Gate entered;
  Gate release;
  probe = {.entered = &entered, .release = &release, .compile_throws = true};
  QueryService service({1, nullptr});
  std::vector<QueryService::QueryResult> results(kClients);
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] { results[0] = service.query(cell); });
    entered.wait();
    for (int i = 1; i < kClients; ++i) {
      threads.emplace_back([&, i] { results[i] = service.query(cell); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release.open();
  }
  for (const auto& qr : results) {
    EXPECT_FALSE(qr.ok);
    EXPECT_NE(qr.error.find("probe compile failed"), std::string::npos) << qr.error;
  }
  EXPECT_EQ(service.stats().errors, static_cast<std::uint64_t>(kClients));
  probe = {};
}

TEST(Engine, CellsAreTheSameForEveryPoolWidth) {
  Campaign campaign("widths");
  campaign.add("a", Scenario::parse_text(
                        "hypercube_greedy d=4 rho=0.5 measure=100 reps=3 seed=71"));
  campaign.add("b", Scenario::parse_text(
                        "butterfly_greedy d=3 rho=0.4 measure=100 reps=5 seed=72"));
  campaign.add("a again", Scenario::parse_text(
                              "hypercube_greedy d=4 rho=0.5 measure=100 reps=3 seed=71"));
  campaign.add("c", Scenario::parse_text(
                        "hypercube_greedy d=5 rho=0.3 measure=100 reps=2 seed=73"));
  std::vector<std::string> reference;
  for (int threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    const auto cells = Engine(EngineOptions{.threads = threads}).run(campaign);
    ASSERT_EQ(cells.size(), campaign.size());
    std::vector<std::string> rendered;
    for (const CellResult& cell : cells) {
      EXPECT_TRUE(cell.completed);
      rendered.push_back(std::string(cell.tier()) + " " + result_to_json(cell.result));
    }
    if (reference.empty()) reference = rendered;
    EXPECT_EQ(rendered, reference);
  }
  EXPECT_EQ(reference[0].substr(reference[0].find(' ')),
            reference[2].substr(reference[2].find(' ')));
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

/// The raw text of a query response's string member `name`.
std::string string_slice(const std::string& response, const std::string& name) {
  const std::string marker = "\"" + name + "\":\"";
  const auto begin = response.find(marker);
  if (begin == std::string::npos) return {};
  const auto from = begin + marker.size();
  return response.substr(from, response.find('"', from) - from);
}

/// The raw text of a query response's "result" object (its last member).
std::string result_slice(const std::string& response) {
  const std::string marker = "\"result\":";
  const auto begin = response.find(marker);
  if (begin == std::string::npos) return {};
  const auto from = begin + marker.size();
  return response.substr(from, response.size() - from - 1);
}

// Whichever tier answers a query, the response carries the same key,
// scenario and result bytes, and the result is the exact serialisation of
// a direct engine run.
TEST(ServeProtocol, EveryTierAnswersTheSameBytes) {
  // Long enough (a few ms) that concurrent clients find it in flight.
  const std::string text = "hypercube_greedy d=6 rho=0.5 measure=1000 reps=2 seed=11";
  const std::string request =
      R"({"op":"query","id":1,"scenario":")" + text + "\"}";
  const auto ask = [&](QueryService& service) {
    std::string response;
    serve::handle_request(service, request,
                          [&](const std::string& line) { response = line; });
    return response;
  };
  std::map<std::string, std::string> by_tier;
  const auto keep = [&](const std::string& response) {
    by_tier.emplace(string_slice(response, "source"), response);
  };

  const std::string path = temp_store("every_tier.jsonl");
  {
    ResultStore store(path);
    ASSERT_TRUE(store.ok()) << store.error();
    QueryService service({1, &store});
    keep(ask(service));  // computed, and persisted
    keep(ask(service));  // cache
  }
  {
    ResultStore store(path);
    ASSERT_TRUE(store.ok()) << store.error();
    QueryService service({1, &store});
    keep(ask(service));  // store: a fresh service on the same file
  }
  // inflight: clients released together onto a fresh service, whose one
  // computation the others join; retried in the unlikely case every
  // client arrived after the leader finished.
  constexpr int kClients = 8;
  for (int attempt = 0; attempt < 5 && by_tier.count("inflight") == 0;
       ++attempt) {
    QueryService service({1, nullptr});
    std::vector<std::string> responses(kClients);
    std::latch start(kClients);
    {
      std::vector<std::jthread> clients;
      clients.reserve(kClients);
      for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
          start.arrive_and_wait();
          responses[i] = ask(service);
        });
      }
    }
    for (const std::string& response : responses) keep(response);
  }
  for (const char* tier : {"computed", "cache", "store", "inflight"}) {
    EXPECT_EQ(by_tier.count(tier), 1u) << tier << " never answered";
  }

  const std::string expected_key = ResultCache::key(Scenario::parse_text(text));
  const std::string expected_result =
      result_to_json(Engine().run_one(Scenario::parse_text(text)));
  for (const auto& [tier, response] : by_tier) {
    SCOPED_TRACE(tier);
    EXPECT_EQ(string_slice(response, "key"), expected_key);
    EXPECT_EQ(string_slice(response, "scenario"), expected_key);
    EXPECT_EQ(result_slice(response), expected_result);
  }

  // A respelled query shares the entry and the key but echoes its own
  // resolved text.
  QueryService service({1, nullptr});
  (void)ask(service);
  std::string respelled;
  serve::handle_request(
      service,
      R"({"op":"query","id":2,"scenario":")" + text + " backend=soa_batch\"}",
      [&](const std::string& line) { respelled = line; });
  EXPECT_EQ(string_slice(respelled, "source"), "cache");
  EXPECT_EQ(string_slice(respelled, "key"), expected_key);
  EXPECT_EQ(string_slice(respelled, "scenario"),
            Scenario::parse_text(text + " backend=soa_batch").resolved().to_string());
  EXPECT_EQ(result_slice(respelled), expected_result);
  std::remove(path.c_str());
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
