// Persistent result store tests: exact round-trip serialisation (finite
// and non-finite doubles), restart survival, the crash-consistency
// contract (truncated tail, interleaved garbage, duplicate keys,
// version mismatch), compaction, and replay_results over both on-disk
// formats (store records and campaign --jsonl sink lines).

#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"

namespace routesim {
namespace {

/// A fresh path under the test temp dir (removed up-front so reruns in a
/// persistent temp dir start clean).
std::string temp_store(const std::string& name) {
  const std::string path = ::testing::TempDir() + "result_store_" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// A synthetic result exercising every field, including values JSON
/// cannot spell (NaN/Inf) and a fraction with no finite decimal form.
RunResult sample_result() {
  RunResult result;
  result.rho = 0.6;
  result.delay = {1.0 / 3.0, 0.015625};
  result.population = {12.75, std::nan("")};
  result.throughput = {std::numeric_limits<double>::infinity(), 0.0};
  result.mean_hops = 2.0000000000000004;  // off-by-one-ulp survives
  result.max_little_error = 1e-9;
  result.mean_final_backlog = -std::numeric_limits<double>::infinity();
  result.has_bounds = true;
  result.lower_bound = 3.0625;
  result.upper_bound = 3.75;
  result.extras.emplace_back("delivery_ratio", ConfidenceInterval{1.0, 0.0});
  result.extras.emplace_back("delay_p99", ConfidenceInterval{6.851, 0.25});
  return result;
}

Scenario sample_scenario(std::uint64_t seed = 7) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 4;
  scenario.set("rho", "0.5");
  scenario.measure = 100.0;
  scenario.plan = {2, seed};
  return scenario.resolved();
}

/// A store line respelled with a space after every member name's colon:
/// the same record, no longer in the exact layout the store writes.
std::string respelled(std::string line) {
  for (std::size_t at = 0; (at = line.find("\":", at)) != std::string::npos; at += 3) {
    line.insert(at + 2, 1, ' ');
  }
  return line;
}

TEST(ResultJson, RoundTripsBitIdentically) {
  const RunResult original = sample_result();
  const std::string text = result_to_json(original);

  json::Value value;
  ASSERT_TRUE(json::parse(text, &value));
  RunResult restored;
  ASSERT_TRUE(result_from_json(value, &restored));

  // Bit-identity is byte-identity of the canonical serialisation —
  // including the NaN/Inf spellings a plain double compare cannot check.
  EXPECT_EQ(result_to_json(restored), text);
  EXPECT_TRUE(std::isnan(restored.population.half_width));
  EXPECT_TRUE(std::isinf(restored.throughput.mean));
  EXPECT_EQ(restored.mean_hops, original.mean_hops);
  ASSERT_EQ(restored.extras.size(), 2u);
  EXPECT_EQ(restored.extras[1].first, "delay_p99");
}

TEST(ResultJson, AcceptsSinkStyleNullAsNaN) {
  json::Value value;
  ASSERT_TRUE(json::parse(
      R"({"rho":0.5,"delay_mean":null,"delay_half_width":0.1,)"
      R"("population_mean":1,"population_half_width":0,)"
      R"("throughput_mean":2,"throughput_half_width":0,)"
      R"("mean_hops":2,"max_little_error":0,"mean_final_backlog":0,)"
      R"("has_bounds":false})",
      &value));
  RunResult restored;
  ASSERT_TRUE(result_from_json(value, &restored));
  EXPECT_TRUE(std::isnan(restored.delay.mean));
  EXPECT_FALSE(restored.has_bounds);
}

TEST(ResultJson, RejectsMissingCoreMetrics) {
  json::Value value;
  ASSERT_TRUE(json::parse(R"({"rho":0.5,"delay_mean":1})", &value));
  RunResult restored;
  EXPECT_FALSE(result_from_json(value, &restored));
}

TEST(ResultStore, SurvivesRestartBitIdentically) {
  const std::string path = temp_store("restart.jsonl");
  const RunResult result = sample_result();
  const Scenario scenario = sample_scenario();
  const std::string key = ResultCache::key(scenario);

  {
    ResultStore store(path);
    ASSERT_TRUE(store.ok()) << store.error();
    EXPECT_EQ(store.size(), 0u);
    store.put(scenario, result);
    store.put(sample_scenario(8), result);
    EXPECT_EQ(store.size(), 2u);
  }  // closed: everything must already be on disk

  ResultStore reopened(path);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.load_stats().records_loaded, 2u);
  EXPECT_EQ(reopened.load_stats().duplicate_keys, 0u);

  RunResult fetched;
  ASSERT_TRUE(reopened.fetch(key, &fetched));
  EXPECT_EQ(result_to_json(fetched), result_to_json(result));
  EXPECT_EQ(reopened.hits(), 1u);
  EXPECT_FALSE(reopened.fetch("no such key", &fetched));
  EXPECT_EQ(reopened.misses(), 1u);

  // First-seen key order is the file order.
  const std::vector<std::string> keys = reopened.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], key);
}

TEST(ResultStore, DropsTruncatedFinalRecord) {
  const std::string path = temp_store("truncated.jsonl");
  {
    ResultStore store(path);
    store.put(sample_scenario(1), sample_result());
    store.put(sample_scenario(2), sample_result());
  }
  // Kill mid-append: the last record is cut before its newline.
  std::string content = read_file(path);
  ASSERT_GT(content.size(), 40u);
  content.resize(content.size() - 40);
  write_file(path, content);

  ResultStore store(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.load_stats().truncated_tail);
  EXPECT_EQ(store.load_stats().skipped_garbage, 0u);

  // The store stays writable after the repair: opening terminated the
  // damaged fragment, so the next append starts on a fresh line instead
  // of merging into it.  A reload sees both surviving records, with the
  // fragment reclassified as one (terminated) garbage line.
  store.put(sample_scenario(3), sample_result());
  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_FALSE(reloaded.load_stats().truncated_tail);
  EXPECT_EQ(reloaded.load_stats().skipped_garbage, 1u);
}

TEST(ResultStore, PutWritesNothingForAScenarioItsSchemeRejects) {
  const std::string path = temp_store("rejected_put.jsonl");
  ResultStore store(path);
  ASSERT_TRUE(store.ok()) << store.error();
  Scenario rejected = sample_scenario();
  rejected.set("fanout", "2");  // a multicast knob the greedy row lacks
  EXPECT_THROW(store.put(rejected, sample_result()), ScenarioError);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(read_file(path), "");
  store.put(sample_scenario(), sample_result());
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, SkipsInterleavedGarbageLines) {
  const std::string path = temp_store("garbage.jsonl");
  const std::string record =
      store_record_json(ResultCache::key(sample_scenario()), sample_scenario(),
                        sample_result());
  write_file(path, record + "\nthis is not json\n{\"also\":\"not a record\"}\n" +
                       store_record_json("other key", sample_scenario(9),
                                         sample_result()) +
                       "\n");
  ResultStore store(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.load_stats().skipped_garbage, 2u);
  EXPECT_FALSE(store.load_stats().truncated_tail);
}

TEST(ResultStore, DuplicateKeysResolveLastWins) {
  const std::string path = temp_store("dup.jsonl");
  const Scenario scenario = sample_scenario();
  const std::string key = ResultCache::key(scenario);
  RunResult first = sample_result();
  RunResult second = sample_result();
  second.delay.mean = 99.5;

  {
    ResultStore store(path);
    store.persist(key, scenario, first);
    store.persist(key, scenario, second);
    EXPECT_EQ(store.size(), 1u);
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.load_stats().duplicate_keys, 1u);
  RunResult fetched;
  ASSERT_TRUE(store.fetch(key, &fetched));
  EXPECT_DOUBLE_EQ(fetched.delay.mean, 99.5);
}

TEST(ResultStore, SkipsVersionMismatchedRecords) {
  const std::string path = temp_store("version.jsonl");
  std::string future = store_record_json("future key", sample_scenario(),
                                         sample_result());
  // {"v":1,... -> {"v":999,...
  future.replace(future.find("\"v\":1") + 4, 1, "999");
  write_file(path, future + "\n" +
                       store_record_json("current key", sample_scenario(),
                                         sample_result()) +
                       "\n");
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.load_stats().skipped_version, 1u);
  // A version mismatch is a well-formed record we must not interpret —
  // not garbage.
  EXPECT_EQ(store.load_stats().skipped_garbage, 0u);
  EXPECT_TRUE(store.contains("current key"));
  EXPECT_FALSE(store.contains("future key"));
}

TEST(ResultStore, SkipsOutOfRangeAndFractionalVersions) {
  // Versions no int can hold (1e400 is +inf, 3e9 is past INT_MAX) and a
  // fraction: each a well-formed record of another version, for the loader
  // and replay alike.
  const std::string path = temp_store("version_range.jsonl");
  std::string content;
  for (const char* version : {"1e400", "3e9", "1.5"}) {
    std::string record = store_record_json(std::string("key v=") + version,
                                           sample_scenario(), sample_result());
    record.replace(record.find("\"v\":1") + 4, 1, version);
    content += record + "\n";
  }
  content += store_record_json("current key", sample_scenario(), sample_result()) + "\n";
  write_file(path, content);
  {
    ResultStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.load_stats().skipped_version, 3u);
    EXPECT_EQ(store.load_stats().skipped_garbage, 0u);
    EXPECT_TRUE(store.contains("current key"));
  }
  std::vector<std::string> keys;
  replay_results(path, [&](const std::string& key, const Scenario&,
                           const RunResult&) { keys.push_back(key); });
  EXPECT_EQ(keys, std::vector<std::string>{"current key"});
}

TEST(ResultStore, CompactFoldsHistoryToOneRecordPerKey) {
  const std::string path = temp_store("compact.jsonl");
  ResultStore store(path);
  RunResult result = sample_result();
  for (int round = 0; round < 3; ++round) {
    result.delay.mean = static_cast<double>(round);
    store.persist("key a", sample_scenario(1), result);
    store.persist("key b", sample_scenario(2), result);
  }
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.compact());

  // Exactly one line per key on disk, current values, still appendable.
  const std::string content = read_file(path);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 2);
  store.persist("key c", sample_scenario(3), result);

  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.load_stats().duplicate_keys, 0u);
  RunResult fetched;
  ASSERT_TRUE(reloaded.fetch("key a", &fetched));
  EXPECT_DOUBLE_EQ(fetched.delay.mean, 2.0);  // last write won, then survived
}

// Every line put, persist and compact write is in the layout the loader
// reads in place, so none of them takes the json::parse fallback; a
// respelled record takes it and loads to the same result.
TEST(ResultStore, RecordsItWritesLoadWithoutTheFallback) {
  const std::string path = temp_store("canonical.jsonl");
  RunResult unbounded = sample_result();  // sample_result has NaN and +-inf
  unbounded.has_bounds = false;
  unbounded.extras.clear();
  std::vector<std::string> written;
  {
    ResultStore store(path);
    store.put(sample_scenario(1), sample_result());
    store.put(sample_scenario(2), unbounded);
    store.persist("persisted key", sample_scenario(3), sample_result());
    store.put(sample_scenario(1), unbounded);  // a superseded record
    RunResult result;
    for (const std::string& key : store.keys()) {
      ASSERT_TRUE(store.fetch(key, &result));
      written.push_back(result_to_json(result));
    }
  }
  const auto fetch_all = [](ResultStore& store) {
    std::vector<std::string> fetched;
    RunResult result;
    for (const std::string& key : store.keys()) {
      EXPECT_TRUE(store.fetch(key, &result)) << key;
      fetched.push_back(result_to_json(result));
    }
    return fetched;
  };
  {
    ResultStore reopened(path);
    const ResultStore::LoadStats stats = reopened.load_stats();
    EXPECT_EQ(stats.records_loaded, 4u);
    EXPECT_EQ(stats.duplicate_keys, 1u);
    EXPECT_EQ(stats.fallback_lines, 0u);
    EXPECT_EQ(fetch_all(reopened), written);
    ASSERT_TRUE(reopened.compact());
  }
  const std::string compacted = read_file(path);
  {
    ResultStore reopened(path);
    EXPECT_EQ(reopened.load_stats().records_loaded, 3u);
    EXPECT_EQ(reopened.load_stats().fallback_lines, 0u);
    EXPECT_EQ(fetch_all(reopened), written);
  }

  const std::string first_line = compacted.substr(0, compacted.find('\n'));
  write_file(path, respelled(first_line) + "\n");
  ResultStore respelled_store(path);
  EXPECT_EQ(respelled_store.load_stats().records_loaded, 1u);
  EXPECT_EQ(respelled_store.load_stats().fallback_lines, 1u);
  EXPECT_EQ(respelled_store.keys(),
            std::vector<std::string>{ResultCache::key(sample_scenario(1))});
  EXPECT_EQ(fetch_all(respelled_store), std::vector<std::string>{written[0]});
  ASSERT_TRUE(respelled_store.compact());
  EXPECT_EQ(read_file(path), first_line + "\n");
}

TEST(ResultStore, UnopenablePathDegradesToInMemoryTier) {
  ResultStore store("/no/such/directory/store.jsonl");
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.error().empty());
  // Still a working in-memory map: persist/fetch function, nothing durable.
  store.persist("key", sample_scenario(), sample_result());
  RunResult fetched;
  EXPECT_TRUE(store.fetch("key", &fetched));
}

// ------------------------------------------------------------------ replay

TEST(ReplayResults, ReadsStoreRecordsInFileOrder) {
  const std::string path = temp_store("replay_store.jsonl");
  {
    ResultStore store(path);
    store.put(sample_scenario(1), sample_result());
    store.put(sample_scenario(2), sample_result());
  }
  std::vector<std::string> keys;
  const std::size_t consumed = replay_results(
      path, [&](const std::string& key, const Scenario& scenario,
                const RunResult& result) {
        keys.push_back(key);
        EXPECT_EQ(ResultCache::key(scenario), key);
        EXPECT_EQ(result_to_json(result), result_to_json(sample_result()));
      });
  EXPECT_EQ(consumed, 2u);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], ResultCache::key(sample_scenario(1)));
  EXPECT_EQ(keys[1], ResultCache::key(sample_scenario(2)));
}

TEST(ReplayResults, ReadsCampaignSinkLinesAndRederivesKeys) {
  const std::string path = temp_store("replay_sink.jsonl");
  CellResult cell;
  cell.index = 0;
  cell.label = "cell a";
  cell.scenario = sample_scenario(5);
  cell.result = sample_result();
  cell.result.population.half_width = 0.5;  // finite: sink JSON is lossless
  cell.result.throughput.mean = 2.25;
  cell.result.mean_final_backlog = 0.0;
  write_file(path, JsonlSink::to_json("replay", cell) + "\nnot json\n");

  std::size_t consumed = 0;
  replay_results(path, [&](const std::string& key, const Scenario&,
                           const RunResult& result) {
    EXPECT_EQ(key, ResultCache::key(cell.scenario));
    EXPECT_EQ(result_to_json(result), result_to_json(cell.result));
    ++consumed;
  });
  EXPECT_EQ(consumed, 1u);
}

// replay_results reads a store record in place and its respelled copy
// through json::parse, to the same key, scenario and result; a campaign
// sink line in the same file still replays with its key re-derived.
TEST(ReplayResults, ReadsCanonicalAndRespelledStoreRecordsAlike) {
  const std::string path = temp_store("replay_respelled.jsonl");
  const Scenario scenario = sample_scenario(4);
  const std::string record =
      store_record_json(ResultCache::key(scenario), scenario, sample_result());
  CellResult cell;
  cell.label = "cell a";
  cell.scenario = sample_scenario(5);
  cell.result = sample_result();
  cell.result.population.half_width = 0.5;  // finite: sink JSON is lossless
  cell.result.throughput.mean = 2.25;
  cell.result.mean_final_backlog = 0.0;
  write_file(path, record + "\n" + respelled(record) + "\n" +
                       JsonlSink::to_json("replay", cell) + "\n");

  struct Replayed {
    std::string key;
    std::string scenario;
    std::string result;
  };
  std::vector<Replayed> replayed;
  EXPECT_EQ(replay_results(path,
                           [&](const std::string& key, const Scenario& read,
                               const RunResult& result) {
                             replayed.push_back(
                                 {key, read.to_string(), result_to_json(result)});
                           }),
            3u);
  ASSERT_EQ(replayed.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(replayed[i].key, ResultCache::key(scenario)) << i;
    EXPECT_EQ(replayed[i].scenario, scenario.to_string()) << i;
    EXPECT_EQ(replayed[i].result, result_to_json(sample_result())) << i;
  }
  EXPECT_EQ(replayed[2].key, ResultCache::key(cell.scenario));
  EXPECT_EQ(replayed[2].result, result_to_json(cell.result));
}

// A sink line whose one-liner parses but cannot resolve (d outside the
// simulated range) is skipped like a garbage line, not thrown out of the
// replay: one bad line must not abort a --resume.
TEST(ReplayResults, SkipsSinkLinesWhoseScenarioCannotResolve) {
  const std::string path = temp_store("replay_unresolvable.jsonl");
  CellResult cell;
  cell.label = "cell a";
  cell.scenario = sample_scenario(5);
  cell.result = sample_result();
  const std::string good = JsonlSink::to_json("replay", cell);
  std::string bad = good;
  const std::string d_token = " d=" + std::to_string(cell.scenario.d) + " ";
  ASSERT_NE(bad.find(d_token), std::string::npos) << bad;
  bad.replace(bad.find(d_token), d_token.size(), " d=25 ");
  write_file(path, bad + "\n" + good + "\n");

  std::vector<std::string> keys;
  EXPECT_EQ(replay_results(path,
                           [&](const std::string& key, const Scenario&,
                               const RunResult&) { keys.push_back(key); }),
            1u);
  EXPECT_EQ(keys, std::vector<std::string>{ResultCache::key(cell.scenario)});
}

// Records written while `threads` was a scenario key: a store record (key
// `threads=0`, scenario `threads=3`) and a campaign --jsonl line
// (`threads=2`), byte for byte as the old writers left them.  Loading
// drops the retired token, so both are served and resumed under the
// current key without recompute.
TEST(ResultStore, RecordsWrittenWithTheRetiredThreadsKeyStillLoad) {
  const std::string store_line =
      R"({"v":1,"key":"hypercube_greedy d=4 topology=native torus_dims=4x4 )"
      R"(lambda=1 p=0.5 tau=0 discipline=fifo workload=bit_flip )"
      R"(permutation=bit_reversal hotspot_frac=0.1 fanout=4 )"
      R"(unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 )"
      R"(fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 )"
      R"(storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 )"
      R"(measure=1e+02 reps=2 seed=61 threads=0 backend=scalar",)"
      R"("scenario":"hypercube_greedy d=4 topology=native torus_dims=4x4 )"
      R"(lambda=1 p=0.5 tau=0 discipline=fifo workload=bit_flip )"
      R"(permutation=bit_reversal hotspot_frac=0.1 fanout=4 )"
      R"(unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 )"
      R"(fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 )"
      R"(storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 )"
      R"(measure=1e+02 reps=2 seed=61 threads=3 backend=scalar",)"
      R"("result":{"rho":0.5,"delay_mean":2.7332869076300188,)"
      R"("delay_half_width":0.7987963323567745,)"
      R"("population_mean":42.923391885113773,)"
      R"("population_half_width":14.966364375574484,"throughput_mean":15.04,)"
      R"("throughput_half_width":0.38118614208517448,)"
      R"("mean_hops":1.9900477761563067,)"
      R"("max_little_error":0.021057434523984078,"mean_final_backlog":4e+01,)"
      R"("has_bounds":true,"lower_bound":2.25,"upper_bound":4,)"
      R"("extras":{"delivery_ratio":{"mean":1,"half_width":0},)"
      R"("mean_stretch":{"mean":1,"half_width":0},)"
      R"("delay_p50":{"mean":2.7399265405722848,)"
      R"("half_width":0.6731701262269999},)"
      R"("delay_p99":{"mean":7.331845238095239,)"
      R"("half_width":4.24825904780245},"fault_drops":{"mean":0,)"
      R"("half_width":0},"buffer_drops":{"mean":0,"half_width":0}}}})";
  const std::string sink_line =
      R"({"campaign":"routesim_bench","cell":0,"label":"butterfly_greedy",)"
      R"("scenario":"butterfly_greedy d=4 topology=native torus_dims=4x4 )"
      R"(lambda=0.8 p=0.5 tau=0 discipline=fifo workload=bit_flip )"
      R"(permutation=bit_reversal hotspot_frac=0.1 fanout=4 )"
      R"(unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 )"
      R"(fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 )"
      R"(storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 )"
      R"(measure=1e+02 reps=2 seed=62 threads=2 backend=scalar",)"
      R"("from_cache":false,"from_store":false,"tier":"computed",)"
      R"("wall_time_s":0.001293197,"rho":0.4,"delay_mean":4.8386274584730753,)"
      R"("delay_half_width":0.098181578472565562,)"
      R"("population_mean":59.012042104752048,)"
      R"("population_half_width":3.3046995592882049,"throughput_mean":11.605,)"
      R"("throughput_half_width":0.31765511840431865,)"
      R"("mean_hops":1.9995533705487412,)"
      R"("max_little_error":0.01284910652146542,"mean_final_backlog":62,)"
      R"("has_bounds":true,"lower_bound":4.3333333333333339,)"
      R"("upper_bound":6.666666666666667,)"
      R"("extras":{"delivery_ratio":{"mean":1,"half_width":0},)"
      R"("mean_stretch":{"mean":1,"half_width":0},)"
      R"("delay_p50":{"mean":4.7220371732090047,)"
      R"("half_width":0.043247255665222958},)"
      R"("delay_p99":{"mean":8.2696825396825364,)"
      R"("half_width":1.4924748420267262},"fault_drops":{"mean":0,)"
      R"("half_width":0},"buffer_drops":{"mean":0,"half_width":0}}})";
  const Scenario stored =
      Scenario::parse_text("hypercube_greedy d=4 rho=0.5 measure=100 reps=2 seed=61")
          .resolved();
  const Scenario streamed =
      Scenario::parse_text("butterfly_greedy d=4 rho=0.4 measure=100 reps=2 seed=62")
          .resolved();

  const std::string path = temp_store("retired_threads.jsonl");
  write_file(path, store_line + "\n");
  std::string stored_result;
  {
    ResultStore store(path);
    ASSERT_EQ(store.size(), 1u);
    RunResult result;
    ASSERT_TRUE(store.fetch(ResultCache::key(stored), &result));
    EXPECT_EQ(result.delay.mean, 2.7332869076300188);
    stored_result = result_to_json(result);

    Campaign resume("resume");
    resume.add(stored);
    const auto cells = Engine(EngineOptions{.store = &store}).run(resume);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_STREQ(cells[0].tier(), "store");
    EXPECT_EQ(result_to_json(cells[0].result), stored_result);
    ASSERT_TRUE(store.compact());  // rewrites the record in the current form
  }
  EXPECT_EQ(read_file(path).find("threads="), std::string::npos);
  {
    ResultStore compacted(path);
    RunResult result;
    ASSERT_TRUE(compacted.fetch(ResultCache::key(stored), &result));
    EXPECT_EQ(result_to_json(result), stored_result);
  }

  const std::string replay_path = temp_store("retired_threads_replay.jsonl");
  write_file(replay_path, store_line + "\n" + sink_line + "\n");
  ResultCache cache;
  const std::size_t consumed = replay_results(
      replay_path, [&](const std::string& key, const Scenario& scenario,
                       const RunResult& result) {
        EXPECT_EQ(key, ResultCache::key(scenario));
        cache.insert(key, result);
      });
  EXPECT_EQ(consumed, 2u);
  Campaign resume("resume");
  resume.add(stored);
  resume.add(streamed);
  const auto cells = Engine(EngineOptions{.cache = &cache}).run(resume);
  ASSERT_EQ(cells.size(), 2u);
  for (const CellResult& cell : cells) EXPECT_STREQ(cell.tier(), "cache") << cell.label;
  EXPECT_EQ(result_to_json(cells[0].result), stored_result);
  EXPECT_EQ(cells[1].result.delay.mean, 4.8386274584730753);
  std::remove(path.c_str());
  std::remove(replay_path.c_str());
}

TEST(ReplayResults, MissingFileConsumesNothing) {
  std::size_t consumed = 0;
  EXPECT_EQ(replay_results(temp_store("never_written.jsonl"),
                           [&](const std::string&, const Scenario&,
                               const RunResult&) { ++consumed; }),
            0u);
  EXPECT_EQ(consumed, 0u);
}

}  // namespace
}  // namespace routesim
