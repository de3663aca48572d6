// Campaign engine tests: grid construction, bit-identical parity between
// the shared-pool scheduler and per-cell run(), thread-count independence,
// in-campaign deduplication, the result cache, the per-tier cell counters
// (one per finished cell, by CellResult::tier()), the JSONL sink's
// textual round trip, and the production checkpoint/resume contract
// (durable store tier, cooperative stop, resume-equals-cold bit-identity).

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "store/result_store.hpp"

namespace routesim {
namespace {

/// A cheap, fully-featured cell (bounds + extras) for engine tests.
Scenario tiny(const std::string& scheme, int d, double rho, std::uint64_t seed) {
  Scenario scenario;
  scenario.scheme = scheme;
  scenario.d = d;
  scenario.set("rho", fmt_shortest(rho));
  scenario.measure = 200.0;
  scenario.plan = {3, seed};
  return scenario;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_DOUBLE_EQ(a.delay.mean, b.delay.mean);
  EXPECT_DOUBLE_EQ(a.delay.half_width, b.delay.half_width);
  EXPECT_DOUBLE_EQ(a.population.mean, b.population.mean);
  EXPECT_DOUBLE_EQ(a.population.half_width, b.population.half_width);
  EXPECT_DOUBLE_EQ(a.throughput.mean, b.throughput.mean);
  EXPECT_DOUBLE_EQ(a.throughput.half_width, b.throughput.half_width);
  EXPECT_DOUBLE_EQ(a.mean_hops, b.mean_hops);
  EXPECT_DOUBLE_EQ(a.max_little_error, b.max_little_error);
  EXPECT_DOUBLE_EQ(a.mean_final_backlog, b.mean_final_backlog);
  EXPECT_EQ(a.has_bounds, b.has_bounds);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
  EXPECT_DOUBLE_EQ(a.upper_bound, b.upper_bound);
  EXPECT_DOUBLE_EQ(a.rho, b.rho);
  ASSERT_EQ(a.extras.size(), b.extras.size());
  for (std::size_t i = 0; i < a.extras.size(); ++i) {
    EXPECT_EQ(a.extras[i].first, b.extras[i].first);
    EXPECT_DOUBLE_EQ(a.extras[i].second.mean, b.extras[i].second.mean);
    EXPECT_DOUBLE_EQ(a.extras[i].second.half_width,
                     b.extras[i].second.half_width);
  }
}

TEST(Campaign, GridBuildsCrossProductFirstAxisSlowest) {
  Scenario base;
  base.scheme = "hypercube_greedy";
  Campaign campaign("grid");
  campaign.grid(base, {SweepSpec::parse("rho=0.2:0.4:0.2"),
                       SweepSpec::parse("d=4:6:2")});
  ASSERT_EQ(campaign.size(), 4u);
  EXPECT_EQ(campaign.cells()[0].label, "rho=0.2 d=4");
  EXPECT_EQ(campaign.cells()[1].label, "rho=0.2 d=6");
  EXPECT_EQ(campaign.cells()[2].label, "rho=0.4 d=4");
  EXPECT_EQ(campaign.cells()[3].label, "rho=0.4 d=6");
  EXPECT_EQ(campaign.cells()[3].scenario.d, 6);
  EXPECT_DOUBLE_EQ(campaign.cells()[3].scenario.rho(), 0.4);

  // No axes: the base scenario itself, as one cell.
  Campaign single("single");
  single.grid(base, {});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single.cells()[0].scenario, base);
}

// Axes that set the same quantity would silently overwrite each other per
// cell (rho is a deferred lambda solve), turning one axis into a no-op of
// duplicate cells — grid() must reject the combination loudly.
TEST(Campaign, GridRejectsConflictingAxes) {
  Scenario base;
  Campaign campaign("conflict");
  EXPECT_THROW(campaign.grid(base, {SweepSpec::parse("rho=0.2:0.8:0.2"),
                                    SweepSpec::parse("lambda=0.1:0.3:0.1")}),
               ScenarioError);
  EXPECT_THROW(campaign.grid(base, {SweepSpec::parse("lambda=0.1:0.3:0.1"),
                                    SweepSpec::parse("rho=0.2:0.8:0.2")}),
               ScenarioError);
  EXPECT_THROW(campaign.grid(base, {SweepSpec::parse("d=4:6:2"),
                                    SweepSpec::parse("d=4:8:2")}),
               ScenarioError);
  EXPECT_EQ(campaign.size(), 0u);  // nothing was added by the failed grids
}

TEST(Engine, CampaignIsBitIdenticalToPerCellRun) {
  Campaign campaign("parity");
  campaign.add("hc d=4", tiny("hypercube_greedy", 4, 0.5, 11));
  campaign.add("bf d=4", tiny("butterfly_greedy", 4, 0.4, 12));
  campaign.add("q fifo", tiny("network_q_fifo", 4, 0.5, 13));
  campaign.add("valiant", tiny("valiant_mixing", 4, 0.3, 14));

  const auto cells = Engine().run(campaign);
  ASSERT_EQ(cells.size(), campaign.size());
  for (const auto& cell : cells) {
    SCOPED_TRACE(cell.label);
    EXPECT_FALSE(cell.from_cache);
    expect_identical(cell.result, run(campaign.cells()[cell.index].scenario));
  }
}

TEST(Engine, ThreadCountNeverChangesResults) {
  Campaign campaign("threads");
  campaign.add(tiny("hypercube_greedy", 4, 0.6, 21));
  campaign.add(tiny("hypercube_greedy", 5, 0.4, 22));
  campaign.add(tiny("butterfly_greedy", 4, 0.5, 23));

  const auto serial = Engine(EngineOptions{1, nullptr, {}}).run(campaign);
  const auto parallel = Engine(EngineOptions{8, nullptr, {}}).run(campaign);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].label);
    expect_identical(serial[i].result, parallel[i].result);
  }
}

TEST(Engine, CacheHitReturnsIdenticalResultWithoutRecompute) {
  ResultCache cache;
  const Engine engine(EngineOptions{0, &cache, {}});

  Campaign campaign("cached");
  campaign.add("a", tiny("hypercube_greedy", 4, 0.5, 31));
  campaign.add("b", tiny("butterfly_greedy", 4, 0.4, 32));

  const auto first = engine.run(campaign);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  const auto second = engine.run(campaign);
  EXPECT_EQ(cache.hits(), 2u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(first[i].label);
    EXPECT_FALSE(first[i].from_cache);
    EXPECT_TRUE(second[i].from_cache);
    expect_identical(first[i].result, second[i].result);
  }

  // The key normalises the legacy backend spelling (both values run one
  // drive loop), so a soa_batch variant of a cached cell still hits.
  Scenario respelled = campaign.cells()[0].scenario;
  respelled.backend = "soa_batch";
  const auto from_cache = cache.lookup(ResultCache::key(respelled));
  ASSERT_NE(from_cache, nullptr);
  expect_identical(from_cache->result, first[0].result);

  // A different seed is a different experiment: distinct key, cache miss.
  Scenario reseeded = campaign.cells()[0].scenario;
  reseeded.plan.base_seed += 1;
  EXPECT_EQ(cache.lookup(ResultCache::key(reseeded)), nullptr);
}

// Entries are immutable and shared: one a caller holds outlives the insert
// that replaces it, and lookups racing an insert see a whole entry, old or
// new, never a torn one.
TEST(ResultCache, HeldEntrySurvivesReinsertAndConcurrentLookups) {
  const std::string key = ResultCache::key(tiny("hypercube_greedy", 4, 0.5, 41));
  RunResult first;
  first.delay = {2.5, 0.125};
  first.extras.emplace_back("slot_wait", ConfidenceInterval{0.5, 0.25});
  RunResult second = first;
  second.delay.mean = 3.75;

  ResultCache cache;
  cache.insert(key, first);
  const std::shared_ptr<const RenderedResult> held = cache.lookup(key);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->json, result_to_json(first));

  const std::string first_json = result_to_json(first);
  const std::string second_json = result_to_json(second);
  constexpr int kReaders = 4;
  constexpr int kRounds = 200;
  std::atomic<int> torn{0};
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        for (int i = 0; i < kRounds; ++i) {
          const auto entry = cache.lookup(key);
          const bool whole =
              entry != nullptr &&
              (entry->json == first_json || entry->json == second_json) &&
              entry->json == result_to_json(entry->result);
          if (!whole) torn.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        (void)cache.insert(key, i % 2 == 0 ? second : first);
      }
    });
  }
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u + kReaders * kRounds);

  // The held entry is still the first result, whatever replaced it.
  const auto replaced = cache.insert(key, second);
  EXPECT_EQ(replaced->json, second_json);
  EXPECT_EQ(cache.lookup(key), replaced);
  EXPECT_EQ(held->json, first_json);
  EXPECT_EQ(result_to_json(held->result), first_json);
}

TEST(Engine, CacheKeyDistinguishesTopologyKnobs) {
  // ring_chords is omitted from the textual form when empty, so the key
  // must still separate a plain ring from a chorded one — and distinct
  // chord sets / torus extents from each other.
  Scenario plain = tiny("hypercube_greedy", 6, 0.5, 77);
  plain.set("topology", "ring");
  plain.set("workload", "uniform");

  Scenario chorded = plain;
  chorded.set("ring_chords", "4,16");
  Scenario papillon = plain;
  papillon.set("ring_chords", "papillon");

  Scenario torus = tiny("hypercube_greedy", 6, 0.5, 77);
  torus.set("topology", "torus");
  torus.set("workload", "uniform");
  Scenario torus3d = torus;
  torus3d.set("torus_dims", "4x4x4");

  const std::set<std::string> keys{
      ResultCache::key(plain),  ResultCache::key(chorded),
      ResultCache::key(papillon), ResultCache::key(torus),
      ResultCache::key(torus3d)};
  EXPECT_EQ(keys.size(), 5u);
  for (const auto& key : keys) {
    EXPECT_NE(key.find("topology="), std::string::npos) << key;
  }
}

TEST(Engine, DuplicateCellsInOneCampaignComputeOnce) {
  Campaign campaign("dedup");
  campaign.add("original", tiny("hypercube_greedy", 4, 0.5, 41));
  campaign.add("repeat", tiny("hypercube_greedy", 4, 0.5, 41));
  const auto cells = Engine().run(campaign);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_FALSE(cells[0].from_cache);
  EXPECT_TRUE(cells[1].from_cache);  // shared the first cell's computation
  expect_identical(cells[0].result, cells[1].result);
}

TEST(Engine, SinksStreamEveryCellAndRunOneMatchesRun) {
  int calls = 0;
  ProgressSink progress([&](const CellResult&) { ++calls; });
  MemorySink memory;
  std::vector<ResultSink*> sinks{&progress, &memory};

  Campaign campaign("sinks");
  campaign.add(tiny("hypercube_greedy", 4, 0.5, 51));
  campaign.add(tiny("hypercube_greedy", 4, 0.3, 52));
  const auto cells = Engine(EngineOptions{.sinks = sinks}).run(campaign);
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(memory.results().size(), 2u);

  const Scenario one = tiny("hypercube_greedy", 4, 0.5, 51);
  expect_identical(Engine().run_one(one), run(one));
}

TEST(Engine, UnknownSchemeThrowsBeforeAnyWork) {
  Campaign campaign("bad");
  Scenario bogus;
  bogus.scheme = "no_such_scheme";
  campaign.add(bogus);
  EXPECT_THROW((void)Engine().run(campaign), ScenarioError);
}

// ---------------------------------------------------------------- JSONL

/// Pulls the raw token after "key": (string values without the quotes).
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  if (line[begin] == '"') {
    ++begin;
    std::string out;
    for (std::size_t i = begin; i < line.size(); ++i) {
      if (line[i] == '\\') {
        out += line[++i];
      } else if (line[i] == '"') {
        return out;
      } else {
        out += line[i];
      }
    }
    return out;
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

TEST(JsonlSink, EscapesControlCharactersInLabels) {
  CellResult cell;
  cell.index = 0;
  cell.label = "tab\there \"quoted\" back\\slash\nnewline \x01" "bel";
  const std::string line = JsonlSink::to_json("camp\raign", cell);
  EXPECT_EQ(line.find('\t'), std::string::npos);
  EXPECT_EQ(line.find('\r'), std::string::npos);
  EXPECT_EQ(line.find('\x01'), std::string::npos);
  EXPECT_NE(line.find("tab\\there"), std::string::npos);
  EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(line.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(line.find("\\nnewline"), std::string::npos);
  EXPECT_NE(line.find("\\u0001bel"), std::string::npos);
  EXPECT_NE(line.find("camp\\raign"), std::string::npos);
}

TEST(JsonlSink, SchemaRoundTripsThroughScenarioParse) {
  std::ostringstream out;
  JsonlSink jsonl(out);
  std::vector<ResultSink*> sinks{&jsonl};

  Campaign campaign("jsonl_campaign");
  campaign.add("cell a", tiny("hypercube_greedy", 4, 0.5, 61));
  campaign.add("cell b", tiny("butterfly_greedy", 4, 0.4, 62));
  const auto cells = Engine(EngineOptions{.sinks = sinks}).run(campaign);

  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(json_field(line, "campaign"), "jsonl_campaign");

    const std::size_t index = std::stoul(json_field(line, "cell"));
    ASSERT_LT(index, cells.size());
    const CellResult& cell = cells[index];
    EXPECT_EQ(json_field(line, "label"), cell.label);
    EXPECT_EQ(json_field(line, "from_cache"), "false");

    // The scenario field is the canonical one-liner: Scenario::parse_text
    // of it reconstructs the resolved cell scenario exactly.
    EXPECT_EQ(Scenario::parse_text(json_field(line, "scenario")), cell.scenario);

    // Numbers are emitted in shortest-round-trip form: parsing them back
    // recovers the RunResult bit for bit.
    EXPECT_DOUBLE_EQ(std::stod(json_field(line, "delay_mean")),
                     cell.result.delay.mean);
    EXPECT_DOUBLE_EQ(std::stod(json_field(line, "delay_half_width")),
                     cell.result.delay.half_width);
    EXPECT_DOUBLE_EQ(std::stod(json_field(line, "throughput_mean")),
                     cell.result.throughput.mean);
    EXPECT_DOUBLE_EQ(std::stod(json_field(line, "rho")), cell.result.rho);
    EXPECT_EQ(json_field(line, "has_bounds"),
              cell.result.has_bounds ? "true" : "false");
    ++lines;
  }
  EXPECT_EQ(lines, campaign.size());
}

// ------------------------------------------------- checkpoint / resume

/// Two schemes with extras (one fault-injected) — the resume-equals-cold
/// pin must cover scheme-specific metric vectors, not just the core ones.
Campaign production_campaign() {
  Campaign campaign("production");
  campaign.add("hc rho=0.3", tiny("hypercube_greedy", 4, 0.3, 71));
  campaign.add("hc rho=0.5", tiny("hypercube_greedy", 4, 0.5, 71));
  Scenario faulty = tiny("hypercube_greedy", 4, 0.4, 72);
  faulty.set("fault_rate", "0.02");
  campaign.add("faulty", faulty);
  campaign.add("bf", tiny("butterfly_greedy", 4, 0.4, 73));
  return campaign;
}

std::string temp_store_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "campaign_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(Engine, StoreTierServesAcrossEngineInstancesBitIdentically) {
  const std::string path = temp_store_path("store_tier.jsonl");
  const Campaign campaign = production_campaign();

  std::vector<CellResult> cold;
  {
    ResultStore store(path);
    ASSERT_TRUE(store.ok()) << store.error();
    ResultCache cache;
    cold = Engine(EngineOptions{.cache = &cache, .store = &store})
               .run(campaign);
    EXPECT_EQ(store.size(), campaign.size());
  }

  // A fresh process: empty cache, reopened store.  Every cell must come
  // back from disk — no recomputation — bit-identical to the cold run.
  ResultStore store(path);
  ASSERT_TRUE(store.ok());
  ResultCache cache;
  const auto resumed =
      Engine(EngineOptions{.cache = &cache, .store = &store}).run(campaign);
  ASSERT_EQ(resumed.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(cold[i].label);
    EXPECT_FALSE(cold[i].from_store);
    EXPECT_TRUE(resumed[i].from_store);
    EXPECT_TRUE(resumed[i].from_cache);
    EXPECT_TRUE(resumed[i].completed);
    expect_identical(resumed[i].result, cold[i].result);
    // Byte-level pin on top of the field compare: the serialised records
    // are what a restarted process actually reads.
    EXPECT_EQ(result_to_json(resumed[i].result),
              result_to_json(cold[i].result));
  }
}

TEST(Engine, StopTokenCheckpointsWholeCellsOnly) {
  const std::string path = temp_store_path("stop.jsonl");
  const Campaign campaign = production_campaign();
  const auto cold = Engine().run(campaign);

  std::atomic<bool> stop{false};
  ProgressSink brake([&](const CellResult&) { stop.store(true); });
  std::vector<ResultSink*> sinks{&brake};
  std::size_t sink_cells = 0;
  ProgressSink counter([&](const CellResult&) { ++sink_cells; });
  sinks.push_back(&counter);

  ResultStore store(path);
  ResultCache cache;
  // threads=1 makes the interruption point deterministic: the stop is
  // requested while the first cell's sink call runs, so exactly one cell
  // finishes before admission ceases.
  const auto interrupted =
      Engine(EngineOptions{.threads = 1,
                           .cache = &cache,
                           .store = &store,
                           .sinks = sinks,
                           .stop = &stop})
          .run(campaign);
  ASSERT_EQ(interrupted.size(), campaign.size());
  std::size_t finished = 0;
  for (const auto& cell : interrupted) {
    SCOPED_TRACE(cell.label);
    if (cell.completed) {
      ++finished;
      expect_identical(cell.result, cold[cell.index].result);
    } else {
      // Cancelled cells never reached a sink and carry no partial result.
      EXPECT_FALSE(cell.from_cache);
    }
  }
  EXPECT_EQ(finished, 1u);
  EXPECT_EQ(sink_cells, finished);     // sinks saw finished cells only
  EXPECT_EQ(store.size(), finished);   // ...and so did the durable tier

  // Resume: same store, fresh cache, stop released.  Finished cells come
  // from disk, pending ones compute, and the union is bit-identical to
  // the uninterrupted cold run — the checkpoint changed nothing.
  stop.store(false);
  ResultCache fresh;
  const auto resumed =
      Engine(EngineOptions{.cache = &fresh, .store = &store}).run(campaign);
  std::size_t from_store = 0;
  for (const auto& cell : resumed) {
    SCOPED_TRACE(cell.label);
    EXPECT_TRUE(cell.completed);
    from_store += cell.from_store ? 1 : 0;
    expect_identical(cell.result, cold[cell.index].result);
  }
  EXPECT_EQ(from_store, finished);
  EXPECT_EQ(store.size(), campaign.size());
}

TEST(Engine, StopBeforeAnyWorkLeavesEverythingPending) {
  std::atomic<bool> stop{true};
  const auto cells =
      Engine(EngineOptions{.threads = 1, .stop = &stop})
          .run(production_campaign());
  for (const auto& cell : cells) {
    EXPECT_FALSE(cell.completed);
    EXPECT_FALSE(cell.from_cache);
  }
}

/// The process-wide routesim_engine_cells_<tier>_total counter.
double engine_cells(const std::string& tier) {
  const auto snapshot = obs::global_metrics().snapshot();
  const auto* item = snapshot.find("routesim_engine_cells_" + tier + "_total");
  return item != nullptr ? item->value : 0.0;
}

/// How much each tier counter grew while `body` ran.
std::map<std::string, double> tier_deltas(const std::function<void()>& body) {
  const std::vector<std::string> tiers{"cache", "store", "computed"};
  std::map<std::string, double> deltas;
  for (const auto& tier : tiers) deltas[tier] = -engine_cells(tier);
  body();
  for (const auto& tier : tiers) deltas[tier] += engine_cells(tier);
  return deltas;
}

TEST(Engine, TierCountersCountEachFinishedCellOnceByItsTier) {
  using Deltas = std::map<std::string, double>;
  Campaign twice("twice");
  twice.add("a", tiny("hypercube_greedy", 4, 0.5, 81));
  twice.add("b", tiny("hypercube_greedy", 4, 0.5, 81));

  // An in-campaign duplicate is answered by the cache tier, as its
  // CellResult::tier() says.
  std::vector<CellResult> cells;
  EXPECT_EQ(tier_deltas([&] { cells = Engine().run(twice); }),
            (Deltas{{"cache", 1.0}, {"store", 0.0}, {"computed", 1.0}}));
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_STREQ(cells[0].tier(), "computed");
  EXPECT_STREQ(cells[1].tier(), "cache");

  const std::string path = temp_store_path("tier_counters.jsonl");
  ResultStore store(path);
  ASSERT_TRUE(store.ok()) << store.error();
  Campaign once("once");
  once.add(tiny("hypercube_greedy", 4, 0.5, 82));
  (void)Engine(EngineOptions{.store = &store}).run(once);
  EXPECT_EQ(tier_deltas([&] {
              (void)Engine(EngineOptions{.store = &store}).run(once);
            }),
            (Deltas{{"cache", 0.0}, {"store", 1.0}, {"computed", 0.0}}));

  // Cells a stop leaves pending finished nowhere, so no tier counts them.
  std::atomic<bool> stop{true};
  EXPECT_EQ(tier_deltas([&] {
              (void)Engine(EngineOptions{.threads = 1, .stop = &stop})
                  .run(twice);
            }),
            (Deltas{{"cache", 0.0}, {"store", 0.0}, {"computed", 0.0}}));
}

TEST(Engine, ReplayedJsonlStreamResumesBitIdentically) {
  // A completed campaign streamed to --jsonl, replayed into a fresh
  // cache: the rerun must serve every cell from the replay, exactly.
  const std::string path = temp_store_path("replayed.jsonl");
  const Campaign campaign = production_campaign();
  std::vector<CellResult> cold;
  {
    JsonlSink jsonl(path, {});
    ASSERT_TRUE(jsonl.ok());
    std::vector<ResultSink*> sinks{&jsonl};
    cold = Engine(EngineOptions{.sinks = sinks}).run(campaign);
  }

  ResultCache cache;
  std::size_t replayed = 0;
  replay_results(path, [&](const std::string& key, const Scenario&,
                           const RunResult& result) {
    cache.insert(key, result);
    ++replayed;
  });
  EXPECT_EQ(replayed, campaign.size());

  const auto resumed =
      Engine(EngineOptions{.cache = &cache}).run(campaign);
  for (const auto& cell : resumed) {
    SCOPED_TRACE(cell.label);
    EXPECT_TRUE(cell.from_cache);
    expect_identical(cell.result, cold[cell.index].result);
  }
}

}  // namespace
}  // namespace routesim
