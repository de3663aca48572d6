// Deterministic mutation fuzz of every parser that reads outside input:
// the JSON reader, the trace JSONL loader, the result store's loader and
// replay, and scenario strings.  Each target gets seeded byte flips,
// inserts, deletes, truncations and splices of a small seed corpus and
// must either accept the mutant or reject it the documented way — never
// crash, hang or throw anything else.  Under the sanitize build the same
// runs check for memory errors and undefined behaviour.  Serve requests
// are fuzzed as JSON only: handle_request on a mutated query could start
// an arbitrarily large simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "store/result_store.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace routesim {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Seeded mutator over a corpus: each mutant is a corpus member with one
/// to four byte-level edits.
class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string next() {
    std::string text = pick();
    const int edits = 1 + static_cast<int>(rng_.uniform_below(4));
    for (int i = 0; i < edits; ++i) edit(text);
    return text;
  }

 private:
  const std::string& pick() { return corpus_[rng_.uniform_below(corpus_.size())]; }

  std::size_t position(const std::string& text) {
    return static_cast<std::size_t>(rng_.uniform_below(text.size() + 1));
  }

  char byte() {
    // Mostly bytes that matter to the grammars, sometimes any byte.
    static constexpr char kSyntax[] = "\"\\{}[],:-+.eE0123456789 \n\t=utfnl";
    if (rng_.bernoulli(0.75)) {
      return kSyntax[rng_.uniform_below(sizeof kSyntax - 1)];
    }
    return static_cast<char>(rng_.uniform_below(256));
  }

  void edit(std::string& text) {
    switch (rng_.uniform_below(5)) {
      case 0:  // flip one bit of one byte
        if (!text.empty()) {
          text[rng_.uniform_below(text.size())] ^=
              static_cast<char>(1u << rng_.uniform_below(8));
        }
        break;
      case 1:  // insert a byte
        text.insert(position(text), 1, byte());
        break;
      case 2: {  // delete a short run
        const std::size_t at = position(text);
        text.erase(at, 1 + rng_.uniform_below(8));
        break;
      }
      case 3:  // truncate
        text.resize(position(text));
        break;
      default: {  // splice: this prefix, another member's suffix
        const std::string& other = pick();
        text = text.substr(0, position(text)) +
               other.substr(static_cast<std::size_t>(rng_.uniform_below(other.size() + 1)));
        break;
      }
    }
  }

  Rng rng_;
  std::vector<std::string> corpus_;
};

// ------------------------------------------------------------- seed corpora

std::vector<std::string> scenario_corpus() {
  return {
      "hypercube_greedy d=5 rho=0.6 reps=4 seed=7",
      "hypercube_greedy d=6 lambda=1.2 p=0.25 tau=1 measure=500 warmup=100",
      "butterfly_greedy d=4 rho=0.5 reps=2 seed=3",
      "hypercube_greedy d=8 rho=0.7 topology=ring ring_chords=papillon",
      "hypercube_greedy d=4 topology=torus torus_dims=4x4 rho=0.3",
      "valiant_mixing d=5 rho=0.4 reps=3",
      "deflection d=5 lambda=0.2",
      "hypercube_greedy d=6 rho=0.5 fault_rate=0.05 fault_policy=adaptive storm_rate=0.01",
      Scenario::parse_text("hypercube_greedy d=5 rho=0.6 reps=4 seed=7")
          .resolved()
          .to_string(),
  };
}

RunResult sample_result() {
  RunResult result;
  result.rho = 0.6;
  result.delay = {1.0 / 3.0, 0.015625};
  result.population = {12.75, 0.5};
  result.throughput = {2.25, 0.0};
  result.mean_hops = 2.0000000000000004;
  result.max_little_error = 1e-9;
  result.has_bounds = true;
  result.lower_bound = 3.0625;
  result.upper_bound = 3.75;
  result.extras.emplace_back("delivery_ratio", ConfidenceInterval{1.0, 0.0});
  result.extras.emplace_back("delay_p99", ConfidenceInterval{6.851, 0.25});
  return result;
}

std::vector<std::string> store_corpus() {
  std::vector<std::string> records;
  for (const std::string& text : scenario_corpus()) {
    Scenario scenario;
    try {
      scenario = Scenario::parse_text(text).resolved();
    } catch (const ScenarioError&) {
      continue;
    }
    records.push_back(store_record_json(ResultCache::key(scenario), scenario,
                                        sample_result()));
  }
  return records;
}

std::vector<std::string> trace_corpus() {
  const std::string path = ::testing::TempDir() + "fuzz_seed_trace.jsonl";
  const auto trace = generate_hypercube_trace(
      4, 0.3, DestinationDistribution::uniform(4), 40.0, 5);
  save_trace_jsonl(trace, path);
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  lines.push_back(R"({"t":0.5,"src":15,"dst":0})");
  lines.push_back(R"({"dst":3,"src":2,"t":1e2,"extra":[1,{"x":null}]})");
  return lines;
}

std::vector<std::string> request_corpus() {
  return {
      R"({"op":"query","id":1,"scenario":"hypercube_greedy d=6 rho=0.6 reps=8 seed=1"})",
      R"({"op":"grid","id":"g","scenario":"hypercube_greedy d=6","axes":["rho=0.2:0.8:0.2","d=4:6:2"]})",
      R"({"op":"stats","id":3})",
      R"({"op":"metrics"})",
      R"({"op":"ping","id":-0.5e-3})",
      R"({"op":"shutdown","id":"é😀\n"})",
  };
}

/// Joins `count` random corpus lines (mutated as a whole afterwards) into
/// one file's content.
std::string join_lines(Rng& rng, const std::vector<std::string>& lines,
                       std::size_t count) {
  std::string content;
  for (std::size_t i = 0; i < count; ++i) {
    content += lines[rng.uniform_below(lines.size())] + "\n";
  }
  return content;
}

/// The trace loader's documented rules written the plain way, as the
/// differential reference: std::getline splits the file and json::parse
/// reads every non-empty line, which must be an object with a finite
/// number "t" (>= 0, non-decreasing) and integer numbers "src"/"dst" in
/// [0, 2^d).  Returns the packets, or the exception's type and message.
struct TraceOutcome {
  std::vector<TracedPacket> packets;
  std::string error;
};

TraceOutcome reference_trace_load(const std::string& path, int d) {
  TraceOutcome outcome;
  std::ifstream in(path);
  if (!in) return {{}, "runtime_error: trace file '" + path + "': cannot open"};
  const double nodes = std::ldexp(1.0, d);
  std::size_t line_number = 0;
  double previous = 0.0;
  const auto fail = [&](const std::string& reason) {
    return TraceOutcome{{}, "invalid_argument: trace file '" + path + "' line " +
                                std::to_string(line_number) + ": " + reason};
  };
  for (std::string line; std::getline(in, line);) {
    ++line_number;
    if (line.empty()) continue;
    json::Value record;
    std::string error;
    if (!json::parse(line, &record, &error)) return fail(error);
    if (!record.is_object()) return fail("expected a JSON object");
    double values[3];
    const char* const keys[3] = {"t", "src", "dst"};
    for (int i = 0; i < 3; ++i) {
      const std::string key = keys[i];
      const json::Value* field = record.find(key);
      if (field == nullptr) return fail("missing field \"" + key + "\"");
      if (!field->is_number()) return fail("field \"" + key + "\" is not a number");
      const double value = field->number;
      if (!std::isfinite(value)) return fail("field \"" + key + "\" is not finite");
      if (i == 0) {
        if (value < 0.0) return fail("time is negative");
        if (value < previous) {
          return fail("times must be non-decreasing (" + fmt_shortest(value) +
                      " after " + fmt_shortest(previous) + ")");
        }
        previous = value;
      } else if (value < 0.0 || value != std::floor(value) || value >= nodes) {
        return fail("field \"" + key + "\" must be an integer in [0, " +
                    std::to_string(static_cast<std::uint64_t>(nodes)) + "), got " +
                    fmt_shortest(value));
      }
      values[i] = value;
    }
    outcome.packets.push_back(TracedPacket{values[0], static_cast<NodeId>(values[1]),
                                           static_cast<NodeId>(values[2])});
  }
  if (in.bad()) return {{}, "runtime_error: trace file '" + path + "': read failed"};
  return outcome;
}

/// Loads `content` through load_trace_jsonl and the reference and checks
/// that both give bit-identical packets or the identical error.  Returns
/// whether the file loaded.
bool expect_trace_matches_reference(const std::string& path,
                                    const std::string& content) {
  write_file(path, content);
  TraceOutcome loaded;
  try {
    loaded.packets = load_trace_jsonl(path, 4).packets;
  } catch (const std::invalid_argument& e) {
    loaded.error = std::string("invalid_argument: ") + e.what();
  } catch (const std::runtime_error& e) {
    loaded.error = std::string("runtime_error: ") + e.what();
  }
  const TraceOutcome reference = reference_trace_load(path, 4);
  EXPECT_EQ(loaded.error, reference.error) << content.substr(0, 400);
  EXPECT_EQ(loaded.packets.size(), reference.packets.size()) << content.substr(0, 400);
  if (loaded.error != reference.error ||
      loaded.packets.size() != reference.packets.size()) {
    return false;
  }
  for (std::size_t i = 0; i < loaded.packets.size(); ++i) {
    const TracedPacket& a = loaded.packets[i];
    const TracedPacket& b = reference.packets[i];
    EXPECT_EQ(std::memcmp(&a.time, &b.time, sizeof a.time), 0)
        << "packet " << i << ": " << a.time << " vs " << b.time;
    EXPECT_EQ(a.origin, b.origin) << "packet " << i;
    EXPECT_EQ(a.destination, b.destination) << "packet " << i;
  }
  return reference.error.empty();
}

/// Lines at the edges of the number grammar and the record layout.
std::vector<std::string> trace_edge_lines() {
  return {
      R"({"t":-0,"src":-0,"dst":0})",
      R"({"t":1e-400,"src":0,"dst":1})",
      R"({"t":1e400,"src":0,"dst":1})",
      R"({"t":0.5,"src":1e400,"dst":1})",
      R"({"t":01,"src":0,"dst":1})",
      R"({"t":1.,"src":0,"dst":1})",
      R"({"t":.5,"src":0,"dst":1})",
      R"({"t":1E+2,"src":0,"dst":1})",
      R"({"t":2,"src":1.5,"dst":1})",
      R"({"t":-1,"src":16,"dst":0})",
      R"({"t":0,"src":16,"dst":-1})",
      R"({"t":1e400,"src":0.5,"dst":0})",
      R"({"t":2,"src":3,"dst":16})",
      R"({"t":"2","src":3,"dst":4})",
      "{\"t\":3,\"src\":1,\"dst\":2}\r",
      R"({"t":3,"src":1,"dst":2}  )",
      R"( {"t":3,"src":1,"dst":2})",
      R"({"t": 3,"src":1,"dst":2})",
      R"({"src":1,"t":3,"dst":2})",
      R"({"t":3,"src":1,"dst":2,"dst":5})",
      R"({"t":3,"t":3.5,"src":1,"dst":2})",
      R"({"t":3,"src":1,"dst":2,"x":[null]})",
      R"({"t":3,"src":1})",
      R"({"t":3,"src":1,"dst":2}})",
      R"([3,1,2])",
      "",
  };
}

/// The store loader's documented rules written the plain way, as the
/// differential reference: lines split as std::getline splits them, and
/// json::parse reads every non-blank one.  A record is an object with a
/// number "v", a non-empty string "key" and a "result" member; "v" other
/// than 1 is version-skipped, then result_from_json must read the result.
/// A string "scenario" is kept (else empty), ` threads=` tokens leave key
/// and scenario, and the last record of a key wins.  Any other line is
/// garbage, or the truncated tail when it has no newline.
struct StoreOutcome {
  ResultStore::LoadStats stats;
  std::vector<std::string> keys;
  std::vector<std::string> results;  ///< result_to_json, in key order
  std::string compacted;             ///< the file compact() writes
};

std::string without_threads(std::string text) {
  for (std::size_t at; (at = text.find(" threads=")) != std::string::npos;) {
    const std::size_t end = text.find(' ', at + 1);
    text.erase(at, end == std::string::npos ? std::string::npos : end - at);
  }
  return text;
}

StoreOutcome reference_store_load(const std::string& content) {
  StoreOutcome outcome;
  ResultStore::LoadStats& stats = outcome.stats;
  std::map<std::string, std::pair<std::string, RunResult>> index;
  std::istringstream in(content);
  for (std::string line; std::getline(in, line);) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    json::Value record;
    const json::Value* version = nullptr;
    const json::Value* key = nullptr;
    const json::Value* result = nullptr;
    const bool is_record = json::parse(line, &record) && record.is_object() &&
                           (version = record.find("v")) != nullptr &&
                           version->is_number() &&
                           (key = record.find("key")) != nullptr && key->is_string() &&
                           !key->string.empty() &&
                           (result = record.find("result")) != nullptr;
    if (is_record && version->number != 1.0) {
      ++stats.skipped_version;
      continue;
    }
    RunResult value;
    if (is_record && result_from_json(*result, &value)) {
      const json::Value* scenario = record.find("scenario");
      std::string text = scenario != nullptr && scenario->is_string()
                             ? without_threads(scenario->string)
                             : std::string();
      const std::string name = without_threads(key->string);
      if (index.count(name) == 0) {
        outcome.keys.push_back(name);
      } else {
        ++stats.duplicate_keys;
      }
      index[name] = {std::move(text), std::move(value)};
      ++stats.records_loaded;
      continue;
    }
    if (in.eof()) {
      stats.truncated_tail = true;
    } else {
      ++stats.skipped_garbage;
    }
  }
  for (const std::string& key : outcome.keys) {
    const auto& [text, result] = index.at(key);
    outcome.results.push_back(result_to_json(result));
    outcome.compacted += "{\"v\":1,\"key\":\"" + json_escape(key) +
                         "\",\"scenario\":\"" + json_escape(text) +
                         "\",\"result\":" + result_to_json(result) + "}\n";
  }
  return outcome;
}

/// Opens `content` as a ResultStore and checks its LoadStats (all but
/// fallback_lines), keys, fetched results and compact() file against the
/// reference.  Returns the store's LoadStats.
ResultStore::LoadStats expect_store_matches_reference(const std::string& path,
                                                      const std::string& content) {
  write_file(path, content);
  const StoreOutcome reference = reference_store_load(content);
  ResultStore store(path);
  const ResultStore::LoadStats stats = store.load_stats();
  const std::string shown = content.substr(0, 400);
  EXPECT_EQ(stats.records_loaded, reference.stats.records_loaded) << shown;
  EXPECT_EQ(stats.duplicate_keys, reference.stats.duplicate_keys) << shown;
  EXPECT_EQ(stats.skipped_garbage, reference.stats.skipped_garbage) << shown;
  EXPECT_EQ(stats.skipped_version, reference.stats.skipped_version) << shown;
  EXPECT_EQ(stats.truncated_tail, reference.stats.truncated_tail) << shown;
  EXPECT_EQ(store.keys(), reference.keys) << shown;
  std::vector<std::string> results;
  RunResult result;
  for (const std::string& key : store.keys()) {
    EXPECT_TRUE(store.fetch(key, &result)) << shown;
    results.push_back(result_to_json(result));
  }
  EXPECT_EQ(results, reference.results) << shown;
  EXPECT_TRUE(store.compact()) << store.error();
  EXPECT_EQ(read_file(path), reference.compacted) << shown;
  return stats;
}

/// `text` with its first `from` (searched from `after`'s first match on)
/// replaced by `to`.
std::string replace_first(std::string text, const std::string& from,
                          const std::string& to, const std::string& after = "") {
  const std::size_t at = text.find(from, after.empty() ? 0 : text.find(after));
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// `record` with the value of its first member `name` replaced by `value`.
std::string with_value(const std::string& record, const std::string& name,
                       const std::string& value) {
  const std::string head = "\"" + name + "\":";
  std::string text = record;
  const std::size_t at = text.find(head);
  if (at == std::string::npos) return text;
  const std::size_t begin = at + head.size();
  text.replace(begin, text.find_first_of(",}", begin) - begin, value);
  return text;
}

/// Store lines at the edges of the record layout: the store's own layout
/// and respellings of it the JSON reader gives the same meaning, records
/// that are garbage or of another version either way, and the values the
/// layout spells as strings.
std::vector<std::string> store_edge_lines() {
  const std::string r = store_corpus().front();
  const std::string key_head = R"({"v":1,"key":")";
  const std::string scenario_head = R"(","scenario":")";
  const std::string result_head = R"(","result":)";
  const std::size_t key_end = r.find(scenario_head);
  const std::size_t scenario_end = r.find(result_head);
  const std::string key = r.substr(key_head.size(), key_end - key_head.size());
  const std::size_t scenario_begin = key_end + scenario_head.size();
  const std::string scenario = r.substr(scenario_begin, scenario_end - scenario_begin);
  const std::size_t result_begin = scenario_end + result_head.size();
  const std::string result = r.substr(result_begin, r.size() - 1 - result_begin);
  const auto record = [&](const std::string& k, const std::string& text,
                          const std::string& res) {
    return key_head + k + scenario_head + text + result_head + res + "}";
  };
  EXPECT_EQ(record(key, scenario, result), r);
  std::string respelled = r;
  for (std::size_t at = 0; (at = respelled.find("\":", at)) != std::string::npos;
       at += 3) {
    respelled.insert(at + 2, 1, ' ');
  }
  const std::string threads_key = replace_first(key, " backend=", " threads=3 backend=");
  const std::string threads_scenario =
      replace_first(scenario, " backend=", " threads=2 backend=");
  return {
      r,
      respelled,
      r + "\r",
      " " + r,
      r + "  ",
      replace_first(r, R"({"v":1,)", R"({"v":1.0,)"),
      replace_first(r, R"({"v":1,)", R"({"v":1e0,)"),
      replace_first(r, R"({"v":1,)", R"({"v":2,)"),
      replace_first(r, R"({"v":1,)", R"({"v":"1",)"),
      replace_first(r, R"({"v":1,)", R"({)"),
      replace_first(r, R"("key":"h)", R"("key":"\u0068)"),
      replace_first(r, " d=", R"(\u0020d=)", R"("scenario")"),
      replace_first(r, R"("scenario":")", R"("scenario":"\/)"),
      R"({"v":1,"scenario":")" + scenario + R"(","key":")" + key + R"(","result":)" +
          result + "}",
      R"({"v":1,"key":"other","key":")" + key + r.substr(key_end),
      record(threads_key, threads_scenario, result),
      record(" threads=1", scenario, result),
      record("", scenario, result),
      record("caf\xc3\xa9", scenario, result),
      record("tab\there", scenario, result),
      record("del\x7f", scenario, result),
      R"({"v":1,"key":")" + key + R"(","result":)" + result + "}",
      replace_first(r, R"("scenario":")" + scenario + "\"", R"("scenario":7)"),
      record(key, scenario, with_value(result, "mean_hops", "null")),
      record(key, scenario, with_value(result, "mean_hops", "\"nan\"")),
      record(key, scenario, with_value(result, "delay_mean", "\"inf\"")),
      record(key, scenario, with_value(result, "delay_half_width", "\"-inf\"")),
      record(key, scenario, with_value(result, "rho", "\"Inf\"")),
      record(key, scenario, with_value(result, "rho", "1e400")),
      record(key, scenario, with_value(result, "rho", "-0")),
      record(key, scenario, with_value(result, "rho", "01")),
      record(key, scenario, with_value(result, "rho", "1E+2")),
      record(key, scenario, with_value(result, "has_bounds", "null")),
      record(key, scenario,
             with_value(with_value(result, "has_bounds", "false"), "lower_bound",
                        "\"junk\"")),
      record(key, scenario, with_value(result, "has_bounds", "false")),
      record(key, scenario, replace_first(result, R"(,"upper_bound":3.75)", "")),
      record(key, scenario, replace_first(result, R"({"rho":0.6,)", "{")),
      record(key, scenario,
             replace_first(replace_first(result, R"({"rho":0.6,)", "{"),
                           R"("extras")", R"("rho":0.6,"extras")")),
      record(key, scenario, replace_first(result, R"("extras":{"delivery_ratio")",
                                          R"("extras":{"delay_p99")")),
      record(key, scenario, replace_first(result, R"("extras":{"delivery_ratio")",
                                          R"("extras":{"caf\u00e9")")),
      record(key, scenario, replace_first(result, R"("extras":{"delivery_ratio")",
                                          R"("extras":{"\xc3\xa9")")),
      record(key, scenario, replace_first(result, R"("extras":{"delivery_ratio")",
                                          R"("extras":{"")")),
      record(key, scenario, result.substr(0, result.find(R"("extras":{)") + 10) + "}}"),
      record(key, scenario, result.substr(0, result.find(R"(,"extras":{)")) + "}"),
      record(key, scenario, replace_first(result, R"("extras":{)", R"("extras":[)")),
      record(key, scenario, replace_first(result, R"({"mean":1,)", R"({"mean":1,"mean":2,)")),
      r + "x",
      r + "}",
      r.substr(0, r.size() - 1),
      "[1,2]",
      "\"a string\"",
      "not json",
  };
}

// ------------------------------------------------------------------ targets

TEST(Fuzz, JsonParseAcceptsOrReportsAnOffset) {
  std::vector<std::string> corpus = request_corpus();
  for (auto* more : {&trace_corpus, &store_corpus, &scenario_corpus}) {
    for (std::string& text : more()) corpus.push_back(std::move(text));
  }
  Mutator mutator(0xF022, corpus);
  json::Value reused;
  std::size_t accepted = 0;
  constexpr int kMutants = 100'000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutator.next();
    json::Value fresh;
    std::string error;
    std::string reused_error;
    const bool ok = json::parse(text, &fresh, &error);
    ASSERT_EQ(json::parse(text, &reused, &reused_error), ok) << text;
    if (ok) {
      ++accepted;
      continue;
    }
    ASSERT_EQ(error.rfind("offset ", 0), 0u) << text << ": " << error;
    ASSERT_LE(std::stoul(error.substr(7)), text.size()) << text << ": " << error;
    ASSERT_EQ(reused_error, error) << text;
  }
  // The mutants reach past the first syntax check.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutants));
}

TEST(Fuzz, TraceLoaderReturnsOrNamesALine) {
  const std::string path = ::testing::TempDir() + "fuzz_trace.jsonl";
  const std::vector<std::string> lines = trace_corpus();
  Rng rng(0xF023);
  std::vector<std::string> files;
  for (int i = 0; i < 16; ++i) files.push_back(join_lines(rng, lines, 1 + rng.uniform_below(6)));
  Mutator mutator(0xF024, files);
  std::size_t loaded = 0;
  constexpr int kMutants = 3000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string content = mutator.next();
    write_file(path, content);
    try {
      const PacketTrace trace = load_trace_jsonl(path, 4);
      double previous = 0.0;
      for (const TracedPacket& packet : trace.packets) {
        ASSERT_GE(packet.time, previous) << content;
        ASSERT_LT(packet.origin, 16u) << content;
        ASSERT_LT(packet.destination, 16u) << content;
        previous = packet.time;
      }
      ++loaded;
    } catch (const std::invalid_argument& e) {
      ASSERT_NE(std::string(e.what()).find("' line "), std::string::npos)
          << content << ": " << e.what();
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, static_cast<std::size_t>(kMutants));
}

TEST(Fuzz, TraceLoaderMatchesTheJsonParseReference) {
  const std::string path = ::testing::TempDir() + "fuzz_trace_reference.jsonl";
  std::vector<std::string> lines = trace_corpus();
  for (std::string& line : trace_edge_lines()) lines.push_back(std::move(line));
  Rng rng(0xF028);
  std::vector<std::string> files;
  for (int i = 0; i < 24; ++i) {
    std::string file = join_lines(rng, lines, 1 + rng.uniform_below(6));
    if (rng.bernoulli(0.5)) file.pop_back();  // no final newline
    files.push_back(std::move(file));
  }
  // Every seed file as it is, then mutants of them.
  std::size_t loaded = 0;
  for (const std::string& file : files) {
    loaded += expect_trace_matches_reference(path, file) ? 1 : 0;
  }
  Mutator mutator(0xF029, files);
  constexpr int kMutants = 3000;
  for (int i = 0; i < kMutants; ++i) {
    loaded += expect_trace_matches_reference(path, mutator.next()) ? 1 : 0;
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, static_cast<std::size_t>(kMutants));
}

TEST(Fuzz, TraceLoaderMatchesTheReferenceAcrossBufferBoundaries) {
  // The loader streams through a 64 KiB buffer: these files cross it
  // mid-line, end a line on its last byte, and hold lines longer than it.
  constexpr std::size_t kBuffer = 64 * 1024;
  const std::string path = ::testing::TempDir() + "fuzz_trace_boundary.jsonl";
  std::string canonical;
  {
    const std::string seed_path = ::testing::TempDir() + "fuzz_trace_boundary_seed.jsonl";
    save_trace_jsonl(generate_hypercube_trace(4, 2.0, DestinationDistribution::uniform(4),
                                              400.0, 9),
                     seed_path);
    canonical = read_file(seed_path);
    std::remove(seed_path.c_str());
  }
  ASSERT_GT(canonical.size(), 2 * kBuffer);
  // A line of every length around the buffer's size, at time `t`, padded
  // inside the record (not canonical) or inside its time (canonical).
  const auto padded_line = [](const std::string& t, std::size_t length,
                              bool canonical_layout) {
    const std::string head = R"({"t":)" + t;
    const std::string tail = R"(,"src":1,"dst":2})";
    const std::size_t padding = length - head.size() - tail.size() - 2;
    return canonical_layout ? head + ".0" + std::string(padding, '0') + tail
                            : head + std::string(padding + 2, ' ') + tail;
  };
  std::size_t loaded = 0;
  for (const std::size_t length : {kBuffer - 2, kBuffer - 1, kBuffer, kBuffer + 1}) {
    for (const bool canonical_layout : {false, true}) {
      const std::string first = padded_line("0", length, canonical_layout);
      const std::string last = padded_line("400", length, canonical_layout);
      ASSERT_EQ(first.size(), length);
      loaded += expect_trace_matches_reference(path, first + "\n" + canonical) ? 1 : 0;
      loaded += expect_trace_matches_reference(path, canonical + last) ? 1 : 0;
      loaded += expect_trace_matches_reference(path, first) ? 1 : 0;
    }
  }
  EXPECT_EQ(loaded, 24u);
  // Mutants of a multi-buffer file whose middle line is padded past the
  // buffer's length.
  const std::size_t middle = canonical.find('\n', canonical.size() / 2) + 1;
  const std::string big = canonical.substr(0, middle + 1) +
                          std::string(kBuffer + 100, ' ') + canonical.substr(middle + 1);
  EXPECT_TRUE(expect_trace_matches_reference(path, big));
  Mutator mutator(0xF02A, {big});
  for (int i = 0; i < 40; ++i) {
    (void)expect_trace_matches_reference(path, mutator.next());
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
}

TEST(Fuzz, ResultStoreLoadsAndReplaysAnyFile) {
  const std::string path = ::testing::TempDir() + "fuzz_store.jsonl";
  const std::vector<std::string> records = store_corpus();
  ASSERT_FALSE(records.empty());
  Rng rng(0xF025);
  std::vector<std::string> files;
  for (int i = 0; i < 8; ++i) files.push_back(join_lines(rng, records, 1 + rng.uniform_below(3)));
  Mutator mutator(0xF026, files);
  std::size_t loaded = 0;
  constexpr int kMutants = 1000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string content = mutator.next();
    write_file(path, content);
    std::size_t lines = 0;
    for (const char c : content) lines += c == '\n' ? 1 : 0;
    {
      ResultStore store(path);
      const ResultStore::LoadStats stats = store.load_stats();
      ASSERT_LE(store.size(), stats.records_loaded) << content;
      ASSERT_LE(stats.records_loaded + stats.skipped_garbage + stats.skipped_version,
                lines + 1)
          << content;
      RunResult result;
      for (const std::string& key : store.keys()) {
        ASSERT_TRUE(store.fetch(key, &result)) << content;
      }
      loaded += store.size();
    }
    write_file(path, content);  // the store may have appended a newline
    const std::size_t replayed = replay_results(
        path, [](const std::string&, const Scenario&, const RunResult&) {});
    ASSERT_LE(replayed, lines + 1) << content;
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded, 0u);
}

TEST(Fuzz, StoreLoaderMatchesTheJsonParseReference) {
  const std::string path = ::testing::TempDir() + "fuzz_store_reference.jsonl";
  std::vector<std::string> lines = store_corpus();
  for (std::string& line : store_edge_lines()) lines.push_back(std::move(line));
  Rng rng(0xF02B);
  std::vector<std::string> files;
  for (int i = 0; i < 40; ++i) {
    std::string file = join_lines(rng, lines, 1 + rng.uniform_below(8));
    if (rng.bernoulli(0.3)) file.pop_back();  // no final newline
    files.push_back(std::move(file));
  }
  // Every line alone (most share one key, so in a file the last wins),
  // every seed file as it is, then mutants of them.  Both readers take
  // part: the store's own layout loads in place, the rest falls back.
  for (const std::string& line : lines) {
    (void)expect_store_matches_reference(path, line + "\n");
    (void)expect_store_matches_reference(path, line);
    if (HasFailure()) break;
  }
  std::size_t lines_read = 0;
  std::size_t fallbacks = 0;
  for (const std::string& file : files) {
    fallbacks += expect_store_matches_reference(path, file).fallback_lines;
    std::istringstream in(file);
    for (std::string line; std::getline(in, line);) {
      lines_read += line.find_first_not_of(" \t\r") != std::string::npos ? 1 : 0;
    }
    if (HasFailure()) break;
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_LT(fallbacks, lines_read);
  Mutator mutator(0xF02C, files);
  std::size_t loaded = 0;
  constexpr int kMutants = 1500;
  for (int i = 0; i < kMutants; ++i) {
    loaded += expect_store_matches_reference(path, mutator.next()).records_loaded;
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded, 0u);
}

TEST(Fuzz, StoreLoaderMatchesTheReferenceAcrossBufferBoundaries) {
  // The loader streams through a 64 KiB buffer: these files put a record
  // across its edge at every offset near it, end one on its last byte,
  // and hold a record longer than it.
  constexpr std::size_t kBuffer = 64 * 1024;
  const std::string path = ::testing::TempDir() + "fuzz_store_boundary.jsonl";
  const std::vector<std::string> records = store_corpus();
  std::string canonical;
  for (std::size_t i = 0; canonical.size() < 2 * kBuffer; ++i) {
    canonical += records[i % records.size()] + "\n";
  }
  // The last newline well before the buffer's end; a blank first line of
  // `shift` bytes moves it to each offset around that end.
  const std::size_t newline = canonical.rfind('\n', kBuffer - 4);
  ASSERT_GT(kBuffer - newline, 16u);
  std::size_t files = 0;
  for (std::size_t end = kBuffer - 3; end <= kBuffer + 2; ++end) {
    const std::string blank(end - newline - 1, ' ');
    const std::string content = blank + "\n" + canonical;
    ASSERT_EQ(content[end], '\n');
    const ResultStore::LoadStats stats = expect_store_matches_reference(path, content);
    EXPECT_EQ(stats.fallback_lines, 0u) << "newline at " << end;
    EXPECT_EQ(stats.records_loaded, static_cast<std::size_t>(
                                        std::count(canonical.begin(), canonical.end(), '\n')));
    ++files;
    if (HasFailure()) break;
  }
  EXPECT_EQ(files, 6u);

  // A record longer than the buffer, in the store's layout: first, in
  // the middle, last, last without its newline, and cut.
  const Scenario scenario = Scenario::parse_text(scenario_corpus().front()).resolved();
  const std::string long_record = store_record_json(
      "long " + std::string(kBuffer + 100, 'k'), scenario, sample_result());
  const std::size_t middle = canonical.find('\n', canonical.size() / 2) + 1;
  const std::vector<std::string> long_files = {
      long_record + "\n" + canonical,
      canonical.substr(0, middle) + long_record + "\n" + canonical.substr(middle),
      canonical + long_record + "\n",
      canonical + long_record,
      canonical + long_record.substr(0, kBuffer + 50),
  };
  for (const std::string& content : long_files) {
    const ResultStore::LoadStats stats = expect_store_matches_reference(path, content);
    EXPECT_EQ(stats.fallback_lines, stats.truncated_tail ? 1u : 0u);
  }
  Mutator mutator(0xF02D, {long_files[1]});
  for (int i = 0; i < 40; ++i) {
    (void)expect_store_matches_reference(path, mutator.next());
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
}

TEST(Fuzz, ScenarioParseReturnsOrThrowsScenarioError) {
  Mutator mutator(0xF027, scenario_corpus());
  std::size_t accepted = 0;
  constexpr int kMutants = 40'000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutator.next();
    try {
      const Scenario scenario = Scenario::parse_text(text);
      // What parses prints back to text that parses to the same scenario.
      ASSERT_EQ(Scenario::parse_text(scenario.to_string()), scenario) << text;
      ++accepted;
    } catch (const ScenarioError&) {
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutants));
}

/// parse() of the tokens `>>` reads from `text`: parse_text's reference,
/// as parse_text was first written.
Scenario parse_stream_tokens(const std::string& text) {
  std::istringstream words(text);
  std::vector<std::string> tokens;
  for (std::string token; words >> token;) tokens.push_back(token);
  return Scenario::parse(tokens);
}

TEST(Fuzz, ScenarioParseTextSplitsLikeStreamExtraction) {
  Mutator mutator(0xF028, scenario_corpus());
  Rng rng(0xF029);
  static constexpr char kSpaces[] = " \t\n\v\f\r";
  std::size_t accepted = 0;
  for (int i = 0; i < 20'000; ++i) {
    std::string text = mutator.next();
    // Every separator becomes a run of random whitespace, sometimes at the
    // ends too, so each of the six characters splits tokens.
    std::string spaced = rng.bernoulli(0.5) ? "\r\n" : "";
    for (const char c : text) {
      if (c != ' ') {
        spaced += c;
        continue;
      }
      const int run = 1 + static_cast<int>(rng.uniform_below(3));
      for (int k = 0; k < run; ++k) spaced += kSpaces[rng.uniform_below(6)];
    }
    if (rng.bernoulli(0.5)) spaced += "\r\n";
    for (const std::string& input : {text, spaced}) {
      std::string want_error;
      std::string got_error;
      Scenario want;
      Scenario got;
      try {
        want = parse_stream_tokens(input);
      } catch (const ScenarioError& error) {
        want_error = error.what();
      }
      try {
        got = Scenario::parse_text(input);
      } catch (const ScenarioError& error) {
        got_error = error.what();
      }
      ASSERT_EQ(got_error, want_error) << input;
      ASSERT_EQ(got, want) << input;
      accepted += want_error.empty();
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace routesim
