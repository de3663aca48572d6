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

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
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

}  // namespace
}  // namespace routesim
