// perfbench — the routesim benchmark binary (see README.md next to this
// file; perfbench/run.py builds and drives it).
//
// Runs one workload against the library's public API for a given number of
// seconds, checks that the outputs are correct, and prints one JSON report
// line on stdout:
//
//   paper_kernel   the paper's heavy-traffic cells (d=10, rho=0.9)
//   variants_grid  several dozen mid-size cells across the routing variants
//   serve_mixed    closed-loop clients against one QueryService + store
//
// With --trace 0 the report carries the end-to-end metrics.  With --trace 1
// it runs the traced pass instead: untraced and traced iterations of the
// workload interleaved (trace overhead, pool idle share, work counts), then
// the layer probes, which call each layer's public function directly and
// time it.  Every run makes its inputs (trace file, pre-filled store, query
// stream) from --seed, so the same seed gives the same inputs and results.

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "obs/trace.hpp"
#include "routing/topology_greedy.hpp"
#include "serve/service.hpp"
#include "stats/ci.hpp"
#include "stats/summary.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace {

namespace rs = routesim;
using Clock = std::chrono::steady_clock;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return kNaN;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return kNaN;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ------------------------------------------------------------------ report

/// Everything one run prints: metrics by name and unit, the correctness
/// checks, the operation counts, and the result digest.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) check("metric " + name + " is finite", false);
    metrics_.push_back({name, value, unit});
  }

  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    checks_.push_back({name, ok, detail});
    if (!ok) {
      correct_ = false;
      std::cerr << "perfbench: check failed: " << name
                << (detail.empty() ? "" : " (" + detail + ")") << '\n';
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  std::vector<double> iteration_walls;  ///< untraced, in run order

  [[nodiscard]] std::string to_json(const std::string& workload,
                                    std::uint64_t seed, bool trace,
                                    int threads) const {
    std::ostringstream os;
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"trace\":" << (trace ? 1 : 0) << ",\"threads\":" << threads
       << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
       << "\",\"compiler\":\"" << PERFBENCH_COMPILER
       << "\",\"correct\":" << (correct_ ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"digest\":\"" << digest << "\",\"iteration_walls\":[";
    for (std::size_t i = 0; i < iteration_walls.size(); ++i) {
      os << (i == 0 ? "" : ",") << json_number(iteration_walls[i]);
    }
    os << "],\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      os << (i == 0 ? "" : ",") << "{\"name\":\""
         << rs::json_escape(checks_[i].name)
         << "\",\"ok\":" << (checks_[i].ok ? "true" : "false")
         << ",\"detail\":\"" << rs::json_escape(checks_[i].detail) << "\"}";
    }
    os << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i == 0 ? "" : ",") << '"' << metrics_[i].name
         << "\":{\"value\":" << json_number(metrics_[i].value)
         << ",\"unit\":\"" << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  bool correct_ = true;
};

// ------------------------------------------------------------------ inputs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  bool smoke = false;
  std::string dir = ".";  ///< where generated inputs (trace, store) live
};

/// Problem sizes: the full benchmark, or the tiny smoke-test instance.
struct Scale {
  int paper_d, paper_measure, paper_reps;
  int grid_d, grid_measure, trace_measure;
  std::vector<double> grid_rhos;
  double probe_rho;
  std::string torus_dims;
  int store_cells, query_d, query_measure;
  int min_iterations;  ///< timed iterations (rounds for serve) at least
  int probe_rounds;    ///< serve rounds in the serve layer probe
  int probe_calls;     ///< timed replicate calls per cell in the layer probes
};

Scale make_scale(bool smoke) {
  if (smoke) {
    return {6, 200, 2, 5, 150, 100, {0.45}, 0.45, "4x8", 64, 4, 60, 2, 3, 2};
  }
  return {10, 500, 4, 8, 500, 300, {0.3, 0.45, 0.6}, 0.45, "16x16",
          2048, 6, 200, 2, 12, 5};
}

/// One campaign cell: its family name (the per-layer metric suffix) and
/// its "scheme key=value ..." scenario text.
struct Cell {
  std::string name;
  std::string text;
};

rs::Scenario parse_scenario(const std::string& text) {
  std::istringstream words(text);
  std::vector<std::string> tokens;
  for (std::string token; words >> token;) tokens.push_back(token);
  return rs::Scenario::parse(tokens);
}

rs::CompiledScenario compile_cell(const rs::Scenario& resolved) {
  const auto* info = rs::SchemeRegistry::instance().find(resolved.scheme);
  if (info == nullptr) throw rs::ScenarioError("unknown scheme " + resolved.scheme);
  return info->compile(resolved);
}

/// The topology-parametric greedy sim on the hypercube adapter: scenarios
/// with topology=hypercube stay on the native sim, so the generic side of
/// the generic-vs-native pair is registered under a scheme of its own.
constexpr const char* kGenericScheme = "perfbench_generic_greedy";

void register_generic_scheme() {
  rs::SchemeRegistry::instance().add(
      {kGenericScheme,
       "greedy routing through the topology-parametric simulator",
       [](const rs::Scenario& s) { return rs::compile_topology_greedy(s); }});
}

std::vector<Cell> paper_cells(const Scale& scale, std::uint64_t seed) {
  const std::string common =
      " d=" + std::to_string(scale.paper_d) +
      " workload=uniform rho=0.9 measure=" + std::to_string(scale.paper_measure) +
      " reps=" + std::to_string(scale.paper_reps) + " seed=" + std::to_string(seed);
  return {{"hc_cont", "hypercube_greedy" + common},
          {"hc_slot_scalar", "hypercube_greedy tau=1" + common},
          {"hc_slot_soa", "hypercube_greedy tau=1 backend=soa_batch" + common},
          {"bf_cont", "butterfly_greedy" + common}};
}

/// The pre-generated trace cell's scenario, without its trace_file.
std::string trace_scenario_text(const Scale& scale, std::uint64_t seed) {
  return "hypercube_greedy workload=trace d=" + std::to_string(scale.grid_d) +
         " rho=" + rs::fmt_shortest(scale.probe_rho) +
         " measure=" + std::to_string(scale.trace_measure) +
         " reps=2 seed=" + std::to_string(seed);
}

/// The routing variants at one load (the trace cell comes separately: it
/// replays one recorded file).
std::vector<Cell> variant_cells(const Scale& scale, double rho,
                                std::uint64_t seed) {
  const std::string common =
      " d=" + std::to_string(scale.grid_d) + " rho=" + rs::fmt_shortest(rho) +
      " measure=" + std::to_string(scale.grid_measure) +
      " reps=2 seed=" + std::to_string(seed);
  const std::string uniform = " workload=uniform" + common;
  return {
      {"native", "hypercube_greedy" + uniform},
      {"hypercube_generic", std::string(kGenericScheme) + " topology=hypercube" + uniform},
      {"ring", "hypercube_greedy topology=ring ring_chords=papillon" + uniform},
      {"torus", "hypercube_greedy topology=torus torus_dims=" + scale.torus_dims + uniform},
      {"skip_dim", "hypercube_greedy fault_rate=0.05 fault_policy=skip_dim" + uniform},
      {"adaptive", "hypercube_greedy fault_rate=0.05 fault_policy=adaptive" + uniform},
      {"dynamic", "hypercube_greedy fault_mtbf=200 fault_mttr=20 fault_policy=skip_dim" + uniform},
      {"storm", "hypercube_greedy storm_rate=0.02 storm_radius=1 storm_duration=20 "
                "fault_policy=adaptive" + uniform},
      {"twin_detour", "butterfly_greedy fault_rate=0.02 fault_policy=twin_detour" + uniform},
      {"valiant", "valiant_mixing" + uniform},
      {"deflection", "deflection" + uniform},
      {"permutation", "hypercube_greedy workload=permutation permutation=transpose" + common},
  };
}

/// Records the trace cell's packet stream (replication 0 of the sampled
/// workload) as JSONL and returns the cell that replays it.
Cell record_trace_cell(const Scale& scale, std::uint64_t seed,
                       const std::string& dir) {
  const std::string path = dir + "/trace.jsonl";
  if (path.find_first_of(" \t") != std::string::npos) {
    throw std::runtime_error("work directory path must not contain whitespace");
  }
  const std::string text = trace_scenario_text(scale, seed);
  const rs::Scenario resolved = parse_scenario(text).resolved();
  const rs::Window window = resolved.resolved_window();
  const rs::PacketTrace trace = rs::generate_hypercube_trace(
      resolved.d, resolved.lambda, resolved.make_destinations(), window.horizon,
      rs::derive_stream(resolved.plan.base_seed, 0));
  rs::save_trace_jsonl(trace, path);
  return {"trace", text + " trace_file=" + path};
}

std::vector<Cell> grid_cells(const Scale& scale, std::uint64_t seed,
                             const Cell& trace_cell) {
  std::vector<Cell> cells;
  for (const double rho : scale.grid_rhos) {
    for (Cell cell : variant_cells(scale, rho, seed)) {
      cell.name += " rho=" + rs::fmt_shortest(rho);
      cells.push_back(std::move(cell));
    }
  }
  cells.push_back(trace_cell);
  return cells;
}

/// Simulated packets delivered in the measured window over all replications.
double delivered_packets(const rs::Scenario& resolved, const rs::RunResult& result) {
  const rs::Window window = resolved.resolved_window();
  return result.throughput.mean * (window.horizon - window.warmup) *
         resolved.plan.replications;
}

/// Arcs traversed in the measured window by one replication's deliveries.
double row_hops(const rs::Scenario& resolved, const std::vector<double>& row) {
  const rs::Window window = resolved.resolved_window();
  return row[rs::metric::kThroughput] * (window.horizon - window.warmup) *
         row[rs::metric::kHops];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------------- campaigns

/// One timed iteration: every campaign group through its own Engine::run.
struct Iteration {
  double wall = 0.0;
  std::vector<double> latencies;      ///< per cell: seconds from its run's start
  std::vector<rs::CellResult> cells;  ///< group order, cell order
  std::uint64_t failed = 0;
  double pool_idle_frac = kNaN;       ///< traced iterations only
};

/// The share of pool capacity not spent in replications, from the engine's
/// spans: 1 - Σ replication / Σ over Engine::run calls of (workers started
/// in it × its campaign.run span).  Capacity counts the serial compile
/// phase and the tail where finished workers wait for the last one.
double pool_idle_fraction(const rs::obs::TraceSession& session) {
  rs::json::Value doc;
  if (!rs::json::parse(session.to_json(), &doc)) return kNaN;
  const rs::json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return kNaN;
  struct Span {
    double begin;
    double end;
  };
  std::map<std::string, std::vector<Span>> spans;
  std::map<std::pair<double, std::string>, std::vector<double>> open;
  for (const rs::json::Value& event : events->array) {
    const auto* name = event.find("name");
    const auto* ph = event.find("ph");
    const auto* ts = event.find("ts");
    const auto* tid = event.find("tid");
    if (name == nullptr || ph == nullptr || ts == nullptr || tid == nullptr) continue;
    if (name->string != "campaign.run" && name->string != "worker" &&
        name->string != "replication") {
      continue;
    }
    auto& stack = open[{tid->number, name->string}];
    if (ph->string == "B") {
      stack.push_back(ts->number);
    } else if (ph->string == "E" && !stack.empty()) {
      spans[name->string].push_back({stack.back(), ts->number});
      stack.pop_back();
    }
  }
  double capacity = 0.0;
  for (const Span& run : spans["campaign.run"]) {
    const auto workers = std::count_if(
        spans["worker"].begin(), spans["worker"].end(),
        [&](const Span& w) { return w.begin >= run.begin && w.begin <= run.end; });
    capacity += static_cast<double>(workers) * (run.end - run.begin);
  }
  double busy = 0.0;
  for (const Span& rep : spans["replication"]) busy += rep.end - rep.begin;
  return capacity > 0.0 ? 1.0 - busy / capacity : kNaN;
}

Iteration run_campaigns(const std::vector<rs::Campaign>& groups, int threads,
                        bool traced) {
  Iteration it;
  auto session = traced ? std::make_unique<rs::obs::TraceSession>() : nullptr;
  for (const rs::Campaign& campaign : groups) {
    const auto start = Clock::now();
    rs::ProgressSink latency([&](const rs::CellResult&) {
      it.latencies.push_back(seconds_since(start));
    });
    rs::EngineOptions options;
    options.threads = threads;  // no cache and no store: every run recomputes
    options.sinks = {&latency};
    options.trace = session.get();
    try {
      for (rs::CellResult& cell : rs::Engine(options).run(campaign)) {
        if (!cell.completed) ++it.failed;
        it.cells.push_back(std::move(cell));
      }
    } catch (const std::exception& error) {
      std::cerr << "perfbench: campaign failed: " << error.what() << '\n';
      it.failed += campaign.size();
    }
    it.wall += seconds_since(start);
  }
  if (session) it.pool_idle_frac = pool_idle_fraction(*session);
  return it;
}

std::string iteration_digest(const Iteration& it) {
  std::uint64_t hash = kFnvBasis;
  for (const rs::CellResult& cell : it.cells) {
    hash = fnv1a(hash, cell.label);
    hash = fnv1a(hash, rs::result_to_json(cell.result));
  }
  return hex(hash);
}

/// Parse, resolve and compile of every cell (topology build and trace load
/// happen inside compile): the set-up a campaign pays before its first
/// replication.
struct Setup {
  std::vector<rs::Campaign> groups;
  double seconds = 0.0;
  double compile_seconds = 0.0;
};

Setup set_up_campaigns(const std::string& name,
                       const std::vector<std::vector<Cell>>& groups) {
  Setup setup;
  const auto start = Clock::now();
  for (const auto& cells : groups) {
    rs::Campaign campaign(name);
    for (const Cell& cell : cells) {
      rs::Scenario scenario = parse_scenario(cell.text);
      const rs::Scenario resolved = scenario.resolved();
      const auto compile_start = Clock::now();
      (void)compile_cell(resolved);
      setup.compile_seconds += seconds_since(compile_start);
      campaign.add(cell.name, std::move(scenario));
    }
    setup.groups.push_back(std::move(campaign));
  }
  setup.seconds = seconds_since(start);
  return setup;
}

// ---------------------------------------------------------------- serving

/// The serve_mixed query stream.  Per round, every client sends: one burst
/// query (the round's shared new cell, sent by all clients at once — the
/// inflight tier), kTouches first touches of stored keys (store tier),
/// kRepeats repeats of each (cache tier), and one new small cell of its
/// own (computed tier, persisted).  Each epoch gets a fresh QueryService,
/// so the stored keys are first touches again.
class ServeMix {
 public:
  static constexpr int kTouches = 4;
  static constexpr int kRepeats = 2;

  ServeMix(const Scale& scale, std::uint64_t seed, int clients)
      : scale_(scale), seed_(seed), clients_(clients) {}

  [[nodiscard]] int clients() const { return clients_; }
  [[nodiscard]] int rounds_per_epoch() const {
    return std::max(1, scale_.store_cells / (clients_ * kTouches));
  }

  [[nodiscard]] std::string store_text(int i) const {
    return "hypercube_greedy d=4 workload=uniform rho=" +
           rs::fmt_shortest(0.2 + 0.05 * (i % 8)) +
           " measure=40 reps=2 seed=" + std::to_string(seed_ * 1000003 + i);
  }
  [[nodiscard]] std::string computed_text(int round, int client) const {
    return "hypercube_greedy d=" + std::to_string(scale_.query_d) +
           " workload=uniform rho=0.5 measure=" + std::to_string(scale_.query_measure) +
           " reps=2 seed=" +
           std::to_string(seed_ * 1000003 + 500000 + round * clients_ + client);
  }
  [[nodiscard]] std::string burst_text(int round) const {
    return "hypercube_greedy d=" + std::to_string(scale_.query_d) +
           " workload=uniform rho=0.6 measure=" + std::to_string(scale_.query_measure) +
           " reps=2 seed=" + std::to_string(seed_ * 1000003 + 900000 + round);
  }

  struct Request {
    char kind;  ///< 'b' burst, 's' store touch, 'c' cache repeat, 'n' new cell
    std::string text;
    std::string line;
  };

  [[nodiscard]] std::vector<Request> requests(int round, int client) const {
    std::vector<Request> out;
    const auto add = [&](char kind, std::string text) {
      const int id = static_cast<int>(out.size());
      std::string line = "{\"op\":\"query\",\"scenario\":\"" + rs::json_escape(text) +
                         "\",\"id\":" + std::to_string(id) + "}";
      out.push_back({kind, std::move(text), std::move(line)});
    };
    add('b', burst_text(round));
    const int first =
        ((round % rounds_per_epoch()) * clients_ + client) * kTouches;
    for (int k = 0; k < kTouches; ++k) add('s', store_text(first + k));
    for (int r = 0; r < kRepeats; ++r) {
      for (int k = 0; k < kTouches; ++k) add('c', store_text(first + k));
    }
    add('n', computed_text(round, client));
    return out;
  }

 private:
  Scale scale_;
  std::uint64_t seed_;
  int clients_;
};

/// Computes every stored cell once and writes them as a ResultStore file.
void prefill_store(const ServeMix& mix, int cells, int threads,
                   const std::string& path) {
  rs::Campaign campaign("prefill");
  for (int i = 0; i < cells; ++i) campaign.add(parse_scenario(mix.store_text(i)));
  rs::EngineOptions options;
  options.threads = threads;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const rs::CellResult& cell : rs::Engine(options).run(campaign)) {
    out << rs::store_record_json(rs::ResultCache::key(cell.scenario),
                                 cell.scenario, cell.result)
        << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

struct QueryRecord {
  int round = 0;
  int client = 0;
  int slot = 0;
  char kind = 0;
  double latency = 0.0;  ///< seconds, send to response
  bool ok = false;
  std::string tier;
  double packets = 0.0;  ///< simulated packets delivered, computed answers only
  std::string text;      ///< kept for the first keep_rounds rounds only
  std::string response;  ///< kept for the first keep_rounds rounds only
};

struct ServeRun {
  std::vector<double> round_walls;
  std::vector<QueryRecord> queries;  ///< (round, client, slot) order
};

std::string field_string(const std::string& response, const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  const auto pos = response.find(marker);
  if (pos == std::string::npos) return {};
  const auto begin = pos + marker.size();
  return response.substr(begin, response.find('"', begin) - begin);
}

/// The "result" object of a query response, byte for byte.
std::string result_text(const std::string& response) {
  const std::string marker = "\"result\":";
  const auto pos = response.find(marker);
  if (pos == std::string::npos || response.size() < pos + marker.size() + 1) return {};
  return response.substr(pos + marker.size(),
                         response.size() - pos - marker.size() - 1);
}

/// The answer's RunResult, read back from its response line.
bool response_result(const std::string& response, rs::RunResult* out) {
  rs::json::Value value;
  return rs::json::parse(result_text(response), &value) &&
         rs::result_from_json(value, out);
}

/// Runs rounds [first, first + count) of the mix, one client thread each,
/// against one store, and appends them to `run`.  The QueryService is
/// fresh at `first` and at every epoch.  Requests and responses are kept
/// for rounds below keep_rounds; later rounds keep only their timings, so
/// the benchmark's own bookkeeping stays out of the peak RSS.
void run_serve_rounds(const ServeMix& mix, rs::ResultStore& store, int first, int count,
                      int keep_rounds, ServeRun& run) {
  const int clients = mix.clients();
  std::unique_ptr<rs::serve::QueryService> service;
  int round = first - 1;
  bool stop = false;
  auto round_start = Clock::now();

  // Runs on one thread while every client is parked at the barrier.
  auto next_round = [&]() noexcept {
    if (round >= first) run.round_walls.push_back(seconds_since(round_start));
    ++round;
    stop = round >= first + count;
    if (stop) return;
    if (round == first || round % mix.rounds_per_epoch() == 0) {
      rs::serve::ServiceOptions options;
      options.threads = 1;  // one engine worker per computation per client
      options.store = &store;
      service = std::make_unique<rs::serve::QueryService>(options);
    }
    round_start = Clock::now();
  };
  std::barrier sync(clients, next_round);

  std::vector<std::vector<QueryRecord>> per_client(static_cast<std::size_t>(clients));
  const auto client_loop = [&](int client) {
    auto& records = per_client[static_cast<std::size_t>(client)];
    for (;;) {
      sync.arrive_and_wait();
      if (stop) break;
      const auto requests = mix.requests(round, client);
      for (std::size_t slot = 0; slot < requests.size(); ++slot) {
        QueryRecord record;
        record.round = round;
        record.client = client;
        record.slot = static_cast<int>(slot);
        record.kind = requests[slot].kind;
        std::string response;
        const auto start = Clock::now();
        rs::serve::handle_request(*service, requests[slot].line,
                                  [&](const std::string& line) { response = line; });
        record.latency = seconds_since(start);
        record.ok = response.find("\"ok\":true") != std::string::npos;
        record.tier = field_string(response, "source");
        rs::RunResult result;
        if (record.tier == "computed" && response_result(response, &result)) {
          record.packets =
              delivered_packets(parse_scenario(requests[slot].text).resolved(), result);
        }
        if (round < keep_rounds) {
          record.text = requests[slot].text;
          record.response = std::move(response);
        }
        records.push_back(std::move(record));
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  }
  const auto appended = static_cast<std::ptrdiff_t>(run.queries.size());
  for (auto& records : per_client) {
    for (auto& record : records) run.queries.push_back(std::move(record));
  }
  std::sort(run.queries.begin() + appended, run.queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return std::tie(a.round, a.client, a.slot) <
                     std::tie(b.round, b.client, b.slot);
            });
}

/// Correctness of a serve run: every answer ok, every query on the tier
/// its kind implies, one computation per burst, and a sample of answers
/// byte-equal to direct engine runs.  Returns the digest of the answers in
/// the first `digest_rounds` rounds.
std::string check_serve(const ServeRun& run, int digest_rounds, int threads,
                        Report& report) {
  std::uint64_t failed = 0;
  std::uint64_t wrong_tier = 0;
  std::string first_wrong;
  std::map<int, int> burst_computed;
  for (const QueryRecord& q : run.queries) {
    if (!q.ok) ++failed;
    const bool tier_ok =
        q.kind == 's' ? q.tier == "store"
        : q.kind == 'c' ? q.tier == "cache"
        : q.kind == 'n' ? q.tier == "computed"
                        : !q.tier.empty();  // a late burst follower may hit any tier
    if (!tier_ok && wrong_tier++ == 0) {
      first_wrong = std::string(1, q.kind) + " answered from '" + q.tier + "' in round " +
                    std::to_string(q.round) + ": " + q.response.substr(0, 200);
    }
    if (q.kind == 'b' && q.tier == "computed") ++burst_computed[q.round];
  }
  report.attempted += run.queries.size();
  report.failed += failed;
  report.check("serve: every answer ok", failed == 0, std::to_string(failed) + " failed");
  report.check("serve: every query answered from its expected tier", wrong_tier == 0,
               std::to_string(wrong_tier) + " off-tier; first: " + first_wrong);
  bool one_per_burst = true;
  for (std::size_t r = 0; r < run.round_walls.size(); ++r) {
    one_per_burst = one_per_burst && burst_computed[static_cast<int>(r)] == 1;
  }
  report.check("serve: each burst computed exactly once", one_per_burst);

  std::uint64_t hash = kFnvBasis;
  std::map<char, const QueryRecord*> samples;
  for (const QueryRecord& q : run.queries) {
    if (q.round >= digest_rounds) break;
    hash = fnv1a(hash, q.text);
    hash = fnv1a(hash, result_text(q.response));
    if (q.round == 0 && q.client == 0) samples.emplace(q.kind, &q);
  }
  rs::EngineOptions direct;
  direct.threads = threads;
  for (const auto& [kind, q] : samples) {
    const std::string expected =
        rs::result_to_json(rs::Engine(direct).run_one(parse_scenario(q->text)));
    report.check(std::string("serve: '") + kind + "' answer equals a direct engine run",
                 result_text(q->response) == expected);
  }
  return hex(hash);
}


// ----------------------------------------------------------- layer probes

/// Direct CompiledScenario::replicate calls of one cell, timed per call:
/// one call per replication index 0, 1, ..., so one slow call does not set
/// the value.
struct ReplicateProbe {
  std::vector<double> seconds;  ///< per call
  std::vector<double> hops;     ///< per call, measured window
  std::vector<std::vector<double>> rows;
  std::vector<std::string> extras;
  bool has_bounds = false;  ///< the paper's delay bracket, when it applies
  double lower_bound = 0.0;
  double upper_bound = 0.0;

  [[nodiscard]] double ns_per_hop(std::size_t call) const {
    return seconds[call] * 1e9 / hops[call];
  }
  [[nodiscard]] double median_ns_per_hop() const {
    std::vector<double> ns;
    for (std::size_t i = 0; i < seconds.size(); ++i) ns.push_back(ns_per_hop(i));
    return median(ns);
  }
};

/// Probes every cell with `calls` replications each.  The calls go round
/// robin over the cells, so the same replication of neighbouring cells runs
/// back to back and a ratio of the two sees the same machine state.
std::map<std::string, ReplicateProbe> probe_replicates(const std::vector<Cell>& cells,
                                                       int calls) {
  std::vector<rs::Scenario> resolved;
  std::vector<rs::CompiledScenario> compiled;
  std::map<std::string, ReplicateProbe> probes;
  for (const Cell& cell : cells) {
    resolved.push_back(parse_scenario(cell.text).resolved());
    compiled.push_back(compile_cell(resolved.back()));
    ReplicateProbe& probe = probes[cell.name];
    probe.extras = compiled.back().extra_metrics;
    probe.has_bounds = compiled.back().has_bounds;
    probe.lower_bound = compiled.back().lower_bound;
    probe.upper_bound = compiled.back().upper_bound;
  }
  for (int rep = 0; rep < calls; ++rep) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      ReplicateProbe& probe = probes[cells[c].name];
      const auto start = Clock::now();
      probe.rows.push_back(compiled[c].replicate(
          rs::derive_stream(resolved[c].plan.base_seed, static_cast<std::uint64_t>(rep)),
          rep));
      probe.seconds.push_back(seconds_since(start));
      probe.hops.push_back(row_hops(resolved[c], probe.rows.back()));
    }
  }
  return probes;
}

/// Median over replications of a's ns/hop ÷ b's ns/hop (base b), call by call.
double paired_ratio(const ReplicateProbe& a, const ReplicateProbe& b) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < a.seconds.size(); ++i) {
    ratios.push_back(a.ns_per_hop(i) / b.ns_per_hop(i));
  }
  return median(ratios);
}

/// des: the paper_kernel cells' replications, timed per call.
void probe_des(const Scale& scale, std::uint64_t seed, Report& report) {
  auto probes = probe_replicates(paper_cells(scale, seed), scale.probe_calls);
  for (const auto& [name, probe] : probes) {
    report.metric("des.replicate_s." + name, median(probe.seconds), "s");
    report.metric("des.ns_per_hop." + name, probe.median_ns_per_hop(), "ns");
    // The paper cells' checks, on the probe's replications: the same test
    // as RunResult::within_bracket, and Little's law.
    rs::Summary delay;
    double little = 0.0;
    for (const auto& row : probe.rows) {
      delay.add(row[rs::metric::kDelay]);
      little = std::max(little, row[rs::metric::kLittle]);
    }
    const rs::ConfidenceInterval ci = rs::t_confidence_interval(delay);
    report.check("des: " + name + " delay within the paper's bracket",
                 !probe.has_bounds || (ci.upper() >= probe.lower_bound &&
                                       ci.lower() <= probe.upper_bound),
                 rs::fmt_shortest(ci.mean));
    report.check("des: " + name + " Little's law holds", little < 0.05,
                 rs::fmt_shortest(little));
  }
  const ReplicateProbe& scalar = probes["hc_slot_scalar"];
  const ReplicateProbe& soa = probes["hc_slot_soa"];
  report.check("des: soa_batch replications bit-identical to scalar",
               soa.rows == scalar.rows);
  report.metric("des.soa_speedup", paired_ratio(scalar, soa), "ratio");
}

/// topology, fault, routing, workload and stats: the variants at the probe
/// load, timed per replicate call, plus topology build and trace load.
void probe_variants(const Scale& scale, std::uint64_t seed, const Cell& trace_cell,
                    Report& report) {
  std::vector<Cell> cells = variant_cells(scale, scale.probe_rho, seed);
  cells.push_back(trace_cell);
  auto probes = probe_replicates(cells, scale.probe_calls);
  const auto ns_per_hop = [&](const std::string& name) {
    return probes[name].median_ns_per_hop();
  };

  for (const char* name : {"hypercube_generic", "ring", "torus"}) {
    report.metric(std::string("topology.ns_per_hop.") + name, ns_per_hop(name), "ns");
  }
  report.metric("topology.generic_vs_native",
                paired_ratio(probes["hypercube_generic"], probes["native"]), "ratio");
  double delivery = 0.0;
  const std::vector<std::string> faulty = {"skip_dim", "adaptive", "dynamic", "storm",
                                           "twin_detour"};
  for (const std::string& name : faulty) {
    report.metric("fault.ns_per_hop." + name, ns_per_hop(name), "ns");
    const auto& probe = probes[name];
    const auto at = std::find(probe.extras.begin(), probe.extras.end(), "delivery_ratio");
    delivery += at == probe.extras.end()
                    ? kNaN
                    : probe.rows.front()[rs::metric::kCount +
                                         static_cast<std::size_t>(at - probe.extras.begin())];
  }
  report.metric("fault.delivery_ratio", delivery / static_cast<double>(faulty.size()),
                "ratio");
  report.metric("routing.ns_per_hop.valiant", ns_per_hop("valiant"), "ns");
  report.metric("routing.ns_per_hop.deflection", ns_per_hop("deflection"), "ns");
  report.metric("workload.ns_per_hop.permutation", ns_per_hop("permutation"), "ns");
  report.metric("workload.ns_per_hop.trace", ns_per_hop("trace"), "ns");

  // make_topology for the ring and torus instances.
  std::vector<rs::TopologySpec> specs;
  for (const Cell& cell : cells) {
    if (cell.name == "ring" || cell.name == "torus") {
      specs.push_back(parse_scenario(cell.text).topology_spec());
    }
  }
  std::vector<double> builds;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    for (const rs::TopologySpec& spec : specs) (void)rs::make_topology(spec);
    builds.push_back(seconds_since(start));
  }
  report.metric("topology.build_s", median(builds), "s");

  const rs::Scenario traced = parse_scenario(trace_cell.text);
  std::vector<double> loads;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    const rs::PacketTrace trace = rs::load_trace_jsonl(traced.trace_file, traced.d);
    loads.push_back(seconds_since(start));
    report.check("workload: recorded trace loads back", trace.size() > 0);
  }
  report.metric("workload.trace_load_s", median(loads), "s");

  // t_confidence_interval per metric column of the probe rows.
  std::vector<rs::Summary> columns(rs::metric::kCount);
  for (const auto& [name, probe] : probes) {
    for (const auto& row : probe.rows) {
      for (std::size_t c = 0; c < columns.size(); ++c) columns[c].add(row[c]);
    }
  }
  constexpr int kRounds = 200;
  double checksum = 0.0;
  const auto start = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (const rs::Summary& column : columns) {
      checksum += rs::t_confidence_interval(column).half_width;
    }
  }
  const double per_call = seconds_since(start) / (kRounds * columns.size());
  report.check("stats: confidence intervals finite", std::isfinite(checksum));
  report.metric("stats.ci_us", per_call * 1e6, "us");
}

/// store, serve, util and core.resolve_key: a short serve run of the mix
/// on a fresh copy of the pre-filled store, then direct calls into the
/// store and the JSON layer on its inputs and answers.
void probe_serve(const Scale& scale, const ServeMix& mix, const std::string& prefill,
                 const std::string& dir, int threads, Report& report) {
  const std::string path = dir + "/store_probe.jsonl";
  std::vector<double> loads;
  for (int rep = 0; rep < 3; ++rep) {
    std::filesystem::copy_file(prefill, path,
                               std::filesystem::copy_options::overwrite_existing);
    const auto start = Clock::now();
    const rs::ResultStore store(path);
    loads.push_back(seconds_since(start));
  }
  report.metric("store.load_s", median(loads), "s");

  std::filesystem::copy_file(prefill, path,
                             std::filesystem::copy_options::overwrite_existing);
  rs::ResultStore store(path);
  report.check("store: pre-filled store opens", store.ok(), store.error());
  ServeRun run;
  run_serve_rounds(mix, store, 0, scale.probe_rounds, scale.probe_rounds, run);
  (void)check_serve(run, scale.probe_rounds, threads, report);

  for (const char* tier : {"cache", "store", "computed", "inflight"}) {
    std::vector<double> latencies;
    for (const QueryRecord& q : run.queries) {
      if (q.tier == tier) latencies.push_back(q.latency * 1e6);
    }
    report.metric(std::string("serve.query_us.") + tier,
                  latencies.empty() ? 0.0 : median(latencies), "us");
    report.metric(std::string("serve.tier_count.") + tier,
                  static_cast<double>(latencies.size()), "count");
  }

  // Direct calls on the probe's requests and answers.
  std::vector<std::string> lines;
  std::vector<std::string> texts;
  std::vector<rs::RunResult> results;
  for (const QueryRecord& q : run.queries) {
    lines.push_back(mix.requests(q.round, q.client)[static_cast<std::size_t>(q.slot)].line);
    texts.push_back(q.text);
    rs::RunResult result;
    if (response_result(q.response, &result)) results.push_back(result);
  }
  std::size_t parsed = 0;
  auto start = Clock::now();
  for (const std::string& line : lines) {
    rs::json::Value value;
    parsed += rs::json::parse(line, &value) ? 1 : 0;
  }
  report.metric("util.json_parse_us", seconds_since(start) * 1e6 / lines.size(), "us");
  report.check("util: every request parses", parsed == lines.size());

  std::size_t bytes = 0;
  start = Clock::now();
  for (const rs::RunResult& result : results) bytes += rs::result_to_json(result).size();
  report.metric("util.result_json_us", seconds_since(start) * 1e6 / results.size(), "us");
  report.check("util: answers serialise", bytes > 0);

  start = Clock::now();
  std::size_t key_bytes = 0;
  for (const std::string& text : texts) {
    key_bytes += rs::ResultCache::key(parse_scenario(text).resolved()).size();
  }
  report.metric("core.resolve_key_us", seconds_since(start) * 1e6 / texts.size(), "us");
  report.check("core: every request keys", key_bytes > 0);

  std::vector<std::string> keys;
  for (int i = 0; i < scale.store_cells; ++i) {
    keys.push_back(rs::ResultCache::key(parse_scenario(mix.store_text(i)).resolved()));
  }
  std::size_t hits = 0;
  rs::RunResult fetched;
  start = Clock::now();
  for (const std::string& key : keys) hits += store.fetch(key, &fetched) ? 1 : 0;
  report.metric("store.fetch_us", seconds_since(start) * 1e6 / keys.size(), "us");
  report.check("store: every pre-filled key fetches", hits == keys.size());

  constexpr int kPersists = 16;
  const rs::Scenario scenario = parse_scenario(mix.store_text(0)).resolved();
  start = Clock::now();
  for (int i = 0; i < kPersists; ++i) {
    store.persist("perfbench-probe-" + std::to_string(i), scenario, fetched);
  }
  report.metric("store.persist_us", seconds_since(start) * 1e6 / kPersists, "us");
}

// --------------------------------------------------------------- workloads

/// Times set-ups for setup_s, their median.  The machine's speed drifts
/// over seconds, so set-up is not timed only once before the run: the
/// workloads call sample() in the gaps between their timed iterations, and
/// setup_s sees the same machine as the rest of the run.
class SetupSampler {
 public:
  /// `set_up` performs one set-up and returns the seconds it took.
  explicit SetupSampler(std::function<double()> set_up) : set_up_(std::move(set_up)) {}

  /// At least kSetups set-ups, and kSeconds of timed set-up.
  void sample() {
    constexpr int kSetups = 2;
    constexpr double kSeconds = 0.02;
    double total = 0.0;
    for (int n = 0; n < kSetups || total < kSeconds; ++n) {
      times_.push_back(set_up_());
      total += times_.back();
    }
  }

  [[nodiscard]] double setup_s() const { return median(times_); }

 private:
  std::function<double()> set_up_;
  std::vector<double> times_;
};

/// The iterations of one run, untraced and (traced pass only) traced.
struct Iterations {
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
};

/// Runs iterations of the campaign groups until at least `min_untraced`
/// untraced ones have run and `seconds` have passed.  With `alternate`,
/// every second iteration is traced, in whole untraced/traced pairs.
/// `between` runs, untimed, before every iteration.
Iterations run_iterations(const std::vector<rs::Campaign>& groups, int threads,
                          bool alternate, int min_untraced, double seconds,
                          const std::function<void()>& between) {
  Iterations its;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    between();
    const bool traced = alternate && i % 2 == 1;
    (traced ? its.traced : its.untraced).push_back(run_campaigns(groups, threads, traced));
    if (alternate && !traced) continue;
    if (static_cast<int>(its.untraced.size()) >= min_untraced &&
        seconds_since(start) >= seconds) {
      return its;
    }
  }
}

/// trace_overhead_frac and core.pool_idle_frac from alternated iterations.
void report_traced(const Iterations& its, Report& report) {
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> idle;
  for (const Iteration& it : its.untraced) untraced_walls.push_back(it.wall);
  for (const Iteration& it : its.traced) {
    traced_walls.push_back(it.wall);
    idle.push_back(it.pool_idle_frac);
  }
  report.metric("trace_overhead_frac", median(traced_walls) / median(untraced_walls) - 1.0,
                "ratio");
  report.metric("core.pool_idle_frac", median(idle), "ratio");
}

/// Simulated packets delivered by a set of finished cells.
double cells_delivered(const std::vector<rs::CellResult>& cells) {
  double packets = 0.0;
  for (const rs::CellResult& cell : cells) packets += delivered_packets(cell.scenario, cell.result);
  return packets;
}

/// The work counts of a set of finished cells, which repeat exactly for a seed.
void report_counts(const std::vector<rs::CellResult>& cells, Report& report) {
  double hops = 0.0;
  double replications = 0.0;
  for (const rs::CellResult& cell : cells) {
    hops += delivered_packets(cell.scenario, cell.result) * cell.result.mean_hops;
    replications += cell.scenario.plan.replications;
  }
  report.metric("des.delivered", std::round(cells_delivered(cells)), "count");
  report.metric("des.hops", std::round(hops), "count");
  report.metric("core.cells", static_cast<double>(cells.size()), "count");
  report.metric("core.replications", replications, "count");
}

void run_probes(const Options& o, const Scale& scale, const Cell& trace_cell,
                Report& report) {
  probe_des(scale, o.seed, report);
  probe_variants(scale, o.seed, trace_cell, report);
  const ServeMix mix(scale, o.seed, o.threads);
  const std::string prefill = o.dir + "/store_prefill.jsonl";
  if (!std::filesystem::exists(prefill)) {
    prefill_store(mix, scale.store_cells, o.threads, prefill);
  }
  probe_serve(scale, mix, prefill, o.dir, o.threads, report);
}

void campaign_workload(const Options& o, const Scale& scale,
                       const std::vector<std::vector<Cell>>& groups,
                       const Cell& trace_cell, Report& report) {
  // The first set-up builds the campaigns the iterations run; later ones
  // are timed between the iterations.
  const Setup setup = set_up_campaigns(o.workload, groups);
  std::vector<double> compile_times;
  SetupSampler sampler([&] {
    const Setup again = set_up_campaigns(o.workload, groups);
    compile_times.push_back(again.compile_seconds);
    return again.seconds;
  });
  const Iterations its = run_iterations(setup.groups, o.threads, o.trace,
                                        scale.min_iterations, o.seconds,
                                        [&] { sampler.sample(); });
  const std::vector<Iteration>& untraced = its.untraced;

  // Correctness: every cell completed, results repeat across iterations.
  const Iteration& first = untraced.front();
  report.digest = iteration_digest(first);
  bool repeat = true;
  for (const auto* runs : {&its.untraced, &its.traced}) {
    for (const Iteration& it : *runs) {
      report.attempted += it.cells.size();
      report.failed += it.failed;
      repeat = repeat && iteration_digest(it) == report.digest;
    }
  }
  report.check("every cell completed", report.failed == 0);
  report.check("result digest repeats across iterations", repeat);

  std::map<std::string, const rs::CellResult*> by_label;
  for (const rs::CellResult& cell : first.cells) {
    const rs::RunResult& r = cell.result;
    by_label[cell.label] = &cell;
    const bool little_applies = !cell.scenario.faults_active() &&
                                cell.scenario.scheme != "deflection";
    if (r.has_bounds) {
      report.check(cell.label + ": delay within the paper's bracket", r.within_bracket(),
                   rs::fmt_shortest(r.delay.mean));
    }
    if (little_applies) {
      report.check(cell.label + ": Little's law holds", r.max_little_error < 0.05,
                   rs::fmt_shortest(r.max_little_error));
    }
    report.check(cell.label + ": throughput positive",
                 std::isfinite(r.throughput.mean) && r.throughput.mean > 0.0);
  }
  if (by_label.count("hc_slot_soa") != 0 && by_label.count("hc_slot_scalar") != 0) {
    report.check("soa_batch result bit-identical to scalar",
                 rs::result_to_json(by_label["hc_slot_soa"]->result) ==
                     rs::result_to_json(by_label["hc_slot_scalar"]->result));
  }

  if (!o.trace) {
    // A campaign has a few distinct cells, so latency percentiles are
    // taken per iteration and the median of each over iterations reported.
    std::vector<double> walls;
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p99s;
    const double delivered = cells_delivered(first.cells);
    double cells = 0.0;
    for (const Iteration& it : untraced) {
      walls.push_back(it.wall);
      rates.push_back(delivered / it.wall);
      p50s.push_back(median(it.latencies) * 1e6);
      p99s.push_back(percentile(it.latencies, 0.99) * 1e6);
      cells += static_cast<double>(it.latencies.size());
    }
    report.iteration_walls = walls;
    report.metric("setup_s", sampler.setup_s(), "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("sim_pkts_per_s", median(rates), "1/s");
    report.metric("queries_per_s", cells / sum(walls), "1/s");
    report.metric("query_p50_us", median(p50s), "us");
    report.metric("query_p99_us", median(p99s), "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  report_traced(its, report);
  report.metric("core.compile_s", median(compile_times), "s");
  report_counts(first.cells, report);
  run_probes(o, scale, trace_cell, report);
}

void serve_workload(const Options& o, const Scale& scale, const Cell& trace_cell,
                    Report& report) {
  const ServeMix mix(scale, o.seed, o.threads);
  const std::string prefill = o.dir + "/store_prefill.jsonl";
  prefill_store(mix, scale.store_cells, o.threads, prefill);
  const auto copy_prefill = [&](const std::string& path) {
    std::filesystem::copy_file(prefill, path,
                               std::filesystem::copy_options::overwrite_existing);
  };

  // Set-up: load a fresh copy of the pre-filled store and construct the
  // service, timed between segments of rounds on a store of its own.
  const std::string setup_path = o.dir + "/store_setup.jsonl";
  SetupSampler sampler([&] {
    copy_prefill(setup_path);
    const auto start = Clock::now();
    rs::ResultStore store(setup_path);
    rs::serve::ServiceOptions options;
    options.threads = 1;
    options.store = &store;
    const rs::serve::QueryService service(options);
    return seconds_since(start);
  });
  const std::string path = o.dir + "/store.jsonl";
  copy_prefill(path);
  rs::ResultStore store(path);
  report.check("store: pre-filled store opens", store.ok(), store.error());

  // Whole segments of rounds until `seconds` have passed; the traced pass
  // runs one segment, for the correctness checks.
  constexpr int kSegmentRounds = 32;
  ServeRun run;
  const auto loop_start = Clock::now();
  for (int first = 0; first == 0 || (!o.trace && seconds_since(loop_start) < o.seconds);
       first += kSegmentRounds) {
    sampler.sample();
    run_serve_rounds(mix, store, first, kSegmentRounds, scale.min_iterations, run);
  }
  report.digest = check_serve(run, scale.min_iterations, o.threads, report);

  if (!o.trace) {
    // Rates and percentiles are taken per segment (1792 queries with 4
    // clients, so 17 beyond the p99) and the median over segments is
    // reported, as the campaigns do per iteration: a slow stretch of the
    // run does not set the value.
    const std::size_t segments = run.round_walls.size() / kSegmentRounds;
    std::vector<std::vector<double>> latencies(segments);
    std::vector<double> packets(segments, 0.0);
    std::vector<double> busy(segments, 0.0);
    for (const QueryRecord& q : run.queries) {
      const auto s = static_cast<std::size_t>(q.round / kSegmentRounds);
      latencies[s].push_back(q.latency * 1e6);
      packets[s] += q.packets;
    }
    for (std::size_t r = 0; r < run.round_walls.size(); ++r) {
      busy[r / kSegmentRounds] += run.round_walls[r];
    }
    std::vector<double> pkt_rates;
    std::vector<double> query_rates;
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (std::size_t s = 0; s < segments; ++s) {
      pkt_rates.push_back(packets[s] / busy[s]);
      query_rates.push_back(static_cast<double>(latencies[s].size()) / busy[s]);
      p50s.push_back(percentile(latencies[s], 0.50));
      p99s.push_back(percentile(latencies[s], 0.99));
    }
    report.iteration_walls = run.round_walls;
    report.metric("setup_s", sampler.setup_s(), "s");
    report.metric("wall_s", median(run.round_walls), "s");
    report.metric("sim_pkts_per_s", median(pkt_rates), "1/s");
    report.metric("queries_per_s", median(query_rates), "1/s");
    report.metric("query_p50_us", median(p50s), "us");
    report.metric("query_p99_us", median(p99s), "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  // QueryService takes no trace session, so the traced numbers come from the
  // engine work behind the first rounds' computed answers, run as a campaign
  // untraced and traced in turn: trace overhead, compile time, pool idle
  // share and work counts.
  rs::Campaign computed("serve_computed");
  double compile_seconds = 0.0;
  for (const QueryRecord& q : run.queries) {
    if (q.round >= scale.min_iterations || (q.kind != 'n' && q.kind != 'b')) continue;
    if (q.kind == 'b' && q.client != 0) continue;
    const rs::Scenario scenario = parse_scenario(q.text);
    const auto start = Clock::now();
    (void)compile_cell(scenario.resolved());
    compile_seconds += seconds_since(start);
    computed.add(scenario);
  }
  constexpr double kOverheadSeconds = 2.0;
  const Iterations its = run_iterations({computed}, o.threads, true, scale.min_iterations,
                                        kOverheadSeconds, [] {});
  report_traced(its, report);
  report.metric("core.compile_s", compile_seconds, "s");
  report_counts(its.untraced.front().cells, report);
  run_probes(o, scale, trace_cell, report);
}

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload paper_kernel|variants_grid|serve_mixed"
               " --seed N --seconds S --trace 0|1 --threads T --dir PATH"
               " [--scale full|smoke]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (arg == "--threads") {
        o.threads = std::max(1, std::stoi(value));
      } else if (arg == "--dir") {
        o.dir = value;
      } else if (arg == "--scale") {
        if (value != "full" && value != "smoke") usage("unknown scale " + value);
        o.smoke = value == "smoke";
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  const Scale scale = make_scale(o.smoke);
  register_generic_scheme();
  Report report;
  try {
    const bool traced = o.trace;
    if (o.workload == "paper_kernel") {
      const Cell trace_cell =
          traced ? record_trace_cell(scale, o.seed, o.dir) : Cell{};
      // The soa_batch cell runs through its own Engine::run: the engine
      // coalesces cells whose cache keys match, and the key ignores backend.
      auto cells = paper_cells(scale, o.seed);
      std::vector<Cell> soa = {cells[2]};
      cells.erase(cells.begin() + 2);
      campaign_workload(o, scale, {cells, soa}, trace_cell, report);
    } else if (o.workload == "variants_grid") {
      const Cell trace_cell = record_trace_cell(scale, o.seed, o.dir);
      campaign_workload(o, scale, {grid_cells(scale, o.seed, trace_cell)}, trace_cell,
                        report);
    } else if (o.workload == "serve_mixed") {
      const Cell trace_cell =
          traced ? record_trace_cell(scale, o.seed, o.dir) : Cell{};
      serve_workload(o, scale, trace_cell, report);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
  std::cout << report.to_json(o.workload, o.seed, o.trace, o.threads) << std::endl;
  return 0;
}
