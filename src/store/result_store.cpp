#include "store/result_store.hpp"

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace routesim {

namespace {

/// Exact-round-trip number emission: fmt_shortest for finite values (each
/// of its outputs parses back to the identical double), string literals
/// for the values JSON cannot spell.
void exact_number(std::ostringstream& os, double value) {
  if (std::isnan(value)) {
    os << "\"nan\"";
  } else if (std::isinf(value)) {
    os << (value > 0 ? "\"inf\"" : "\"-inf\"");
  } else {
    os << fmt_shortest(value);
  }
}

void exact_interval(std::ostringstream& os, const char* name,
                    const ConfidenceInterval& interval) {
  os << '"' << name << "_mean\":";
  exact_number(os, interval.mean);
  os << ",\"" << name << "_half_width\":";
  exact_number(os, interval.half_width);
}

/// Reads one double back: a JSON number, one of the non-finite string
/// spellings, or null (the campaign sink's lossy non-finite form).
bool read_double(const json::Value* value, double* out) {
  if (value == nullptr) return false;
  if (value->is_number()) {
    *out = value->number;
    return true;
  }
  if (value->is_null()) {
    *out = std::nan("");
    return true;
  }
  if (value->is_string()) {
    if (value->string == "nan") {
      *out = std::nan("");
      return true;
    }
    if (value->string == "inf") {
      *out = std::numeric_limits<double>::infinity();
      return true;
    }
    if (value->string == "-inf") {
      *out = -std::numeric_limits<double>::infinity();
      return true;
    }
  }
  return false;
}

bool read_interval(const json::Value& object, const std::string& name,
                   ConfidenceInterval* out) {
  return read_double(object.find(name + "_mean"), &out->mean) &&
         read_double(object.find(name + "_half_width"), &out->half_width);
}

/// Scenario keys that have left the textual form.  Records written while
/// a key existed carry ` key=value` in their key and scenario text; with
/// the token dropped, such a record reads as the current form writes it
/// (every retired key was result-neutral, so its value never mattered).
constexpr std::array<std::string_view, 1> kRetiredKeys{"threads"};

/// `text` without its retired ` key=value` tokens.  Values never contain
/// a space, so every " key=" starts a token.  memmem, not string::find:
/// find stops at every space of a ~450-byte key, and every store record
/// on load pays for the search.
std::string without_retired_keys(std::string text) {
  for (const std::string_view key : kRetiredKeys) {
    std::string token(1, ' ');
    token.append(key).push_back('=');
    while (const void* hit = ::memmem(text.data(), text.size(), token.data(),
                                      token.size())) {
      const auto at = static_cast<std::size_t>(static_cast<const char*>(hit) -
                                               text.data());
      const auto end = text.find(' ', at + 1);
      text.erase(at, end == std::string::npos ? std::string::npos : end - at);
    }
  }
  return text;
}

/// Scenario::parse_text of a record's scenario text, retired keys
/// dropped, with a malformed one-liner reported as false.
bool scenario_from_text(const std::string& text, Scenario* out) {
  try {
    *out = Scenario::parse_text(without_retired_keys(text));
  } catch (const ScenarioError&) {
    return false;
  }
  return true;
}

}  // namespace

std::string result_to_json(const RunResult& result) {
  std::ostringstream os;
  os << "{\"rho\":";
  exact_number(os, result.rho);
  os << ',';
  exact_interval(os, "delay", result.delay);
  os << ',';
  exact_interval(os, "population", result.population);
  os << ',';
  exact_interval(os, "throughput", result.throughput);
  os << ",\"mean_hops\":";
  exact_number(os, result.mean_hops);
  os << ",\"max_little_error\":";
  exact_number(os, result.max_little_error);
  os << ",\"mean_final_backlog\":";
  exact_number(os, result.mean_final_backlog);
  os << ",\"has_bounds\":" << (result.has_bounds ? "true" : "false")
     << ",\"lower_bound\":";
  exact_number(os, result.lower_bound);
  os << ",\"upper_bound\":";
  exact_number(os, result.upper_bound);
  os << ",\"extras\":{";
  for (std::size_t i = 0; i < result.extras.size(); ++i) {
    os << (i == 0 ? "" : ",") << '"' << json_escape(result.extras[i].first)
       << "\":{\"mean\":";
    exact_number(os, result.extras[i].second.mean);
    os << ",\"half_width\":";
    exact_number(os, result.extras[i].second.half_width);
    os << '}';
  }
  os << "}}";
  return os.str();
}

bool result_from_json(const json::Value& value, RunResult* out) {
  if (!value.is_object()) return false;
  RunResult result;
  if (!read_interval(value, "delay", &result.delay) ||
      !read_interval(value, "population", &result.population) ||
      !read_interval(value, "throughput", &result.throughput)) {
    return false;
  }
  if (!read_double(value.find("rho"), &result.rho) ||
      !read_double(value.find("mean_hops"), &result.mean_hops) ||
      !read_double(value.find("max_little_error"), &result.max_little_error) ||
      !read_double(value.find("mean_final_backlog"),
                   &result.mean_final_backlog)) {
    return false;
  }
  if (const json::Value* bounds = value.find("has_bounds");
      bounds != nullptr && bounds->is_bool()) {
    result.has_bounds = bounds->boolean;
  }
  if (result.has_bounds) {
    if (!read_double(value.find("lower_bound"), &result.lower_bound) ||
        !read_double(value.find("upper_bound"), &result.upper_bound)) {
      return false;
    }
  } else {
    // Store records always carry the fields; sink lines omit them when
    // has_bounds is false.  Absent reads back as the default 0.
    read_double(value.find("lower_bound"), &result.lower_bound);
    read_double(value.find("upper_bound"), &result.upper_bound);
  }
  if (const json::Value* extras = value.find("extras"); extras != nullptr) {
    if (!extras->is_object()) return false;
    for (const auto& [name, entry] : extras->object) {
      ConfidenceInterval interval;
      if (!read_double(entry.find("mean"), &interval.mean) ||
          !read_double(entry.find("half_width"), &interval.half_width)) {
        return false;
      }
      result.extras.emplace_back(name, interval);
    }
  }
  *out = std::move(result);
  return true;
}

std::string store_record_json(const std::string& key, const Scenario& scenario,
                              const RunResult& result) {
  std::ostringstream os;
  os << "{\"v\":" << kResultStoreVersion << ",\"key\":\"" << json_escape(key)
     << "\",\"scenario\":\"" << json_escape(scenario.to_string())
     << "\",\"result\":" << result_to_json(result) << '}';
  return os.str();
}

// ------------------------------------------------------------------- store

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {
  load_existing();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    error_ = "cannot open result store '" + path_ + "' for append";
    return;
  }
  if (tail_unterminated_) {
    // The file ends mid-line (a kill between write and newline).  Start
    // appends on a fresh line — otherwise the next record would merge
    // into the damaged fragment and take it down with itself on reload.
    std::fputc('\n', file_);
    std::fflush(file_);
    ::fsync(fileno(file_));
  }
}

ResultStore::~ResultStore() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ResultStore::apply_record(const json::Value& record) {
  if (!record.is_object()) return false;
  const json::Value* version = record.find("v");
  const json::Value* key = record.find("key");
  const json::Value* result_value = record.find("result");
  if (version == nullptr || !version->is_number() || key == nullptr ||
      !key->is_string() || key->string.empty() || result_value == nullptr) {
    return false;
  }
  // Compared as a double: casting a file's 1e400 or 3e9 to int is undefined.
  if (version->number != kResultStoreVersion) {
    ++stats_.skipped_version;
    return true;  // a well-formed record we must not interpret — not garbage
  }
  Entry entry;
  if (!result_from_json(*result_value, &entry.result)) return false;
  if (const json::Value* scenario = record.find("scenario");
      scenario != nullptr && scenario->is_string()) {
    entry.scenario_text = without_retired_keys(scenario->string);
  }
  std::string current_key = without_retired_keys(key->string);
  if (index_.insert_or_assign(current_key, std::move(entry)).second) {
    order_.push_back(std::move(current_key));
  } else {
    ++stats_.duplicate_keys;  // append-only history: last record wins
  }
  ++stats_.records_loaded;
  return true;
}

void ResultStore::load_existing() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // no file yet: an empty store
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  std::string line;
  json::Value record;
  std::size_t begin = 0;
  while (begin < content.size()) {
    std::size_t end = content.find('\n', begin);
    const bool has_newline = end != std::string::npos;
    if (!has_newline) end = content.size();
    line.assign(content, begin, end - begin);
    begin = end + (has_newline ? 1 : 0);
    if (!has_newline) tail_unterminated_ = true;

    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const bool parsed = json::parse(line, &record) && apply_record(record);
    if (!parsed) {
      // A cut final record (kill mid-append, no newline written) is the
      // expected crash shape; anything else is interleaved garbage.
      if (!has_newline) {
        stats_.truncated_tail = true;
      } else {
        ++stats_.skipped_garbage;
      }
    }
  }
}

ResultStore::LoadStats ResultStore::load_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

/// Process-wide store telemetry (obs/metrics.hpp), resolved once.
struct StoreMetrics {
  obs::Counter& fetch_hits;
  obs::Counter& fetch_misses;
  obs::Counter& persists;

  static StoreMetrics& get() {
    auto& registry = obs::global_metrics();
    static StoreMetrics metrics{
        registry.counter("routesim_store_fetch_hits_total"),
        registry.counter("routesim_store_fetch_misses_total"),
        registry.counter("routesim_store_persist_total")};
    return metrics;
  }
};

}  // namespace

bool ResultStore::fetch(const std::string& key, RunResult* out) {
  RS_EXPECTS(out != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    StoreMetrics::get().fetch_misses.add();
    return false;
  }
  ++hits_;
  StoreMetrics::get().fetch_hits.add();
  *out = it->second.result;
  return true;
}

void ResultStore::persist(const std::string& key, const Scenario& scenario,
                          const RunResult& result) {
  StoreMetrics::get().persists.add();
  const std::string line = store_record_json(key, scenario, result) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.find(key) == index_.end()) order_.push_back(key);
  index_.insert_or_assign(key, Entry{scenario.to_string(), result});
  if (file_ == nullptr) return;  // unopenable store: in-memory tier only
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  // Flush-per-record durability: after this returns, the record survives
  // a kill; a kill *during* it leaves at worst a truncated tail the
  // loader drops.
  ::fsync(fileno(file_));
}

void ResultStore::put(const Scenario& scenario, const RunResult& result) {
  const Scenario resolved = scenario.resolved();
  (void)SchemeRegistry::instance().check(resolved);
  persist(ResultCache::key(resolved), resolved, result);
}

bool ResultStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(key) != index_.end();
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

std::vector<std::string> ResultStore::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_;
}

std::uint64_t ResultStore::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultStore::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

bool ResultStore::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string content;
  for (const std::string& key : order_) {
    const Entry& entry = index_.at(key);
    std::ostringstream os;
    os << "{\"v\":" << kResultStoreVersion << ",\"key\":\"" << json_escape(key)
       << "\",\"scenario\":\"" << json_escape(entry.scenario_text)
       << "\",\"result\":" << result_to_json(entry.result) << "}\n";
    content += os.str();
  }
  if (!write_file_atomic(path_, content)) return false;
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    error_ = "cannot reopen result store '" + path_ + "' after compaction";
    return false;
  }
  stats_.duplicate_keys = 0;
  stats_.skipped_garbage = 0;
  stats_.skipped_version = 0;
  stats_.truncated_tail = false;
  return true;
}

// ------------------------------------------------------------------ replay

std::size_t replay_results(
    const std::string& path,
    const std::function<void(const std::string& key, const Scenario& scenario,
                             const RunResult& result)>& consume) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::size_t consumed = 0;
  json::Value record;
  for (std::string line; std::getline(in, line);) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!json::parse(line, &record) || !record.is_object()) continue;

    // Store record: {"v":..,"key":..,"scenario":..,"result":{...}}.
    if (const json::Value* result_value = record.find("result");
        result_value != nullptr) {
      const json::Value* version = record.find("v");
      const json::Value* key = record.find("key");
      const json::Value* scenario_text = record.find("scenario");
      if (version == nullptr || !version->is_number() ||
          version->number != kResultStoreVersion ||
          key == nullptr || !key->is_string() || scenario_text == nullptr ||
          !scenario_text->is_string()) {
        continue;
      }
      RunResult result;
      Scenario scenario;
      if (!result_from_json(*result_value, &result) ||
          !scenario_from_text(scenario_text->string, &scenario)) {
        continue;
      }
      consume(without_retired_keys(key->string), scenario, result);
      ++consumed;
      continue;
    }

    // Campaign sink line: the same metric fields at top level plus the
    // resolved scenario one-liner; the key is re-derived from it.
    const json::Value* scenario_text = record.find("scenario");
    if (scenario_text == nullptr || !scenario_text->is_string()) continue;
    Scenario scenario;
    RunResult result;
    if (!scenario_from_text(scenario_text->string, &scenario) ||
        !result_from_json(record, &result)) {
      continue;
    }
    const Scenario resolved = scenario.resolved();
    consume(ResultCache::key(resolved), resolved, result);
    ++consumed;
  }
  return consumed;
}

}  // namespace routesim
