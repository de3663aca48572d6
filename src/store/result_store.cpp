#include "store/result_store.hpp"

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
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
/// dropped, and admitted into `*keyed` when given; a malformed one-liner,
/// or one that cannot resolve (d out of range), is reported as false.
bool scenario_from_text(const std::string& text, Scenario* out,
                        std::optional<KeyedScenario>* keyed = nullptr) {
  try {
    *out = Scenario::parse_text(without_retired_keys(text));
    if (keyed != nullptr) keyed->emplace(KeyedScenario::admit(*out));
  } catch (const ScenarioError&) {
    return false;
  }
  return true;
}

/// How a parsed line reads as a store record.
enum class RecordKind { kCurrent, kOtherVersion, kNotARecord };

/// A store record's key, scenario text (empty when absent) and result,
/// with retired keys dropped from both texts.
RecordKind read_record(const json::Value& record, std::string* key,
                       std::string* scenario_text, RunResult* result) {
  if (!record.is_object()) return RecordKind::kNotARecord;
  const json::Value* version = record.find("v");
  const json::Value* key_value = record.find("key");
  const json::Value* result_value = record.find("result");
  if (version == nullptr || !version->is_number() || key_value == nullptr ||
      !key_value->is_string() || key_value->string.empty() ||
      result_value == nullptr) {
    return RecordKind::kNotARecord;
  }
  // Compared as a double: casting a file's 1e400 or 3e9 to int is undefined.
  if (version->number != kResultStoreVersion) return RecordKind::kOtherVersion;
  if (!result_from_json(*result_value, result)) return RecordKind::kNotARecord;
  if (const json::Value* scenario = record.find("scenario");
      scenario != nullptr && scenario->is_string()) {
    *scenario_text = without_retired_keys(scenario->string);
  }
  *key = without_retired_keys(key_value->string);
  return RecordKind::kCurrent;
}

}  // namespace

std::string result_to_json(const RunResult& result) {
  std::string out = "{";
  append_result_fields(out, result, /*exact=*/true);
  out += '}';
  return out;
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

namespace {

/// One store record line (no trailing newline) for a scenario's text.
std::string record_json(const std::string& key, const std::string& scenario_text,
                        const RunResult& result) {
  std::string out = "{\"v\":" + std::to_string(kResultStoreVersion) +
                    ",\"key\":\"" + json_escape(key) + "\",\"scenario\":\"" +
                    json_escape(scenario_text) + "\",\"result\":{";
  append_result_fields(out, result, /*exact=*/true);
  out += "}}";
  return out;
}

}  // namespace

std::string store_record_json(const std::string& key, const Scenario& scenario,
                              const RunResult& result) {
  return record_json(key, scenario.to_string(), result);
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
  std::string key;
  Entry entry;
  switch (read_record(record, &key, &entry.scenario_text, &entry.result)) {
    case RecordKind::kNotARecord:
      return false;
    case RecordKind::kOtherVersion:
      ++stats_.skipped_version;
      return true;  // a well-formed record we must not interpret — not garbage
    case RecordKind::kCurrent:
      break;
  }
  if (index_.insert_or_assign(key, std::move(entry)).second) {
    order_.push_back(std::move(key));
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
  std::string text = scenario.to_string();
  const std::string line = record_json(key, text, result) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.find(key) == index_.end()) order_.push_back(key);
  index_.insert_or_assign(key, Entry{std::move(text), result});
  if (file_ == nullptr) return;  // unopenable store: in-memory tier only
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  // Flush-per-record durability: after this returns, the record survives
  // a kill; a kill *during* it leaves at worst a truncated tail the
  // loader drops.
  ::fsync(fileno(file_));
}

void ResultStore::put(const Scenario& scenario, const RunResult& result) {
  const KeyedScenario cell = KeyedScenario::admit(scenario);
  (void)SchemeRegistry::instance().check(cell.scenario());
  persist(cell.key(), cell.scenario(), result);
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
    content += record_json(key, entry.scenario_text, entry.result) + '\n';
  }
  if (!write_file_atomic(path_, content)) return false;
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    error_ = "cannot reopen result store '" + path_ + "' after compaction";
    return false;
  }
  stats_ = {.records_loaded = stats_.records_loaded};
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
    if (record.find("result") != nullptr) {
      std::string key;
      std::string text;
      RunResult result;
      Scenario scenario;
      if (read_record(record, &key, &text, &result) == RecordKind::kCurrent &&
          scenario_from_text(text, &scenario)) {
        consume(key, scenario, result);
        ++consumed;
      }
      continue;
    }

    // Campaign sink line: the same metric fields at top level plus the
    // resolved scenario one-liner; the key is re-derived from it.
    const json::Value* scenario_text = record.find("scenario");
    if (scenario_text == nullptr || !scenario_text->is_string()) continue;
    Scenario scenario;
    std::optional<KeyedScenario> cell;
    RunResult result;
    if (!scenario_from_text(scenario_text->string, &scenario, &cell) ||
        !result_from_json(record, &result)) {
      continue;
    }
    consume(cell->key(), cell->scenario(), result);
    ++consumed;
  }
  return consumed;
}

}  // namespace routesim
