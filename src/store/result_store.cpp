#include "store/result_store.hpp"

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/line_reader.hpp"

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

/// Reads a line in the exact layout record_json writes, in place:
/// {"v":1,"key":"…","scenario":"…","result":{…}} with the result's members
/// in append_result_fields' order, numbers read by json::scan_number or
/// spelled "nan"/"inf"/"-inf", and strings with no escape, control byte or
/// non-ASCII byte.  Any other byte makes read() return false, and the line
/// goes through json::parse + read_record instead; a line read() takes
/// gives what that path gives.  The layout is frozen with its writers: a
/// change to record_json or append_result_fields changes this reader in
/// step (LoadStats::fallback_lines counts the lines that miss it).
class CanonicalRecord {
 public:
  CanonicalRecord(const char* first, const char* last) : p_(first), last_(last) {}

  /// The record's key and scenario text, retired keys dropped, and result;
  /// the outputs are written only when the whole line matched.
  bool read(std::string* key, std::string* scenario_text, RunResult* out) {
    std::string_view key_text;
    std::string_view scenario;
    RunResult result;
    if (!(literal("{\"v\":1,\"key\":") && string(&key_text) && !key_text.empty() &&
          literal(",\"scenario\":") && string(&scenario) &&
          literal(",\"result\":{\"rho\":") && number(&result.rho) &&
          literal(",\"delay_mean\":") && number(&result.delay.mean) &&
          literal(",\"delay_half_width\":") && number(&result.delay.half_width) &&
          literal(",\"population_mean\":") && number(&result.population.mean) &&
          literal(",\"population_half_width\":") &&
          number(&result.population.half_width) &&
          literal(",\"throughput_mean\":") && number(&result.throughput.mean) &&
          literal(",\"throughput_half_width\":") &&
          number(&result.throughput.half_width) &&
          literal(",\"mean_hops\":") && number(&result.mean_hops) &&
          literal(",\"max_little_error\":") && number(&result.max_little_error) &&
          literal(",\"mean_final_backlog\":") && number(&result.mean_final_backlog))) {
      return false;
    }
    if (literal(",\"has_bounds\":true")) {
      result.has_bounds = true;
    } else if (!literal(",\"has_bounds\":false")) {
      return false;
    }
    if (!(literal(",\"lower_bound\":") && number(&result.lower_bound) &&
          literal(",\"upper_bound\":") && number(&result.upper_bound) &&
          literal(",\"extras\":{"))) {
      return false;
    }
    if (!literal("}")) {
      do {
        std::string_view name;
        ConfidenceInterval interval;
        if (!(string(&name) && literal(":{\"mean\":") && number(&interval.mean) &&
              literal(",\"half_width\":") && number(&interval.half_width) &&
              literal("}"))) {
          return false;
        }
        result.extras.emplace_back(name, interval);
      } while (literal(","));
      if (!literal("}")) return false;
    }
    if (!literal("}}") || p_ != last_) return false;
    *key = without_retired_keys(std::string(key_text));
    // Most records' text is their key: copy it instead of scanning it again.
    *scenario_text =
        scenario == key_text ? *key : without_retired_keys(std::string(scenario));
    *out = std::move(result);
    return true;
  }

 private:
  template <std::size_t N>
  bool literal(const char (&text)[N]) {
    if (static_cast<std::size_t>(last_ - p_) < N - 1 ||
        std::memcmp(p_, text, N - 1) != 0) {
      return false;
    }
    p_ += N - 1;
    return true;
  }

  bool number(double* out) {
    if (p_ != last_ && *p_ == '"') {
      if (literal("\"nan\"")) {
        *out = std::nan("");
      } else if (literal("\"inf\"")) {
        *out = std::numeric_limits<double>::infinity();
      } else if (literal("\"-inf\"")) {
        *out = -std::numeric_limits<double>::infinity();
      } else {
        return false;
      }
      return true;
    }
    const json::NumberScan scan = json::scan_number(p_, last_);
    *out = scan.value;
    p_ = scan.end;
    return scan.error == nullptr;
  }

  bool string(std::string_view* out) {
    if (p_ == last_ || *p_ != '"') return false;
    const char* const first = p_ + 1;
    const auto* const quote = static_cast<const char*>(
        std::memchr(first, '"', static_cast<std::size_t>(last_ - first)));
    if (quote == nullptr) return false;
    // One pass with no early exit, which the compiler vectorises.
    const auto length = static_cast<std::size_t>(quote - first);
    unsigned char bad = 0;
    for (std::size_t i = 0; i < length; ++i) {
      const auto c = static_cast<unsigned char>(first[i]);
      bad |= static_cast<unsigned char>((c < 0x20) | (c >= 0x80) | (c == '\\'));
    }
    if (bad != 0) return false;
    *out = std::string_view(first, length);
    p_ = quote + 1;
    return true;
  }

  const char* p_;
  const char* const last_;
};

/// Whether a line holds only blanks (std::getline leaves a CRLF's '\r').
bool blank(const char* first, const char* last) {
  for (; first != last; ++first) {
    if (*first != ' ' && *first != '\t' && *first != '\r') return false;
  }
  return true;
}

}  // namespace

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

bool ResultStore::assign(std::string key, std::string scenario_text,
                         RunResult result) {
  const bool text_is_key = scenario_text == key;
  Entry entry{text_is_key ? std::string() : std::move(scenario_text),
              text_is_key, std::move(result)};
  const auto [it, inserted] = index_.insert_or_assign(std::move(key), std::move(entry));
  if (inserted) order_.push_back(&*it);
  return inserted;
}

void ResultStore::load_existing() {
  const auto file = open_for_reading(path_);
  if (!file) return;  // no file yet: an empty store
  std::string text;
  json::Value record;
  (void)for_each_line(file.get(), [&](const char* first, const char* last,
                                      bool ended_with_newline) {
    if (!ended_with_newline) tail_unterminated_ = true;
    if (blank(first, last)) return;
    std::string key;
    std::string scenario_text;
    RunResult result;
    // One loaded record; an append-only history resolves last-wins.
    const auto load = [&] {
      if (!assign(std::move(key), std::move(scenario_text), std::move(result))) {
        ++stats_.duplicate_keys;
      }
      ++stats_.records_loaded;
    };
    if (CanonicalRecord(first, last).read(&key, &scenario_text, &result)) {
      load();
      return;
    }
    ++stats_.fallback_lines;
    text.assign(first, last);
    const RecordKind kind =
        json::parse(text, &record)
            ? read_record(record, &key, &scenario_text, &result)
            : RecordKind::kNotARecord;
    switch (kind) {
      case RecordKind::kCurrent:
        load();
        break;
      case RecordKind::kOtherVersion:
        ++stats_.skipped_version;  // well-formed, must not be interpreted
        break;
      case RecordKind::kNotARecord:
        // A cut final record (kill mid-append, no newline written) is the
        // expected crash shape; anything else is interleaved garbage.
        if (ended_with_newline) {
          ++stats_.skipped_garbage;
        } else {
          stats_.truncated_tail = true;
        }
        break;
    }
  });
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
  (void)assign(key, std::move(text), result);
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
  std::vector<std::string> keys;
  keys.reserve(order_.size());
  for (const Index::value_type* record : order_) keys.push_back(record->first);
  return keys;
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
  for (const auto* record : order_) {
    const auto& [key, entry] = *record;
    content += record_json(key, entry.text_is_key ? key : entry.scenario_text,
                           entry.result) +
               '\n';
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
  const auto file = open_for_reading(path);
  if (!file) return 0;
  std::size_t consumed = 0;
  std::string line;
  json::Value record;
  (void)for_each_line(file.get(), [&](const char* first, const char* last, bool) {
    if (blank(first, last)) return;
    std::string key;
    std::string text;
    RunResult result;
    Scenario scenario;
    if (CanonicalRecord(first, last).read(&key, &text, &result)) {
      if (scenario_from_text(text, &scenario)) {
        consume(key, scenario, result);
        ++consumed;
      }
      return;
    }
    line.assign(first, last);
    if (!json::parse(line, &record) || !record.is_object()) return;

    // Store record: {"v":..,"key":..,"scenario":..,"result":{...}}.
    if (record.find("result") != nullptr) {
      if (read_record(record, &key, &text, &result) == RecordKind::kCurrent &&
          scenario_from_text(text, &scenario)) {
        consume(key, scenario, result);
        ++consumed;
      }
      return;
    }

    // Campaign sink line: the same metric fields at top level plus the
    // resolved scenario one-liner; the key is re-derived from it.
    const json::Value* scenario_text = record.find("scenario");
    if (scenario_text == nullptr || !scenario_text->is_string()) return;
    std::optional<KeyedScenario> cell;
    if (!scenario_from_text(scenario_text->string, &scenario, &cell) ||
        !result_from_json(record, &result)) {
      return;
    }
    consume(cell->key(), cell->scenario(), result);
    ++consumed;
  });
  return consumed;
}

}  // namespace routesim
