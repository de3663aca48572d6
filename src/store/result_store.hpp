#pragma once
/// \file result_store.hpp
/// \brief The persistent result tier: a disk-backed, append-only store of
///        finished `RunResult`s keyed by `ResultCache::key` (the canonical
///        resolved-scenario string), surviving restarts and mid-write kills.
///
/// The Campaign engine's `ResultCache` dies with the process, so every
/// long sweep started cold and a killed campaign lost all finished cells.
/// `ResultStore` is the durable tier behind it: one JSONL file of
/// self-contained records
///
///   {"v":1,"key":"<canonical scenario>","scenario":"<resolved form>",
///    "result":{...exact round-trip RunResult...}}
///
/// appended (and fsync'd) per finished cell, with an in-memory index
/// rebuilt on open.  The loader is crash-tolerant by construction:
///   - a truncated final record (kill between write and newline) is
///     dropped, everything before it stays valid;
///   - an interleaved garbage line is skipped and counted;
///   - duplicate keys resolve last-wins (an append-only file never
///     rewrites history — compact() folds it);
///   - records whose "v" field mismatches kStoreVersion are skipped, so a
///     future format change cannot be misread as data;
///   - a key retired from the textual form (`threads`) is dropped from a
///     record's key and scenario text on load, so records written while it
///     existed are still served and resumed (and compact() rewrites them
///     in the current form).
/// A line in the exact layout the store writes is read in place; any other
/// line goes through json::parse, under the same rules (docs/SERVE.md).
///
/// Numbers round-trip *bit-identically*: finite doubles are written in
/// fmt_shortest() form (the first of %.1g/%.3g/%.6g/%.9g/%.12g/%.15g that
/// strtod's back to the same bits, else %.17g) and non-finite values as
/// the strings "nan"/"inf"/"-inf" (JSON has no literals for them; the
/// campaign sink's lossy `null` is accepted on read as NaN).  That
/// exactness is what lets a resumed campaign reproduce a cold run's results
/// to the last bit (tests/test_campaign.cpp pins it).
///
/// `ResultStore` implements the engine's `ResultBackend` seam, so wiring
/// one into `EngineOptions::store` gives any campaign checkpoint/resume
/// for free; `routesim_bench --store PATH` and the `routesim_serve`
/// daemon are the two CLI front ends.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "util/json_parse.hpp"

namespace routesim {

/// Current on-disk record version ("v" field); bump on schema change.
inline constexpr int kResultStoreVersion = 1;

/// Reconstructs a RunResult from result_to_json() (core/campaign.hpp)
/// output *or* from a campaign JSONL sink line (same field names at top
/// level; its `null` non-finites read back as NaN).  Returns false when
/// the core metric fields are absent or malformed.
[[nodiscard]] bool result_from_json(const json::Value& value, RunResult* out);

/// One full store record as a single JSON line (no trailing newline).
[[nodiscard]] std::string store_record_json(const std::string& key,
                                            const Scenario& scenario,
                                            const RunResult& result);

/// The disk-backed result store.  Thread-safe; all state guarded by one
/// mutex (the store is consulted once per cell, never per packet).
class ResultStore final : public ResultBackend {
 public:
  struct LoadStats {
    std::size_t records_loaded = 0;    ///< valid records applied (incl. overwrites)
    std::size_t duplicate_keys = 0;    ///< overwrites resolved last-wins
    std::size_t skipped_garbage = 0;   ///< unparseable / non-record lines
    std::size_t skipped_version = 0;   ///< "v" mismatch records
    /// Non-blank lines not in the layout the store writes, so read through
    /// json::parse (garbage, version-skipped and cut lines among them).
    std::size_t fallback_lines = 0;
    bool truncated_tail = false;       ///< final record cut mid-write, dropped
  };

  /// Opens (creating if absent) the store at `path`: loads every valid
  /// record into the index, then holds the file open in append mode.
  /// Check ok() — an unopenable path leaves a store that fetches nothing
  /// and persists nowhere, with error() explaining why.
  explicit ResultStore(std::string path);
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  ~ResultStore() override;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] LoadStats load_stats() const;

  // --- ResultBackend -----------------------------------------------------
  [[nodiscard]] bool fetch(const std::string& key, RunResult* out) override;
  void persist(const std::string& key, const Scenario& scenario,
               const RunResult& result) override;

  /// persist() of the scenario as KeyedScenario::admit() resolves and keys
  /// it, once it passed its scheme's SchemeRegistry::check: a
  /// scenario the row rejects throws that ScenarioError and writes
  /// nothing.  persist() itself appends whatever it is given.
  void put(const Scenario& scenario, const RunResult& result);

  /// Key-presence probe without copying the result (no hit/miss counting).
  [[nodiscard]] bool contains(const std::string& key) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<std::string> keys() const;  ///< first-seen order
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

  /// Rewrites the file with exactly one record per key (current values,
  /// first-seen key order) via temp-file + rename, then reopens the append
  /// handle.  A kill during compaction leaves either the old or the new
  /// file, never a prefix.  Returns false (store unchanged) on I/O error.
  bool compact();

 private:
  /// A record's scenario text is kept only when it differs from its key
  /// (it equals the key unless a result-neutral knob is off its default
  /// or a trace file is hashed in); a flag, not an empty text, says so,
  /// since a record may store an empty text.
  struct Entry {
    std::string scenario_text;  ///< empty when text_is_key
    bool text_is_key = false;
    RunResult result;
  };
  using Index = std::unordered_map<std::string, Entry>;

  void load_existing();  ///< constructor helper; fills index_ + stats_
  /// Sets `key`'s entry (last wins), appending a new key to order_;
  /// returns whether the key was new.
  bool assign(std::string key, std::string scenario_text, RunResult result);

  mutable std::mutex mutex_;
  std::string path_;
  std::string error_;
  /// Loader saw a final line with no '\n' (parseable or not): the ctor
  /// terminates it so appends never merge into the existing tail.
  bool tail_unterminated_ = false;
  std::FILE* file_ = nullptr;
  Index index_;
  /// index_'s records in first-seen key order.  Node-based, so a record
  /// stays where it is across a rehash: each key is held once.
  std::vector<const Index::value_type*> order_;
  LoadStats stats_{};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Replays previously written results from `path` — either a store file
/// or a campaign `--jsonl` sink stream (both are recognised per line) —
/// invoking `consume(key, scenario, result)` for each valid record, in
/// file order (so last-wins falls out of insertion order).  Unparseable
/// lines are skipped, like the store loader.  Returns the number of
/// records consumed.  This is the `--resume PATH` engine: replayed
/// records pre-populate an in-process cache so finished cells never
/// reschedule.
std::size_t replay_results(
    const std::string& path,
    const std::function<void(const std::string& key, const Scenario& scenario,
                             const RunResult& result)>& consume);

}  // namespace routesim
