#pragma once
/// \file json_parse.hpp
/// \brief Minimal strict JSON reader for the line-delimited record formats
///        this library emits itself (the persistent result store, campaign
///        JSONL sinks, and the `routesim_serve` request protocol).
///
/// The library writes JSON with hand-rolled emitters (util/json.hpp does
/// the escaping); this is the matching reader.  It is a small
/// recursive-descent parser over the full JSON grammar — objects preserve
/// key order (the store round-trips extras vectors in order), and any
/// syntax error is reported with a character offset instead of throwing.
/// Numbers are read by scan_number(), so every fmt_shortest() emission
/// round-trips to the identical double.  It is *not* a general-purpose
/// JSON API: no DOM mutation, no serialisation (the emitters own that
/// side).

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace routesim::json {

/// One parsed JSON value.  A tagged struct rather than a std::variant so
/// lookups stay cheap and the recursion in the parser stays simple.
struct Value {
  enum class Type : unsigned char { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered members; duplicate keys keep both entries and
  /// find() returns the *last* (matching the store's last-wins rule).
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_null() const noexcept { return type == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type == Type::kObject; }

  /// Member lookup (objects only); nullptr when absent or not an object.
  /// Duplicate keys resolve to the last occurrence.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

/// One number read by scan_number().  On success `error` is null, `end`
/// points one past the number's last character and `value` holds it; on
/// failure `error` names the broken grammar rule and `end` points where
/// the parser reports it.
struct NumberScan {
  double value = 0.0;
  const char* end = nullptr;
  const char* error = nullptr;
};

/// Reads the JSON number that starts at `first` (it ends at the first
/// character the grammar cannot extend it with, or at `last`).  The span
/// is checked against the JSON grammar (strtod accepts more: hex, "inf",
/// a leading '+', ...) and then converted with std::from_chars, which
/// rounds correctly and so gives the double strtod gives, bit for bit.
/// Only out of range (overflow to ±inf, underflow to ±0) does the span go
/// through strtod, for the ±inf / ±0 it returns.  parse() reads every
/// number through this; the trace loader's fast path calls it directly.
[[nodiscard]] NumberScan scan_number(const char* first, const char* last);

/// Parses one complete JSON document from `text` (leading/trailing
/// whitespace allowed, nothing else may follow).  Returns false and fills
/// `*error` (when given) with "offset N: reason" on malformed input; `*out`
/// then holds a partial tree.  `*out` is reset in place and keeps the
/// capacity of its own string and vectors (not of nested values), so a
/// loader that parses every flat record (a trace line) into one Value
/// stops allocating once warm.
[[nodiscard]] bool parse(const std::string& text, Value* out,
                         std::string* error = nullptr);

}  // namespace routesim::json
