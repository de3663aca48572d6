#pragma once
/// \file json.hpp
/// \brief The text every hand-rolled emitter shares: JSON string escaping
///        and the library's one number formatter, fmt_shortest.

#include <charconv>
#include <cstdio>
#include <string>

namespace routesim {

/// Escapes `text` for inclusion inside a JSON string literal: quotes,
/// backslashes, and *all* control characters below 0x20 (strict parsers
/// reject raw control bytes, not just unescaped newlines).
inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

/// The first of `%.1g`, `%.3g`, `%.6g`, `%.9g`, `%.12g`, `%.15g` whose text
/// parses back to exactly `value`, else `%.17g` ("inf", "nan", "-nan", ...).
/// Scenario values, store keys and records, serve responses and trace files
/// are written with it.  The text is frozen (store keys are made of it):
/// any change must keep every byte (tests/test_json_parse.cpp checks).
inline std::string fmt_shortest(double value) {
  char text[32];
  char* const last = text + sizeof text;
  // The shortest round-trip form has n significant digits and no precision
  // below n can round-trip, so the ladder starts at n.
  const char* const shortest_end =
      std::to_chars(text, last, value, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = text; c != shortest_end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  for (const int precision : {1, 3, 6, 9, 12, 15}) {
    if (precision < digits) continue;
    char* const end =
        std::to_chars(text, last, value, std::chars_format::general, precision).ptr;
    // Still parse it back: that p >= n round-trips is unproven where the
    // rounding interval is lopsided (powers of two) or coarse (subnormals).
    double parsed = 0.0;
    const auto [parsed_end, error] = std::from_chars(text, end, parsed);
    if (error == std::errc{} && parsed_end == end && parsed == value) {
      return std::string(text, end);
    }
  }
  return std::string(
      text, std::to_chars(text, last, value, std::chars_format::general, 17).ptr);
}

}  // namespace routesim
