#pragma once
/// \file json.hpp
/// \brief The text every hand-rolled emitter shares: JSON string escaping
///        and the library's one number formatter, fmt_shortest.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace routesim {

/// Appends `text` escaped for inclusion inside a JSON string literal:
/// quotes, backslashes, and *all* control characters below 0x20 (strict
/// parsers reject raw control bytes, not just unescaped newlines).  Runs of
/// bytes that need no escape are appended whole.
inline void append_json_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    }
  }
  out.append(text.data() + run, text.size() - run);
}

/// append_json_escaped into a new string.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

namespace detail {

/// The significant digits of to_chars' shortest scientific text
/// [first, last) ("inf" and "nan" have none).
inline int significant_digits(const char* first, const char* last) {
  int digits = 0;
  for (const char* c = first; c != last && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  return digits;
}

/// Appends the `%.Pg` ladder's text from the first rung >= `digits`, the
/// digit count of value's shortest round-trip form: no rung below it can
/// round-trip.
inline void append_ladder(std::string& out, double value, int digits) {
  char text[32];
  char* const last = text + sizeof text;
  for (const int precision : {1, 3, 6, 9, 12, 15}) {
    if (precision < digits) continue;
    char* const end =
        std::to_chars(text, last, value, std::chars_format::general, precision).ptr;
    // Still parse it back: that p >= n round-trips is unproven where the
    // rounding interval is lopsided (powers of two) or coarse (subnormals).
    double parsed = 0.0;
    const auto [parsed_end, error] = std::from_chars(text, end, parsed);
    if (error == std::errc{} && parsed_end == end && parsed == value) {
      out.append(text, end);
      return;
    }
  }
  out.append(text,
             std::to_chars(text, last, value, std::chars_format::general, 17).ptr);
}

}  // namespace detail

/// fmt_shortest by its definition: the first rung of the `%.Pg` ladder
/// whose text parses back to exactly `value`, else `%.17g`.  fmt_shortest
/// takes it where its fast paths do not apply; tests/test_json_parse.cpp
/// checks the two against each other.
inline std::string fmt_shortest_ladder(double value) {
  char text[32];
  const char* const end =
      std::to_chars(text, text + sizeof text, value, std::chars_format::scientific)
          .ptr;
  std::string out;
  detail::append_ladder(out, value, detail::significant_digits(text, end));
  return out;
}

/// Appends fmt_shortest(value) to `out`, with no temporary string.
///
/// Zeros are "0" and "-0", the ladder's first rung.  A normal double whose
/// shortest round-trip form has n <= 15 digits is those digits laid out as
/// `%.Pg` lays them out, P the first rung >= n.  That is the ladder's
/// answer: a rung below n cannot round-trip (n is shortest), and at P <= 15
/// half an ulp is below half a unit in the P-th digit, so `%.Pg` rounds
/// `value` to the shortest digits (padded with zeros, which %g strips), and
/// those parse back to `value`.  Subnormals, non-finite values and n >= 16
/// take the ladder.
inline void append_shortest(std::string& out, double value) {
  if (value == 0.0) {
    out += std::signbit(value) ? "-0" : "0";
    return;
  }
  char text[32];
  char* const end =
      std::to_chars(text, text + sizeof text, value, std::chars_format::scientific)
          .ptr;
  if (!std::isnormal(value)) {
    detail::append_ladder(out, value, detail::significant_digits(text, end));
    return;
  }
  // text is [-]d[.ddd]e(+|-)xx[x]: split it into sign, digits and exponent.
  const bool negative = text[0] == '-';
  const char* const lead = text + (negative ? 1 : 0);
  const char* const e = static_cast<const char*>(
      std::memchr(lead, 'e', static_cast<std::size_t>(end - lead)));
  const int digits = e - lead > 1 ? static_cast<int>(e - lead) - 1 : 1;
  if (digits > 15) {
    detail::append_ladder(out, value, digits);
    return;
  }
  int exponent = 0;
  std::from_chars(e + (e[1] == '+' ? 2 : 1), end, exponent);
  const int precision = digits <= 1    ? 1
                        : digits <= 3  ? 3
                        : digits <= 6  ? 6
                        : digits <= 9  ? 9
                        : digits <= 12 ? 12
                                       : 15;
  // %g's rule: scientific below 1e-4 and from 1e(precision) up.
  if (exponent < -4 || exponent >= precision) {
    out.append(text, end);
    return;
  }
  // Fixed: the digits (the lead one, then those after the point) with the
  // point moved `exponent` places, padded with zeros on whichever side.
  char significand[16];
  significand[0] = lead[0];
  if (digits > 1) {
    std::memcpy(significand + 1, lead + 2, static_cast<std::size_t>(digits - 1));
  }
  if (negative) out += '-';
  if (exponent < 0) {
    out += "0.";
    out.append(static_cast<std::size_t>(-exponent - 1), '0');
    out.append(significand, static_cast<std::size_t>(digits));
  } else if (digits <= exponent + 1) {
    out.append(significand, static_cast<std::size_t>(digits));
    out.append(static_cast<std::size_t>(exponent + 1 - digits), '0');
  } else {
    out.append(significand, static_cast<std::size_t>(exponent + 1));
    out += '.';
    out.append(significand + exponent + 1,
               static_cast<std::size_t>(digits - exponent - 1));
  }
}

/// The first of `%.1g`, `%.3g`, `%.6g`, `%.9g`, `%.12g`, `%.15g` whose text
/// parses back to exactly `value`, else `%.17g` ("inf", "nan", "-nan", ...).
/// Scenario values, store keys and records, serve responses and trace files
/// are written with it.  The text is frozen (store keys are made of it):
/// any change must keep every byte (tests/test_json_parse.cpp checks
/// append_shortest against fmt_shortest_ladder).
inline std::string fmt_shortest(double value) {
  std::string out;
  append_shortest(out, value);
  return out;
}

}  // namespace routesim
