// Strict-JSON reader tests: the grammar the store/serve record formats
// rely on — exact double round-trip of fmt_shortest() emissions (and their
// byte identity with the formatter's original snprintf ladder), number
// bits equal to strtod's on every token shape, escape and surrogate-pair
// decoding, insertion order with last-wins duplicate lookup, parses into
// a reused Value equal to fresh ones, and hard rejection of the malformed
// shapes the crash-tolerant loaders classify as garbage.

#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

json::Value parsed(const std::string& text) {
  json::Value value;
  std::string error;
  EXPECT_TRUE(json::parse(text, &value, &error)) << text << ": " << error;
  return value;
}

void expect_rejected(const std::string& text) {
  json::Value value;
  std::string error;
  EXPECT_FALSE(json::parse(text, &value, &error)) << text;
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parsed("null").is_null());
  EXPECT_TRUE(parsed("true").boolean);
  EXPECT_FALSE(parsed("false").boolean);
  EXPECT_DOUBLE_EQ(parsed("-12.5e-2").number, -0.125);
  EXPECT_EQ(parsed("\"plain\"").string, "plain");
  EXPECT_TRUE(parsed("  {}  ").is_object());
  EXPECT_TRUE(parsed("[]").array.empty());
}

TEST(JsonParse, FmtShortestEmissionsRoundTripBitExactly) {
  for (const double value :
       {1.0 / 3.0, 2.0000000000000004, 1e-308, 1.7976931348623157e308,
        -0.0, 6.851, 5e-324}) {
    const std::string text = fmt_shortest(value);
    const json::Value number = parsed(text);
    ASSERT_TRUE(number.is_number()) << text;
    // Bit equality, not EXPECT_DOUBLE_EQ: the store's resume-equals-cold
    // guarantee needs the exact same double back.
    EXPECT_EQ(number.number, value) << text;
  }
}

// ----------------------------------------------- number bits against strtod

/// Parses every token (as elements of one array, and the edge cases also
/// alone) and compares each double's bits with strtod's on the same text:
/// store and trace files hold numbers strtod has always read this way.
void expect_numbers_match_strtod(const std::vector<std::string>& tokens) {
  std::string document = "[";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    document += (i == 0 ? "" : ",") + tokens[i];
  }
  document += ']';
  json::Value array;
  std::string error;
  ASSERT_TRUE(json::parse(document, &array, &error)) << error;
  ASSERT_EQ(array.array.size(), tokens.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const json::Value& number = array.array[i];
    const double want = std::strtod(tokens[i].c_str(), nullptr);
    if (number.is_number() && std::bit_cast<std::uint64_t>(number.number) ==
                                  std::bit_cast<std::uint64_t>(want)) {
      continue;
    }
    if (++mismatches <= 5) {
      ADD_FAILURE() << tokens[i] << ": parsed " << number.number << ", strtod "
                    << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << tokens.size() << " tokens";
}

std::string random_digits(Rng& rng, std::size_t count) {
  std::string digits;
  for (std::size_t i = 0; i < count; ++i) {
    digits += static_cast<char>('0' + rng.uniform_below(10));
  }
  return digits;
}

TEST(JsonParse, NumberBitsEqualStrtodOnAMillionTokens) {
  Rng rng(0x7E57);
  std::vector<std::string> tokens;
  char buffer[32];
  for (int i = 0; i < 400'000; ++i) {
    const double value = std::bit_cast<double>(rng.next());
    if (!std::isfinite(value)) continue;  // "inf"/"nan" are not JSON
    tokens.push_back(fmt_shortest(value));
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    tokens.emplace_back(buffer);
  }
  for (int i = 0; i < 100'000; ++i) {
    // Subnormals, with every digit %.17g gives.
    const double value = std::bit_cast<double>(rng.next() & 0x800f'ffff'ffff'ffffull);
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    tokens.emplace_back(buffer);
  }
  for (int i = 0; i < 100'000; ++i) {
    // Up to 19 significant digits at any decimal exponent, including the
    // ones that overflow or underflow.
    const std::string mantissa = random_digits(rng, 1 + rng.uniform_below(19));
    const std::string sign = rng.bernoulli(0.5) ? "-" : "";
    const int exponent = static_cast<int>(rng.uniform_below(700)) - 360;
    tokens.push_back(sign + (mantissa[0] == '0' ? "0" : mantissa) + "e" +
                     std::to_string(exponent));
  }
  for (int i = 0; i < 10'000; ++i) {
    // Long digit strings: more digits than a double holds, so the last
    // ones decide the rounding.
    const std::size_t length = 20 + rng.uniform_below(780);
    std::string integer = random_digits(rng, 1 + rng.uniform_below(30));
    if (integer[0] == '0') integer = "0";
    tokens.push_back(integer + "." + random_digits(rng, length) + "E" +
                     (rng.bernoulli(0.5) ? "-" : "+") +
                     std::to_string(rng.uniform_below(320)));
  }
  for (int i = 0; i < 100'000; ++i) {
    // Plain integers of 1 to 20 digits, across the 15 digits up to which
    // the reader converts them without from_chars.
    std::string integer = random_digits(rng, 1 + rng.uniform_below(20));
    if (integer[0] == '0') integer = "0";
    tokens.push_back((rng.bernoulli(0.5) ? "-" : "") + integer);
  }
  const std::vector<std::string> edges = {
      "0", "-0", "999999999999999", "-999999999999999", "1000000000000000",
      "9999999999999999", "-0.0", "0e999999999", "-0E-999999999", "1e400", "-1e400",
      "1e-400", "-1e-400", "2.4e-324", "-2.4e-324", "2.5e-324",
      "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9e-324",
      "5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "-1.7976931348623159e308",
      "179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497791.9999999999999999999999999999999999999999999999999999999999999999999999",
      "9007199254740993", "9007199254740992.5", "123456789012345678901234567890"};
  for (const std::string& edge : edges) {
    tokens.push_back(edge);
    json::Value alone;
    ASSERT_TRUE(json::parse(edge, &alone)) << edge;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(alone.number),
              std::bit_cast<std::uint64_t>(std::strtod(edge.c_str(), nullptr)))
        << edge;
  }
  for (int e = -400; e <= 400; ++e) tokens.push_back("1e" + std::to_string(e));
  ASSERT_GE(tokens.size(), 1'000'000u);
  expect_numbers_match_strtod(tokens);
  // The out-of-range ends give what strtod gives.
  EXPECT_EQ(parsed("1e400").number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(parsed("-1e400").number, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::signbit(parsed("-1e-400").number));
  EXPECT_EQ(parsed("-1e-400").number, 0.0);
}

// ------------------------------------------------------ reuse of one Value

/// Deep equality down to the double's bits and the unused payload fields
/// (a reused Value must not leak an earlier document's string or number).
bool same_tree(const json::Value& a, const json::Value& b) {
  if (a.type != b.type || a.boolean != b.boolean ||
      std::bit_cast<std::uint64_t>(a.number) != std::bit_cast<std::uint64_t>(b.number) ||
      a.string != b.string || a.array.size() != b.array.size() ||
      a.object.size() != b.object.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.array.size(); ++i) {
    if (!same_tree(a.array[i], b.array[i])) return false;
  }
  for (std::size_t i = 0; i < a.object.size(); ++i) {
    if (a.object[i].first != b.object[i].first ||
        !same_tree(a.object[i].second, b.object[i].second)) {
      return false;
    }
  }
  return true;
}

TEST(JsonParse, ReusedValueEqualsFreshParses) {
  const std::vector<std::string> documents = {
      R"({"t":0.5,"src":3,"dst":12,"note":"long enough to leave the small buffer"})",
      R"({"t":1})",                                  // object shrinks
      R"([1,[2,3,{"a":[4,5,6,7]}],"x",true,null])",  // object becomes array
      R"([-0])",                                     // array shrinks
      R"("a string with "escapes" and é")",
      R"(3.25)",
      R"({"v":1,"key":"k","result":{"delay":{"mean":1,"half_width":2}}})",
      R"({"a":1,"a":2})",
      R"(true)",
      R"({})",
      R"([])",
      R"(null)",
  };
  json::Value reused;
  std::string reused_error;
  std::size_t checked = 0;
  for (const std::string& document : documents) {
    // Every prefix (mostly failed parses) and then the whole document, so
    // each success follows failures that left partial trees behind.
    for (std::size_t cut = 0; cut <= document.size(); ++cut) {
      const std::string text = document.substr(0, cut);
      json::Value fresh;
      std::string fresh_error;
      const bool fresh_ok = json::parse(text, &fresh, &fresh_error);
      const bool reused_ok = json::parse(text, &reused, &reused_error);
      ASSERT_EQ(reused_ok, fresh_ok) << text;
      if (!fresh_ok) {
        EXPECT_EQ(reused_error, fresh_error) << text;
        continue;
      }
      EXPECT_TRUE(same_tree(reused, fresh)) << text;
      ++checked;
    }
  }
  EXPECT_GE(checked, documents.size());
}

// ------------------------------------------------ fmt_shortest byte identity

/// fmt_shortest as it was first written, with snprintf/sscanf.  Its output
/// is frozen (scenario keys, store records), so the charconv version must
/// reproduce it byte for byte.
std::string ladder_oracle(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  double parsed = 0.0;
  for (const int precision : {1, 3, 6, 9, 12, 15}) {
    char candidate[32];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    if (std::sscanf(candidate, "%lf", &parsed) == 1 && parsed == value) {
      return candidate;
    }
  }
  return buffer;
}

/// Compares fmt_shortest with the oracle on every value; reports the
/// first few mismatches with their bit patterns and fails on any.
void expect_matches_oracle(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (const double value : values) {
    const std::string got = fmt_shortest(value);
    const std::string want = ladder_oracle(value);
    if (got == want) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(value)
                    << ": fmt_shortest \"" << got << "\", ladder \"" << want << '"';
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

/// `value` and its `radius` neighbours on each side.
void push_with_neighbours(std::vector<double>& values, double value, int radius) {
  values.push_back(value);
  double below = value;
  double above = value;
  for (int i = 0; i < radius; ++i) {
    below = std::nextafter(below, -std::numeric_limits<double>::infinity());
    above = std::nextafter(above, std::numeric_limits<double>::infinity());
    values.push_back(below);
    values.push_back(above);
  }
}

TEST(FmtShortest, MatchesLadderOnRandomBitPatterns) {
  Rng rng(0x5407);
  std::vector<double> values;
  values.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    values.push_back(std::bit_cast<double>(rng.next()));
  }
  expect_matches_oracle(values);
}

TEST(FmtShortest, MatchesLadderOnUniformAndRoundedValues) {
  Rng rng(0x5408);
  std::vector<double> values;
  for (int i = 0; i < 100'000; ++i) {
    const double u = 10.0 * rng.uniform();
    values.push_back(u);
    values.push_back(-u * 1e-3);
    // Decimal-rounded values: what a sweep or a hand-typed key produces.
    const double scale = std::pow(10.0, static_cast<double>(i % 10));
    values.push_back(std::round(u * scale) / scale);
    values.push_back(0.2 + 0.05 * (i % 97));
  }
  expect_matches_oracle(values);
}

TEST(FmtShortest, MatchesLadderOnSpecialsAndSubnormals) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0, -0.0, limits::infinity(), -limits::infinity(),
                                limits::quiet_NaN(), -limits::quiet_NaN()};
  for (const double edge : {limits::max(), limits::min(), limits::denorm_min()}) {
    push_with_neighbours(values, edge, 64);
    push_with_neighbours(values, -edge, 64);
  }
  for (std::uint64_t k = 1; k <= 4096; ++k) {
    values.push_back(static_cast<double>(k) * limits::denorm_min());
  }
  Rng rng(0x5409);
  for (int i = 0; i < 100'000; ++i) {
    // A random subnormal: zero exponent, random fraction, random sign.
    values.push_back(std::bit_cast<double>(rng.next() & 0x800f'ffff'ffff'ffffull));
  }
  expect_matches_oracle(values);
  EXPECT_EQ(fmt_shortest(limits::denorm_min()), "5e-324");
  EXPECT_EQ(fmt_shortest(-0.0), "-0");
  EXPECT_EQ(fmt_shortest(-limits::infinity()), "-inf");
}

TEST(FmtShortest, MatchesLadderOnPowersAndTheGSwitch) {
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) push_with_neighbours(values, std::ldexp(1.0, e), 2);
  for (int e = -323; e <= 308; ++e) {
    const std::string text = "1e" + std::to_string(e);
    push_with_neighbours(values, std::strtod(text.c_str(), nullptr), 2);
  }
  // %.pg switches from fixed to scientific at exponent -5/-4 and p-1/p;
  // the values just below 10^e that round up to it at precision p sit on
  // that switch.
  for (const int precision : {1, 3, 6, 9, 12, 15, 17}) {
    for (int e = -6; e <= 18; ++e) {
      const double power = std::pow(10.0, e);
      push_with_neighbours(values, power, 4);
      push_with_neighbours(values, power - 0.5 * std::pow(10.0, e - precision), 4);
    }
  }
  expect_matches_oracle(values);
}

/// fmt_shortest (fast path where it applies) against fmt_shortest_ladder
/// (its definition) on every value; fails on any byte of difference.
void expect_fast_path_matches_ladder(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (const double value : values) {
    const std::string got = fmt_shortest(value);
    const std::string want = fmt_shortest_ladder(value);
    if (got == want) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(value)
                    << ": fmt_shortest \"" << got << "\", ladder \"" << want << '"';
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(FmtShortest, FastPathMatchesTheLadder) {
  using limits = std::numeric_limits<double>;
  Rng rng(0x540A);
  std::vector<double> values;
  values.reserve(2'700'000);
  for (int i = 0; i < 1'000'000; ++i) {
    values.push_back(std::bit_cast<double>(rng.next()));
  }
  // k/1000: the short decimals scenario keys and rates are made of.
  for (int k = -1'000'000; k < 1'000'000; k += 2) {
    values.push_back(static_cast<double>(k) / 1000.0);
  }
  for (int e = -1074; e <= 1023; ++e) {
    push_with_neighbours(values, std::ldexp(1.0, e), 2);
    push_with_neighbours(values, -std::ldexp(1.0, e), 2);
  }
  for (int i = 0; i < 100'000; ++i) {
    values.push_back(std::bit_cast<double>(rng.next() & 0x800f'ffff'ffff'ffffull));
  }
  for (std::uint64_t k = 1; k <= 4096; ++k) {
    values.push_back(static_cast<double>(k) * limits::denorm_min());
  }
  // The zeros take their own path: "0" and "-0", the ladder's first rung.
  values.push_back(0.0);
  values.push_back(-0.0);
  expect_fast_path_matches_ladder(values);
  EXPECT_EQ(fmt_shortest(0.0), "0");
  EXPECT_EQ(fmt_shortest(-0.0), "-0");
}

TEST(FmtShortest, AppendShortestAppendsTheSameText) {
  std::string out = "x=";
  for (const double value : {0.0, -0.0, 0.1, 1.0 / 3.0, 5e-324, 1e21,
                             -std::numeric_limits<double>::infinity()}) {
    const std::size_t mark = out.size();
    append_shortest(out, value);
    EXPECT_EQ(out.substr(mark), fmt_shortest(value));
    out += ',';
  }
  EXPECT_EQ(out, "x=0,-0,0.1,0.33333333333333331,5e-324,1e+21,-inf,");
}

/// json_escape by its definition: one byte at a time.
std::string escape_bytewise(const std::string& text) {
  std::string out;
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

TEST(JsonEscape, AppendsRunsAndEscapesLikeTheBytewiseDefinition) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\rf\x01g\x1f"),
            "a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001f");
  std::string out = "{\"k\":\"";
  append_json_escaped(out, "x\"y");
  EXPECT_EQ(out, "{\"k\":\"x\\\"y");
  Rng rng(0xE5C);
  for (int i = 0; i < 20'000; ++i) {
    std::string text;
    for (std::uint64_t length = rng.next() % 24; length-- > 0;) {
      // Mostly printable, with quotes, backslashes, controls and high bytes.
      const std::uint64_t pick = rng.next() % 8;
      text += pick == 0   ? static_cast<char>(rng.next() % 0x20)
              : pick == 1 ? "\"\\"[rng.next() % 2]
              : pick == 2 ? static_cast<char>(0x80 + rng.next() % 0x80)
                          : static_cast<char>(0x20 + rng.next() % 0x5f);
    }
    ASSERT_EQ(json_escape(text), escape_bytewise(text));
    std::string appended = "prefix";
    append_json_escaped(appended, text);
    ASSERT_EQ(appended, "prefix" + escape_bytewise(text));
  }
}

TEST(JsonParse, StringEscapesAndSurrogatePairs) {
  EXPECT_EQ(parsed(R"("a\"b\\c\/d\n\t\r\f\b")").string, "a\"b\\c/d\n\t\r\f\b");
  EXPECT_EQ(parsed(R"("Aé")").string, "A\xc3\xa9");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parsed(R"("😀")").string, "\xf0\x9f\x98\x80");
  expect_rejected(R"("\ud83d")");   // lone high surrogate
  expect_rejected(R"("\uZZZZ")");   // non-hex digits
  expect_rejected("\"raw\ncontrol\"");
}

TEST(JsonParse, ObjectsPreserveOrderAndFindIsLastWins) {
  const json::Value value =
      parsed(R"({"a":1,"b":{"nested":[1,2,3]},"a":2})");
  ASSERT_EQ(value.object.size(), 3u);
  EXPECT_EQ(value.object[0].first, "a");
  EXPECT_EQ(value.object[1].first, "b");
  // Duplicate keys keep both entries; lookup resolves to the last, the
  // same rule the append-only store applies across records.
  EXPECT_DOUBLE_EQ(value.find("a")->number, 2.0);
  const json::Value* nested = value.find("b")->find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_EQ(nested->array.size(), 3u);
  EXPECT_DOUBLE_EQ(nested->array[2].number, 3.0);
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_EQ(nested->find("not an object"), nullptr);
}

TEST(JsonParse, RejectsTheGarbageShapesTheLoaderSkips) {
  expect_rejected("");
  expect_rejected("{\"cut\":1");          // truncated record tail
  expect_rejected("{\"v\":1}trailing");   // junk after the document
  expect_rejected("{'single':1}");
  expect_rejected("[1,2,]");
  expect_rejected("{\"a\" 1}");
  expect_rejected("nan");                 // JSON has no non-finite literals
  expect_rejected("+1");
  expect_rejected("01");
}

TEST(JsonParse, DepthIsBoundedAgainstMaliciousNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  expect_rejected(deep);
  // Reasonable nesting (well under the cap) still parses.
  std::string shallow;
  for (int i = 0; i < 32; ++i) shallow += '[';
  for (int i = 0; i < 32; ++i) shallow += ']';
  EXPECT_TRUE(parsed(shallow).is_array());
}

}  // namespace
}  // namespace routesim
