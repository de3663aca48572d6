// Strict-JSON reader tests: the grammar the store/serve record formats
// rely on — exact double round-trip of fmt_shortest() emissions (and their
// byte identity with the formatter's original snprintf ladder), escape
// and surrogate-pair decoding, insertion order with last-wins duplicate
// lookup, and hard rejection of the malformed shapes the crash-tolerant
// loaders classify as garbage.

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
