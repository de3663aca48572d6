#include "util/json_parse.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace routesim::json {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  const Value* found = nullptr;
  for (const auto& member : object) {
    if (member.first == key) found = &member.second;
  }
  return found;
}

NumberScan scan_number(const char* first, const char* last) {
  const auto is_digit = [last](const char* p) {
    return p < last && *p >= '0' && *p <= '9';
  };
  NumberScan scan;
  const char* p = first;
  if (p < last && *p == '-') ++p;
  const char* const integer = p;
  std::uint64_t integer_value = 0;  // wraps past 19 digits; read only up to 15
  while (is_digit(p)) {
    integer_value = integer_value * 10 + static_cast<unsigned>(*p++ - '0');
  }
  if (p == integer) {
    scan.end = first;
    scan.error = "expected a value";
    return scan;
  }
  if (p - integer > 1 && *integer == '0') {
    scan.end = first;
    scan.error = "leading zero in number";
    return scan;
  }
  // Up to 15 digits an integer is exact in a double, which is what any
  // correctly rounding conversion returns; only the others need one.
  if (p - integer <= 15 && (p == last || (*p != '.' && *p != 'e' && *p != 'E'))) {
    const auto value = static_cast<double>(integer_value);
    scan.value = *first == '-' ? -value : value;
    scan.end = p;
    return scan;
  }
  if (p < last && *p == '.') {
    const char* const fraction = ++p;
    while (is_digit(p)) ++p;
    if (p == fraction) {
      scan.end = p;
      scan.error = "digits required after decimal point";
      return scan;
    }
  }
  if (p < last && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p < last && (*p == '+' || *p == '-')) ++p;
    const char* const exponent = p;
    while (is_digit(p)) ++p;
    if (p == exponent) {
      scan.end = p;
      scan.error = "digits required in exponent";
      return scan;
    }
  }
  // Out of range (overflow to inf, underflow to 0) from_chars leaves the
  // value untouched; strtod then gives the ±inf / ±0 it always gave.
  if (std::from_chars(first, p, scan.value).ec == std::errc::result_out_of_range) {
    scan.value = std::strtod(std::string(first, p).c_str(), nullptr);
  }
  scan.end = p;
  return scan;
}

namespace {

/// Recursive-descent parser state over one immutable text buffer.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse_document(Value* out, std::string* error) {
    skip_whitespace();
    if (!parse_value(out)) {
      report(error);
      return false;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after the JSON value");
      report(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;  // nesting bound, not a limit
                                                // any emitter here approaches

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(const char* reason) {
    if (reason_ == nullptr) {  // keep the innermost (first) failure
      reason_ = reason;
      error_pos_ = pos_;
    }
    return false;
  }

  void report(std::string* error) const {
    if (error == nullptr) return;
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "offset %zu: ", error_pos_);
    *error = buffer;
    *error += reason_ == nullptr ? "malformed JSON" : reason_;
  }

  bool literal(const char* word, std::size_t length) {
    if (text_.compare(pos_, length, word) != 0) return false;
    pos_ += length;
    return true;
  }

  bool parse_value(Value* out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    bool ok = parse_value_inner(out);
    --depth_;
    return ok;
  }

  bool parse_value_inner(Value* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null", 4)) return fail("expected 'null'");
        out->type = Value::Type::kNull;
        return true;
      case 't':
        if (!literal("true", 4)) return fail("expected 'true'");
        out->type = Value::Type::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false", 5)) return fail("expected 'false'");
        out->type = Value::Type::kBool;
        out->boolean = false;
        return true;
      case '"':
        out->type = Value::Type::kString;
        return parse_string(&out->string);
      case '[':
        return parse_array(out);
      case '{':
        return parse_object(out);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(Value* out) {
    const char* const base = text_.data();
    const NumberScan scan = scan_number(base + pos_, base + text_.size());
    pos_ = static_cast<std::size_t>(scan.end - base);
    if (scan.error != nullptr) return fail(scan.error);
    out->type = Value::Type::kNumber;
    out->number = scan.value;
    return true;
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  /// Appends the UTF-8 encoding of `code` (already surrogate-combined).
  static void append_utf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const int digit = hex_digit(text_[pos_ + static_cast<std::size_t>(i)]);
      if (digit < 0) return fail("invalid \\u escape");
      code = code * 16 + static_cast<unsigned>(digit);
    }
    pos_ += 4;
    *out = code;
    return true;
  }

  static bool is_plain(char c) {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      // Copy the run of plain characters up to the next quote, escape or
      // control character in one append.
      std::size_t run_end = pos_;
      while (run_end < text_.size() && is_plain(text_[run_end])) ++run_end;
      out->append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      // Otherwise c is the backslash of an escape.
      if (++pos_ >= text_.size()) return fail("truncated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(&code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate pair half
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate in \\u escape");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!parse_hex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired surrogate in \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(Value* out) {
    ++pos_;  // '['
    out->type = Value::Type::kArray;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_whitespace();
      if (!parse_value(&out->array.emplace_back())) return false;
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(Value* out) {
    ++pos_;  // '{'
    out->type = Value::Type::kObject;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected string key in object");
      }
      auto& member = out->object.emplace_back();
      if (!parse_string(&member.first)) return false;
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_whitespace();
      if (!parse_value(&member.second)) return false;
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  const char* reason_ = nullptr;
  std::size_t error_pos_ = 0;
};

}  // namespace

bool parse(const std::string& text, Value* out, std::string* error) {
  // Reset in place rather than assigning Value{}: clear() keeps capacity.
  out->type = Value::Type::kNull;
  out->boolean = false;
  out->number = 0.0;
  out->string.clear();
  out->array.clear();
  out->object.clear();
  return Parser(text).parse_document(out, error);
}

}  // namespace routesim::json
