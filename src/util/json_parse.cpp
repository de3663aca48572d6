#include "util/json_parse.hpp"

#include <charconv>
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
    // Validate the JSON number grammar first (strtod accepts more: hex,
    // "inf", leading '+', ...), then convert the exact same span with
    // strtod so fmt_shortest() emissions round-trip bit-identically.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      pos_ = start;
      return fail("expected a value");
    }
    if (digits > 1 && text_[start + (text_[start] == '-' ? 1u : 0u)] == '0') {
      pos_ = start;
      return fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      std::size_t fraction = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++fraction;
      }
      if (fraction == 0) return fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      std::size_t exponent = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++exponent;
      }
      if (exponent == 0) return fail("digits required in exponent");
    }
    // from_chars rounds correctly, as glibc's strtod does, so the two agree
    // bit for bit.  Out of range (overflow to inf, underflow to 0) it leaves
    // `number` untouched; strtod then gives the ±inf / ±0 it always gave.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double number = 0.0;
    if (std::from_chars(first, last, number).ec == std::errc::result_out_of_range) {
      number = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    out->type = Value::Type::kNumber;
    out->number = number;
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
