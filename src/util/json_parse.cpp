#include "util/json_parse.hpp"

#include <cstdio>

#include "util/number_codec.hpp"

namespace routesim::json {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  const Value* found = nullptr;
  for (const auto& member : object) {
    if (member.first == key) found = &member.second;
  }
  return found;
}

const char* scan_number(std::string_view text, std::size_t* pos) {
  // strtod and from_chars accept more than JSON does (hex, "inf", a
  // leading '+', ...), so the span is checked here before any conversion.
  std::size_t at = *pos;
  const auto digit_run = [&] {
    const std::size_t first = at;
    while (at < text.size() && text[at] >= '0' && text[at] <= '9') ++at;
    return at - first;
  };
  if (at < text.size() && text[at] == '-') ++at;
  const std::size_t integer_start = at;
  const std::size_t digits = digit_run();
  if (digits == 0) return "expected a value";
  if (digits > 1 && text[integer_start] == '0') return "leading zero in number";
  if (at < text.size() && text[at] == '.') {
    ++at;
    if (digit_run() == 0) {
      *pos = at;
      return "digits required after decimal point";
    }
  }
  if (at < text.size() && (text[at] == 'e' || text[at] == 'E')) {
    ++at;
    if (at < text.size() && (text[at] == '+' || text[at] == '-')) ++at;
    if (digit_run() == 0) {
      *pos = at;
      return "digits required in exponent";
    }
  }
  *pos = at;
  return nullptr;
}

namespace {

/// Recursive-descent parser state over one immutable text buffer.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

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
    // Check the grammar, then convert the exact same span in place, so
    // fmt_shortest() emissions round-trip bit-identically.
    const std::size_t start = pos_;
    if (const char* reason = scan_number(text_, &pos_)) return fail(reason);
    out->type = Value::Type::kNumber;
    out->number = parse_decimal(text_.substr(start, pos_ - start));
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

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        // Append the whole run up to the next quote, escape or control
        // character at once.
        const std::size_t run = pos_;
        while (++pos_ < text_.size()) {
          const char next = text_[pos_];
          if (next == '"' || next == '\\' || static_cast<unsigned char>(next) < 0x20) {
            break;
          }
        }
        out->append(text_.data() + run, pos_ - run);
        continue;
      }
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
      Value element;
      skip_whitespace();
      if (!parse_value(&element)) return false;
      out->array.push_back(std::move(element));
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
      std::string key;
      if (!parse_string(&key)) return false;
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_whitespace();
      Value member;
      if (!parse_value(&member)) return false;
      out->object.emplace_back(std::move(key), std::move(member));
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

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  const char* reason_ = nullptr;
  std::size_t error_pos_ = 0;
};

}  // namespace

bool parse(std::string_view text, Value* out, std::string* error) {
  *out = Value{};
  return Parser(text).parse_document(out, error);
}

}  // namespace routesim::json
