#include "obs/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace scflow::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  // max_digits10 guarantees a lossless double round-trip; %g keeps the
  // common integral gauges short ("42" not "42.000000000000000").
  std::snprintf(buf, sizeof buf, "%.*g", std::numeric_limits<double>::max_digits10, v);
  return buf;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t JsonValue::as_u64(std::uint64_t dflt) const {
  if (kind != Kind::kNumber) return dflt;
  if (is_uint) return uint_image;
  if (number >= 0.0 && number < 1.8446744073709552e19) return static_cast<std::uint64_t>(number);
  return dflt;
}

double JsonValue::as_double(double dflt) const {
  return kind == Kind::kNumber ? number : dflt;
}

namespace {

/// Recursive-descent parser building a JsonValue DOM — the one JSON
/// grammar of the obs layer.  Numbers additionally keep an exact uint64
/// image when the lexeme is a plain non-negative integer in range.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool run(JsonValue* out, std::string* error) {
    error_ = error;
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after JSON value");
    return true;
  }

 private:
  bool fail(const char* msg) {
    if (error_ != nullptr)
      *error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    return false;
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue* out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    bool ok = false;
    if (eof()) {
      ok = fail("unexpected end of input");
    } else {
      switch (peek()) {
        case '{': ok = object(out); break;
        case '[': ok = array(out); break;
        case '"':
          out->kind = JsonValue::Kind::kString;
          ok = string(&out->string);
          break;
        case 't':
          out->kind = JsonValue::Kind::kBool;
          out->boolean = true;
          ok = literal("true");
          break;
        case 'f':
          out->kind = JsonValue::Kind::kBool;
          out->boolean = false;
          ok = literal("false");
          break;
        case 'n':
          out->kind = JsonValue::Kind::kNull;
          ok = literal("null");
          break;
        default: ok = number(out); break;
      }
    }
    --depth_;
    return ok;
  }

  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key string");
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      out->members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      out->items.push_back(std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return fail("expected ',' or ']' in array");
    }
  }

  static bool is_hex(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
  }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }
  static unsigned hex_val(char c) {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    return static_cast<unsigned>(c - 'A' + 10);
  }

  void append_utf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool string(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      if (eof()) return fail("unterminated string");
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return fail("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (eof()) return fail("unterminated escape");
        const char e = text_[pos_];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              ++pos_;
              if (eof() || !is_hex(text_[pos_])) return fail("bad \\u escape");
              cp = cp * 16 + hex_val(text_[pos_]);
            }
            // Surrogate pair: stitch \uD8xx\uDCxx into one code point.
            if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 6 < text_.size() &&
                text_[pos_ + 1] == '\\' && text_[pos_ + 2] == 'u') {
              unsigned lo = 0;
              bool ok = true;
              for (int i = 0; i < 4; ++i) {
                const char h = text_[pos_ + 3 + static_cast<std::size_t>(i)];
                if (!is_hex(h)) { ok = false; break; }
                lo = lo * 16 + hex_val(h);
              }
              if (ok && lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                pos_ += 6;
              }
            }
            append_utf8(out, cp);
            break;
          }
          default: return fail("bad escape character");
        }
        ++pos_;
        continue;
      }
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    bool neg = false;
    if (!eof() && peek() == '-') { neg = true; ++pos_; }
    if (eof() || !is_digit(peek())) return fail("expected a number");
    if (peek() == '0') ++pos_;  // no leading zeros
    else while (!eof() && is_digit(peek())) ++pos_;
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      if (eof() || !is_digit(peek())) return fail("expected digits after decimal point");
      while (!eof() && is_digit(peek())) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !is_digit(peek())) return fail("expected exponent digits");
      while (!eof() && is_digit(peek())) ++pos_;
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(lexeme.c_str(), nullptr);
    if (integral && !neg) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long u = std::strtoull(lexeme.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out->is_uint = true;
        out->uint_image = u;
      }
    }
    return true;
  }

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string* error_ = nullptr;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return Parser(text).run(out, error);
}

bool json_validate(std::string_view text, std::string* error) {
  JsonValue discarded;
  return json_parse(text, &discarded, error);
}

}  // namespace scflow::obs
