#include "util/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.h"

namespace memreal {

namespace {

constexpr int kMaxParseDepth = 128;

/// Cursor over the input with 1-based line/column error reporting.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonParseError("JSON parse error at line " + std::to_string(line) +
                         ", column " + std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxParseDepth) fail("nesting deeper than 128 levels");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape digit");
      }
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (!consume_literal("\\u")) fail("lone high surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  std::size_t digit_run() {
    std::size_t digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++digits;
    }
    return digits;
  }

  // Strict RFC 8259 number grammar: no leading '+', no leading zeros, a
  // digit on both sides of '.', digits after the exponent marker.
  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    const std::size_t int_start = pos_;
    if (digit_run() == 0) fail("bad number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail("leading zero in number");
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (digit_run() == 0) fail("bad number: no digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digit_run() == 0) fail("bad number: no exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral && token[0] != '-') {
      errno = 0;
      char* end = nullptr;
      const std::uint64_t u = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(u);
      }
      // Falls through for > 2^64 - 1: representable only as a double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    if (errno == ERANGE && !std::isfinite(d)) {
      fail("number out of double range");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_error(const char* want) {
  throw JsonParseError(std::string("JSON value is not ") + want);
}

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double Json::as_double() const {
  if (kind_ == Kind::kUInt) return static_cast<double>(uint_);
  if (kind_ != Kind::kNumber) kind_error("a number");
  return num_;
}

std::uint64_t Json::as_u64() const {
  if (kind_ != Kind::kUInt) kind_error("an unsigned integer");
  return uint_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return str_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) kind_error("an object");
  for (const auto& [k, v] : children_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw JsonParseError("JSON object has no member \"" + key + "\"");
  }
  return *v;
}

Json& Json::set(const std::string& key, Json value) {
  MEMREAL_CHECK_MSG(kind_ == Kind::kObject, "Json::set on a non-object");
  children_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  MEMREAL_CHECK_MSG(kind_ == Kind::kArray, "Json::push on a non-array");
  children_.emplace_back(std::string(), std::move(value));
  return *this;
}

void Json::write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kUInt: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(uint_));
      out += buf;
      break;
    }
    case Kind::kNumber: {
      if (!std::isfinite(num_)) {
        out += "null";
        break;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*g",
                    std::numeric_limits<double>::max_digits10, num_);
      out += buf;
      break;
    }
    case Kind::kString:
      write_escaped(out, str_);
      break;
    case Kind::kObject:
    case Kind::kArray: {
      const bool obj = kind_ == Kind::kObject;
      out += obj ? '{' : '[';
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        if (obj) {
          write_escaped(out, children_[i].first);
          out += indent > 0 ? ": " : ":";
        }
        children_[i].second.write(out, indent, depth + 1);
      }
      if (!children_.empty()) newline(depth);
      out += obj ? '}' : ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

}  // namespace memreal
