#include "src/common/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace mpcn {

namespace {

const char* kind_name(Json::Kind k) {
  switch (k) {
    case Json::Kind::kNull:
      return "null";
    case Json::Kind::kBool:
      return "bool";
    case Json::Kind::kInt:
      return "int";
    case Json::Kind::kDouble:
      return "double";
    case Json::Kind::kString:
      return "string";
    case Json::Kind::kArray:
      return "array";
    case Json::Kind::kObject:
      return "object";
  }
  return "?";
}

void escape_into(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::require(Kind k) const {
  if (kind_ != k) {
    throw JsonError(std::string("Json: expected ") + kind_name(k) + ", have " +
                    kind_name(kind_));
  }
}

int Json::as_int32() const {
  const std::int64_t v = as_int();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw JsonError("Json: integer " + std::to_string(v) +
                    " is out of int range");
  }
  return static_cast<int>(v);
}

Json& Json::set(const std::string& key, Json v) {
  require(Kind::kObject);
  for (Member& m : object_) {
    if (m.first == key) {
      m.second = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  require(Kind::kObject);
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* j = find(key);
  if (!j) throw JsonError("Json object has no key '" + key + "'");
  return *j;
}

bool Json::operator==(const Json& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == o.bool_;
    case Kind::kInt:
      return int_ == o.int_;
    case Kind::kDouble:
      return double_ == o.double_;
    case Kind::kString:
      return string_ == o.string_;
    case Kind::kArray:
      return array_ == o.array_;
    case Kind::kObject:
      return object_ == o.object_;
  }
  return false;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad =
      pretty ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
             : std::string();
  const std::string close_pad =
      pretty ? std::string(static_cast<std::size_t>(indent * depth), ' ')
             : std::string();
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      out += std::to_string(int_);
      break;
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        // JSON has no Inf/NaN; be lossy but valid.
        out += "null";
        break;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out += buf;
      // Keep a visible distinction from integers ("1" vs "1.0") so the
      // parse side restores the same Kind.
      if (!std::strpbrk(buf, ".eE")) out += ".0";
      break;
    }
    case Kind::kString:
      escape_into(string_, out);
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        escape_into(object_[i].first, out);
        out += pretty ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ------------------------------------------------------------------ parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json j = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return j;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(const char* literal, Json value, Json* out) {
    const std::size_t len = std::strlen(literal);
    if (s_.compare(pos_, len, literal) != 0) {
      fail(std::string("expected '") + literal + "'");
    }
    pos_ += len;
    *out = std::move(value);
  }

  Json parse_value() {
    skip_ws();
    Json out;
    switch (peek()) {
      case 'n':
        expect("null", Json::null(), &out);
        return out;
      case 't':
        expect("true", Json(true), &out);
        return out;
      case 'f':
        expect("false", Json(false), &out);
        return out;
      case '"':
        return Json(parse_string());
      case '[': {
        ++pos_;
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return arr;
        }
        for (;;) {
          arr.push(parse_value());
          skip_ws();
          const char c = next();
          if (c == ']') return arr;
          if (c != ',') fail("expected ',' or ']' in array");
        }
      }
      case '{': {
        ++pos_;
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return obj;
        }
        for (;;) {
          skip_ws();
          if (peek() != '"') fail("expected string key in object");
          std::string key = parse_string();
          skip_ws();
          if (next() != ':') fail("expected ':' after object key");
          obj.set(key, parse_value());
          skip_ws();
          const char c = next();
          if (c == '}') return obj;
          if (c != ',') fail("expected ',' or '}' in object");
        }
      }
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    if (next() != '"') fail("expected '\"'");
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences — we only emit \u for control
          // characters, so this path is parse-compat, not full UTF-16).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  std::size_t digit_run() {
    std::size_t count = 0;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
      ++count;
    }
    return count;
  }

  // RFC 8259 grammar, enforced: [-] ("0" | [1-9][0-9]*) ["." 1*DIGIT]
  // [("e"|"E") ["+"|"-"] 1*DIGIT]. Leading zeros, bare '.', '.5' and
  // '1.' are rejected, matching the header's strictness promise.
  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
      if (pos_ < s_.size() &&
          std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("leading zeros are not allowed");
      }
    } else if (digit_run() == 0) {
      fail("expected a number");
    }
    bool is_double = false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (digit_run() == 0) fail("expected digits after '.'");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (digit_run() == 0) fail("expected digits in exponent");
    }
    const std::string tok = s_.substr(start, pos_ - start);
    try {
      try {
        if (is_double) return Json(std::stod(tok));
        return Json(static_cast<std::int64_t>(std::stoll(tok)));
      } catch (const std::out_of_range&) {
        // Integer too wide for int64: fall back to double.
        return Json(std::stod(tok));
      }
    } catch (const std::out_of_range&) {
      fail("number out of range: " + tok);  // e.g. 1e999
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace mpcn
