#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace statsize::util {

void JsonWriter::pad() {
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_); ++i) {
    *out_ << ' ';
  }
}

void JsonWriter::comma_and_newline() {
  if (after_key_) {
    after_key_ = false;
    return;  // value follows "key": inline
  }
  if (!stack_.empty()) {
    if (!first_.back()) *out_ << ',';
    first_.back() = false;
    *out_ << '\n';
    pad();
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_and_newline();
  *out_ << '{';
  stack_.push_back('o');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) {
    *out_ << '\n';
    pad();
  }
  *out_ << '}';
  if (stack_.empty()) *out_ << '\n';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_and_newline();
  *out_ << '[';
  stack_.push_back('a');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) {
    *out_ << '\n';
    pad();
  }
  *out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma_and_newline();
  *out_ << '"' << escape(name) << "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma_and_newline();
  *out_ << '"' << escape(s) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma_and_newline();
  if (std::isnan(d) || std::isinf(d)) {
    *out_ << "null";  // JSON has no NaN/Inf
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(int i) {
  comma_and_newline();
  *out_ << i;
  return *this;
}

JsonWriter& JsonWriter::value(long i) {
  comma_and_newline();
  *out_ << i;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma_and_newline();
  *out_ << (b ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_and_newline();
  *out_ << "null";
  return *this;
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// JsonValue accessors
// ---------------------------------------------------------------------------

namespace {

const char* type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, JsonValue::Type got) {
  throw std::runtime_error(std::string("JSON value is ") + type_name(got) + ", expected " +
                           wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  if (std::nearbyint(d) != d || d < -9.2233720368547758e18 || d > 9.2233720368547758e18) {
    throw std::runtime_error("JSON number is not an integer in range: " + std::to_string(d));
  }
  return static_cast<std::int64_t>(d);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// The member `key` of `obj` read through `get`, or `fallback` when it is
/// absent or JSON null; a type error names the member.
template <class T, class Get>
T member_or(const JsonValue& obj, std::string_view key, T fallback, Get get) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->is_null()) return fallback;
  try {
    return get(*v);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(key) + ": " + e.what());
  }
}

}  // namespace

double JsonValue::number_or(std::string_view key, double fallback) const {
  return member_or(*this, key, fallback, [](const JsonValue& v) { return v.as_number(); });
}

std::int64_t JsonValue::int_or(std::string_view key, std::int64_t fallback) const {
  return member_or(*this, key, fallback, [](const JsonValue& v) { return v.as_int(); });
}

std::string JsonValue::string_or(std::string_view key, std::string fallback) const {
  return member_or(*this, key, std::move(fallback),
                   [](const JsonValue& v) { return v.as_string(); });
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  return member_or(*this, key, fallback, [](const JsonValue& v) { return v.as_bool(); });
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Strict recursive-descent reader over the whole input. Tracks a 1-based
/// (line, column) cursor for error loci; depth-limits nesting so adversarial
/// bodies cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_whitespace();
    JsonValue v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing content after top-level value");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, line_, column_);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char take() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void expect(char want, const char* context) {
    if (at_end()) fail(std::string("unexpected end of input, expected '") + want + "' " + context);
    if (peek() != want) {
      fail(std::string("expected '") + want + "' " + context + ", got '" + peek() + "'");
    }
    take();
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      take();
    }
  }

  void expect_literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (at_end() || peek() != *p) fail(std::string("invalid literal, expected '") + word + "'");
      take();
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 128 levels");
    if (at_end()) fail("unexpected end of input, expected a value");
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't': {
        expect_literal("true");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        expect_literal("null");
        return JsonValue();
      }
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  JsonValue parse_object(int depth) {
    expect('{', "to open object");
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      take();
      return v;
    }
    while (true) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected a string object key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':', "after object key");
      skip_whitespace();
      v.members_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (at_end()) fail("unexpected end of input inside object");
      if (peek() == ',') {
        take();
        continue;
      }
      if (peek() == '}') {
        take();
        return v;
      }
      fail(std::string("expected ',' or '}' in object, got '") + peek() + "'");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[', "to open array");
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      take();
      return v;
    }
    while (true) {
      skip_whitespace();
      v.items_.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (at_end()) fail("unexpected end of input inside array");
      if (peek() == ',') {
        take();
        continue;
      }
      if (peek() == ']') {
        take();
        return v;
      }
      fail(std::string("expected ',' or ']' in array, got '") + peek() + "'");
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) fail("unexpected end of input in \\u escape");
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail(std::string("invalid hex digit '") + c + "' in \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"', "to open string");
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) fail("unterminated escape sequence");
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (at_end() || peek() != '\\') fail("lone high surrogate in \\u escape");
            take();
            if (at_end() || peek() != 'u') fail("lone high surrogate in \\u escape");
            take();
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate in \\u escape");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate in \\u escape");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    const int start_line = line_;
    const int start_column = column_;
    if (!at_end() && peek() == '-') take();
    // Integer part: a single 0, or a nonzero digit followed by digits.
    if (at_end() || peek() < '0' || peek() > '9') fail("invalid number: expected a digit");
    if (peek() == '0') {
      take();
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') take();
    }
    if (!at_end() && peek() == '.') {
      take();
      if (at_end() || peek() < '0' || peek() > '9') fail("invalid number: expected a fraction digit");
      while (!at_end() && peek() >= '0' && peek() <= '9') take();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      take();
      if (!at_end() && (peek() == '+' || peek() == '-')) take();
      if (at_end() || peek() < '0' || peek() > '9') fail("invalid number: expected an exponent digit");
      while (!at_end() && peek() >= '0' && peek() <= '9') take();
    }
    const std::string slice(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(slice.c_str(), &end);
    if (end != slice.c_str() + slice.size()) {
      throw JsonParseError("invalid number '" + slice + "'", start_line, start_column);
    }
    if (errno == ERANGE && (d == HUGE_VAL || d == -HUGE_VAL)) {
      throw JsonParseError("number '" + slice + "' out of double range", start_line, start_column);
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse_document(); }

}  // namespace statsize::util
