// Minimal JSON writer and parser — enough to export timing/sizing reports
// and to accept `statsize serve` request bodies without pulling in a
// dependency. The writer streams with correct string escaping and
// round-trippable (%.17g) number formatting; the parser is a strict
// recursive-descent RFC 8259 reader that reports 1-based line/column loci
// and rejects trailing garbage after the top-level value, so a malformed
// HTTP body turns into a useful 400, never a silently-truncated accept.

#pragma once

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace statsize::util {

/// Streaming writer with explicit begin/end pairs and automatic commas:
///
///   JsonWriter w(out);
///   w.begin_object();
///   w.key("delay").begin_object();
///   w.key("mu").value(7.25);
///   w.key("sigma").value(0.81);
///   w.end_object();
///   w.key("gates").begin_array();
///   w.value("A"); w.value("B");
///   w.end_array();
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, int indent = 2) : out_(&out), indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next member (only valid directly inside an object).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(int i);
  JsonWriter& value(long i);
  JsonWriter& value(bool b);
  JsonWriter& null();

  /// Escapes `s` per RFC 8259 (quotes, backslash, control characters).
  static std::string escape(std::string_view s);

 private:
  void comma_and_newline();
  void pad();

  std::ostream* out_;
  int indent_;
  std::vector<char> stack_;   ///< 'o' or 'a'
  std::vector<bool> first_;   ///< first element at each level
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Thrown by parse_json on malformed input. `line`/`column` are 1-based and
/// point at the offending character, so servers can answer 400 with a locus
/// a human can act on ("expected ',' or '}' at line 3 column 17").
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, int line, int column)
      : std::runtime_error(message + " at line " + std::to_string(line) + " column " +
                           std::to_string(column)),
        line_(line),
        column_(column) {}

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// An immutable parsed JSON document. Objects preserve member order (and use
/// ordered linear lookup — request bodies are small); numbers are doubles,
/// matching what JsonWriter emits. Type-mismatching accessors throw
/// std::runtime_error naming the expected and actual type.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  ///< null

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  /// as_number() checked to be integral and in std::int64_t range.
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;                            ///< array
  const std::vector<std::pair<std::string, JsonValue>>& members() const;  ///< object

  /// Object member lookup (first match); nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Defaulted object-member accessors for optional request fields. A member
  // that is absent or JSON null yields the fallback. A present member of the
  // wrong type still throws, naming the member ("seed: JSON value is string,
  // expected number") — a typo'd value should 400, not silently fall back.
  double number_or(std::string_view key, double fallback) const;
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON value spanning all of `text` (leading/trailing
/// whitespace allowed, anything else after the value is an error — `{}{}`
/// must not parse as `{}`). Throws JsonParseError with a 1-based locus.
JsonValue parse_json(std::string_view text);

}  // namespace statsize::util
