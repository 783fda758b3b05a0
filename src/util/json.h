// The one owner of the JSON format, both ways.
//
// JsonWriter writes every JSON output (farm report, metrics, series,
// SLO verdicts, Chrome trace).  It inserts separators itself, checks
// the grammar, and has no raw insert and no formatting option.  One
// escaping table: '"' and '\\' get a backslash, newline and tab are
// written as \n and \t, any other byte below 0x20 as \u00xx;
// everything else (DEL, UTF-8) is copied.  One number format: integral
// types print as integers, and so does a double holding an integer
// with |v| < 2^63 (-0.0 prints as 0); any other finite double prints
// as printf's %.17g, which round-trips.  A non-finite double is a
// precondition failure, so callers reject NaN and infinities where
// they enter (tools/cli_util.h, obs::parse_slo).
//
// parse_json reads those documents back (qosreport renders the farm's
// JSON export into its dashboard): objects, arrays, strings with the
// usual escapes, finite numbers, booleans, and null.  It is a strict
// reader — trailing garbage, trailing commas, NaN/Infinity and unpaired
// surrogates are errors — and it keeps numbers as doubles, which is
// exact for the 53-bit integer range the reports stay in.
#pragma once

#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace qosctrl::util {

enum class JsonKind { kNull, kBool, kNumber, kString, kArray, kObject };

/// One JSON value; a tree of these is a document.  Object member order
/// is preserved (lookup is linear — report objects are small).
class JsonValue {
 public:
  JsonKind kind() const { return kind_; }
  bool is_null() const { return kind_ == JsonKind::kNull; }
  bool is_bool() const { return kind_ == JsonKind::kBool; }
  bool is_number() const { return kind_ == JsonKind::kNumber; }
  bool is_string() const { return kind_ == JsonKind::kString; }
  bool is_array() const { return kind_ == JsonKind::kArray; }
  bool is_object() const { return kind_ == JsonKind::kObject; }

  /// Typed accessors; requires the matching kind.
  bool as_bool() const;
  double as_number() const;
  long long as_int() const;  ///< as_number truncated toward zero
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member by key, or nullptr when absent / not an object.
  const JsonValue* find(const std::string& key) const;

  /// find() that also requires the member's kind; nullptr otherwise.
  const JsonValue* find(const std::string& key, JsonKind kind) const;

 private:
  friend class JsonParser;  // builds values in place

  JsonKind kind_ = JsonKind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Streaming writer for one JSON document (rules in the header comment).
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  void key(std::string_view k);  ///< the next member's key, in an object

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(double d);
  template <std::integral T>
  void value(T v) {
    if constexpr (std::is_signed_v<T>) {
      integer(static_cast<long long>(v));
    } else {
      integer(static_cast<unsigned long long>(v));
    }
  }

  template <class T>
  void field(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// The one whitespace hook: the next element, closing bracket or (once
  /// the document is complete) the end of the output starts a new line.
  void newline();

  /// The finished document; leaves the writer empty.
  std::string take();

  /// `d` in the writer's number format.
  static std::string number(double d);

 private:
  template <class Int>
  void integer(Int v);
  void separate(bool is_key);
  void open(char bracket);
  void close(char bracket);
  void string(std::string_view s);

  std::string out_;
  std::vector<bool> open_;  ///< open containers, innermost last; true = {}
  bool empty_ = true;       ///< the innermost container has no element yet
  bool after_key_ = false;  ///< a key was written; its value comes next
  bool newline_ = false;    ///< newline() is pending
};

/// Parses one complete JSON document.  On failure returns false and
/// sets `*error` to "line L: message".
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

}  // namespace qosctrl::util
