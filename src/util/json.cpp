#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace qosctrl::util {

bool JsonValue::as_bool() const {
  QC_EXPECT(kind_ == JsonKind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  QC_EXPECT(kind_ == JsonKind::kNumber, "JSON value is not a number");
  return number_;
}

long long JsonValue::as_int() const {
  return static_cast<long long>(as_number());
}

const std::string& JsonValue::as_string() const {
  QC_EXPECT(kind_ == JsonKind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  QC_EXPECT(kind_ == JsonKind::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  QC_EXPECT(kind_ == JsonKind::kObject, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != JsonKind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::find(const std::string& key,
                                 JsonKind kind) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind() == kind) ? v : nullptr;
}

namespace {

/// Writes `d` in the one JSON number format into [buf, end).
char* format_number(double d, char* buf, char* end) {
  QC_EXPECT(std::isfinite(d), "JSON numbers must be finite");
  if (std::abs(d) < 0x1p63 && d == std::trunc(d)) {
    return std::to_chars(buf, end, static_cast<long long>(d)).ptr;
  }
  return std::to_chars(buf, end, d, std::chars_format::general, 17).ptr;
}

}  // namespace

void JsonWriter::separate(bool is_key) {
  if (after_key_ && !is_key) {
    after_key_ = false;
    return;
  }
  QC_EXPECT(!after_key_ && (open_.empty() ? empty_ && !is_key
                                          : open_.back() == is_key),
            "JSON key or value out of place");
  if (!empty_) out_ += ',';
  if (newline_) out_ += '\n';
  newline_ = false;
  empty_ = false;
}

void JsonWriter::open(char bracket) {
  separate(false);
  out_ += bracket;
  open_.push_back(bracket == '{');
  empty_ = true;
}

void JsonWriter::close(char bracket) {
  QC_EXPECT(!open_.empty() && open_.back() == (bracket == '}') && !after_key_,
            "JSON close does not match the open container");
  if (newline_) out_ += '\n';
  newline_ = false;
  out_ += bracket;
  open_.pop_back();
  empty_ = false;
}

void JsonWriter::key(std::string_view k) {
  separate(true);
  string(k);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::string(std::string_view s) {
  out_ += '"';
  // Copies runs of bytes that need no escape in one append each.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.substr(run, i - run));
    run = i + 1;
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else {
      out_ += "\\u00";
      out_ += "0123456789abcdef"[u >> 4];
      out_ += "0123456789abcdef"[u & 0xf];
    }
  }
  out_.append(s.substr(run));
  out_ += '"';
}

void JsonWriter::value(std::string_view s) {
  separate(false);
  string(s);
}

void JsonWriter::value(bool b) {
  separate(false);
  out_ += b ? "true" : "false";
}

void JsonWriter::value(double d) {
  separate(false);
  char buf[32];
  out_.append(buf, format_number(d, buf, buf + sizeof buf));
}

template <class Int>
void JsonWriter::integer(Int v) {
  separate(false);
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}
template void JsonWriter::integer(long long);
template void JsonWriter::integer(unsigned long long);

void JsonWriter::newline() {
  if (open_.empty() && !empty_) {
    out_ += '\n';  // the document is complete
  } else {
    newline_ = true;
  }
}

std::string JsonWriter::take() {
  QC_EXPECT(open_.empty() && !empty_, "JSON document is incomplete");
  std::string out = std::move(out_);
  *this = JsonWriter{};
  return out;
}

std::string JsonWriter::number(double d) {
  char buf[32];
  return std::string(buf, format_number(d, buf, buf + sizeof buf));
}

// Recursive-descent parser over the raw text.  Depth is bounded so a
// pathological input can't blow the stack.
class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue* out) {
    *out = JsonValue{};
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& message) {
    long line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    *error_ = "line " + std::to_string(line) + ": " + message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) return fail("bad literal");
        return true;
      case 't':
      case 'f':
        out->kind_ = JsonKind::kBool;
        out->bool_ = peek() == 't';
        if (!consume_literal(out->bool_ ? "true" : "false")) {
          return fail("bad literal");
        }
        return true;
      case '"':
        out->kind_ = JsonKind::kString;
        return parse_string(&out->string_);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') {
      pos_ = start;
      return fail("bad number");
    }
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("bad number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("bad number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    const double d = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(d)) return fail("number out of range");
    out->kind_ = JsonKind::kNumber;
    out->number_ = d;
    return true;
  }

  // Appends `cp` (a Unicode scalar value) to `out` as UTF-8.
  static void append_utf8(unsigned long cp, std::string* out) {
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

  bool parse_hex4(unsigned long* out) {
    unsigned long v = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return fail("unterminated \\u escape");
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned long>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned long>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned long>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char e = text_[pos_++];
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
          unsigned long cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: the low half must follow immediately.
            if (!consume_literal("\\u")) return fail("unpaired surrogate");
            unsigned long lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
  }

  bool parse_array(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind_ = JsonKind::kArray;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!parse_value(&out->items_.emplace_back(), depth + 1)) return false;
      skip_ws();
      if (at_end()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') return fail("expected ',' or ']'");
      skip_ws();
    }
    return true;
  }

  bool parse_object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind_ = JsonKind::kObject;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      if (at_end() || peek() != '"') return fail("expected object key");
      auto& [key, item] = out->members_.emplace_back();
      if (!parse_string(&key)) return false;
      skip_ws();
      if (at_end() || text_[pos_++] != ':') return fail("expected ':'");
      skip_ws();
      if (!parse_value(&item, depth + 1)) return false;
      skip_ws();
      if (at_end()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') return fail("expected ',' or '}'");
      skip_ws();
    }
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

bool parse_json(const std::string& text, JsonValue* out, std::string* error) {
  std::string scratch;
  JsonParser parser(text, error != nullptr ? error : &scratch);
  return parser.parse_document(out);
}

}  // namespace qosctrl::util
